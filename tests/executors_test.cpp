// Tests for the executor engine behind Plan::execute — the pre-scheduled,
// self-executing, doacross and rotating instrumented shapes — and the
// doconsider facade. Every shape is reached
// the way production code reaches it: a Plan compiled with the matching
// DoconsiderOptions.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/executors.hpp"
#include "core/plan.hpp"
#include "sparse/ilu.hpp"
#include "sparse/triangular.hpp"
#include "workload/stencil.hpp"
#include "workload/synthetic.hpp"

namespace rtl {
namespace {

/// The paper's Figure 3 recurrence: x(i) = x(i) + b(i) * x(ia(i)), with
/// ia(i) < i so each iteration depends on one earlier iteration.
struct SimpleLoop {
  std::vector<index_t> ia;
  std::vector<real_t> b;
  std::vector<real_t> x0;

  static SimpleLoop make(index_t n, std::uint64_t seed) {
    SimpleLoop loop;
    loop.ia.resize(static_cast<std::size_t>(n));
    loop.b.resize(static_cast<std::size_t>(n));
    loop.x0.resize(static_cast<std::size_t>(n));
    std::uint64_t s = seed;
    const auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return s >> 33;
    };
    for (index_t i = 0; i < n; ++i) {
      loop.ia[static_cast<std::size_t>(i)] =
          i == 0 ? 0 : static_cast<index_t>(next() % i);
      loop.b[static_cast<std::size_t>(i)] =
          0.001 * static_cast<real_t>(next() % 1000);
      loop.x0[static_cast<std::size_t>(i)] =
          0.001 * static_cast<real_t>(next() % 1000);
    }
    return loop;
  }

  [[nodiscard]] DependenceGraph dependences() const {
    std::vector<std::vector<index_t>> preds(ia.size());
    for (index_t i = 1; i < static_cast<index_t>(ia.size()); ++i) {
      preds[static_cast<std::size_t>(i)].push_back(
          ia[static_cast<std::size_t>(i)]);
    }
    return DependenceGraph::from_lists(preds);
  }

  [[nodiscard]] std::vector<real_t> sequential_result() const {
    std::vector<real_t> x = x0;
    for (std::size_t i = 1; i < x.size(); ++i) {
      x[i] += b[i] * x[static_cast<std::size_t>(ia[i])];
    }
    return x;
  }

  /// The recurrence body writing into `x`.
  [[nodiscard]] auto body(std::vector<real_t>& x) const {
    return [this, &x](index_t i) {
      if (i > 0) {
        x[static_cast<std::size_t>(i)] +=
            b[static_cast<std::size_t>(i)] *
            x[static_cast<std::size_t>(ia[static_cast<std::size_t>(i)])];
      }
    };
  }
};

/// Plan for `graph` on `team` under (sched, exec).
Plan make_plan(ThreadTeam& team, DependenceGraph graph,
               SchedulingPolicy sched, ExecutionPolicy exec,
               bool instrumented = false) {
  DoconsiderOptions opts;
  opts.scheduling = sched;
  opts.execution = exec;
  opts.instrumented = instrumented;
  return Plan(team, std::move(graph), opts);
}

class ExecutorsTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorsTest, PreScheduledGlobalMatchesSequential) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(501, 11);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kPreScheduled);
  std::vector<real_t> x = loop.x0;
  plan.execute(team, loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

TEST_P(ExecutorsTest, SelfExecutingGlobalMatchesSequential) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(501, 12);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kSelfExecuting);
  std::vector<real_t> x = loop.x0;
  plan.execute(team, loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

TEST_P(ExecutorsTest, SelfExecutingLocalMatchesSequential) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(733, 13);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kLocalWrapped,
                              ExecutionPolicy::kSelfExecuting);
  std::vector<real_t> x = loop.x0;
  plan.execute(team, loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

TEST_P(ExecutorsTest, DoacrossMatchesSequential) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(404, 14);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kDoAcross);
  std::vector<real_t> x = loop.x0;
  plan.execute(team, loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

TEST_P(ExecutorsTest, EveryIterationRunsExactlyOnce) {
  ThreadTeam team(GetParam());
  const index_t n = 997;
  auto loop = SimpleLoop::make(n, 15);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kSelfExecuting);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  plan.execute(team, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ExecutorsTest, DependencesObservedUnderSelfExecution) {
  // Record a completion stamp per iteration; every dependence must have a
  // smaller stamp.
  ThreadTeam team(GetParam());
  const auto spec = SyntheticSpec{.mesh = 20, .lambda = 3.0,
                                  .mean_dist = 2.0, .seed = 5};
  const auto g = synthetic_dependences(spec);
  const index_t n = g.size();
  const Plan plan = make_plan(team, DependenceGraph(g),
                              SchedulingPolicy::kLocalWrapped,
                              ExecutionPolicy::kSelfExecuting);
  std::atomic<long> clock{0};
  std::vector<long> stamp(static_cast<std::size_t>(n), -1);
  plan.execute(team, [&](index_t i) {
    stamp[static_cast<std::size_t>(i)] = clock.fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) {
    for (const index_t d : g.deps(i)) {
      EXPECT_LT(stamp[static_cast<std::size_t>(d)],
                stamp[static_cast<std::size_t>(i)]);
    }
  }
}

TEST_P(ExecutorsTest, DependencesObservedUnderPreScheduling) {
  ThreadTeam team(GetParam());
  const auto spec = SyntheticSpec{.mesh = 20, .lambda = 3.0,
                                  .mean_dist = 2.0, .seed = 6};
  const auto g = synthetic_dependences(spec);
  const index_t n = g.size();
  const Plan plan = make_plan(team, DependenceGraph(g),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kPreScheduled);
  std::atomic<long> clock{0};
  std::vector<long> stamp(static_cast<std::size_t>(n), -1);
  plan.execute(team, [&](index_t i) {
    stamp[static_cast<std::size_t>(i)] = clock.fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) {
    for (const index_t d : g.deps(i)) {
      EXPECT_LT(stamp[static_cast<std::size_t>(d)],
                stamp[static_cast<std::size_t>(i)]);
    }
  }
}

TEST_P(ExecutorsTest, RotatingSelfExecutesEveryIndexPTimes) {
  ThreadTeam team(GetParam());
  const index_t n = 301;
  auto loop = SimpleLoop::make(n, 17);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kSelfExecuting,
                              /*instrumented=*/true);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  plan.execute(team, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), team.size());
}

TEST_P(ExecutorsTest, RotatingPreScheduledExecutesEveryIndexPTimes) {
  ThreadTeam team(GetParam());
  const index_t n = 301;
  auto loop = SimpleLoop::make(n, 18);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kPreScheduled,
                              /*instrumented=*/true);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  plan.execute(team, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), team.size());
}

TEST_P(ExecutorsTest, BodyReceivesTidWhenRequested) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(100, 19);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kPreScheduled);
  std::vector<int> owner(100, -1);
  plan.execute(team, [&](int tid, index_t i) {
    owner[static_cast<std::size_t>(i)] = tid;
  });
  // Every index must have been run by the processor that owns it in the
  // schedule.
  const Schedule& s = plan.schedule();
  for (int p = 0; p < s.nproc; ++p) {
    for (const index_t i : s.proc(p)) {
      EXPECT_EQ(owner[static_cast<std::size_t>(i)], p);
    }
  }
}

TEST_P(ExecutorsTest, DoconsiderFacadeAllPolicies) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(256, 20);
  const auto expected = loop.sequential_result();
  for (const auto sched :
       {SchedulingPolicy::kGlobal, SchedulingPolicy::kLocalWrapped,
        SchedulingPolicy::kLocalBlock}) {
    for (const auto exec :
         {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
          ExecutionPolicy::kDoAcross}) {
      std::vector<real_t> x = loop.x0;
      DoconsiderOptions opts;
      opts.scheduling = sched;
      opts.execution = exec;
      doconsider(team, loop.dependences(), loop.body(x), opts);
      EXPECT_EQ(x, expected) << "sched=" << static_cast<int>(sched)
                             << " exec=" << static_cast<int>(exec);
    }
  }
}

TEST_P(ExecutorsTest, PlanIsReusableAcrossExecutions) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(300, 21);
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  const Plan plan(team, loop.dependences(), opts);
  const auto expected = loop.sequential_result();
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<real_t> x = loop.x0;
    plan.execute(team, loop.body(x));
    EXPECT_EQ(x, expected) << "repetition " << rep;
  }
}

TEST_P(ExecutorsTest, ParallelInspectorProducesSamePlan) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(512, 22);
  DoconsiderOptions seq_opts;
  DoconsiderOptions par_opts;
  par_opts.parallel_inspector = true;
  const Plan a(team, loop.dependences(), seq_opts);
  const Plan b(team, loop.dependences(), par_opts);
  EXPECT_EQ(a.wavefronts().wave, b.wavefronts().wave);
  EXPECT_EQ(a.wavefronts().order, b.wavefronts().order);
  EXPECT_EQ(a.wavefronts().wave_ptr, b.wavefronts().wave_ptr);
  EXPECT_EQ(a.schedule().order, b.schedule().order);
  EXPECT_EQ(a.schedule().proc_ptr, b.schedule().proc_ptr);
  EXPECT_EQ(a.schedule().phase_ptr, b.schedule().phase_ptr);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ExecutorsEdge, EmptyLoopIsANoop) {
  ThreadTeam team(4);
  int count = 0;
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    const Plan plan(team, DependenceGraph(), opts);
    plan.execute(team, [&](index_t) { ++count; });
  }
  EXPECT_EQ(count, 0);
}

TEST(ExecutorsEdge, MoreProcessorsThanIterations) {
  ThreadTeam team(8);
  auto loop = SimpleLoop::make(5, 23);
  const Plan plan = make_plan(team, loop.dependences(),
                              SchedulingPolicy::kGlobal,
                              ExecutionPolicy::kSelfExecuting);
  std::vector<real_t> x = loop.x0;
  plan.execute(team, loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

INSTANTIATE_TEST_SUITE_P(Teams, ExecutorsTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace rtl
