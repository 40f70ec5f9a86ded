// Tests for the Plan/Runtime API v2: immutable shareable plans, the
// unified executor dispatch (every ExecutionPolicy through Plan::execute),
// per-execution ExecState pooling, concurrent execution of one shared plan
// from distinct teams, the structure fingerprint, and the Runtime's
// structure-keyed plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "runtime/hash.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "workload/problems.hpp"
#include "workload/synthetic.hpp"

namespace rtl {
namespace {

/// The paper's Figure 3 recurrence: x(i) = x(i) + b(i) * x(ia(i)).
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

class PlanTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanTest, EveryExecutionPolicyMatchesSequential) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(457, 71);
  const auto expected = loop.sequential_result();
  for (const auto sched :
       {SchedulingPolicy::kGlobal, SchedulingPolicy::kLocalWrapped,
        SchedulingPolicy::kLocalBlock}) {
    for (const auto exec :
         {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
          ExecutionPolicy::kDoAcross, ExecutionPolicy::kPointToPoint}) {
      DoconsiderOptions opts;
      opts.scheduling = sched;
      opts.execution = exec;
      const Plan plan(team, loop.dependences(), opts);
      std::vector<real_t> x = loop.x0;
      plan.execute(team, loop.body(x));
      EXPECT_EQ(x, expected) << "sched=" << static_cast<int>(sched)
                             << " exec=" << static_cast<int>(exec);
    }
  }
}

TEST_P(PlanTest, InstrumentedRotatingVariantsRunEveryIndexPTimes) {
  ThreadTeam team(GetParam());
  const index_t n = 301;
  auto loop = SimpleLoop::make(n, 72);
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    opts.instrumented = true;
    const Plan plan(team, loop.dependences(), opts);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits) h.store(0);
    plan.execute(team, [&](index_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), team.size());
  }
}

TEST_P(PlanTest, ExplicitExecStateIsReusableAcrossExecutions) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(388, 73);
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  const Plan plan(team, loop.dependences(), opts);
  ExecState state(plan);
  const auto expected = loop.sequential_result();
  for (int rep = 0; rep < 4; ++rep) {
    std::vector<real_t> x = loop.x0;
    plan.execute(team, loop.body(x), state);
    EXPECT_EQ(x, expected) << "repetition " << rep;
  }
}

TEST_P(PlanTest, PooledExecuteIsRepeatable) {
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(300, 74);
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

TEST_P(PlanTest, BatchedExecuteMatchesKIndependentExecutions) {
  // One execution whose body sweeps all k right-hand sides per iteration
  // must equal k independent single executions.
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(350, 76);
  const index_t n = static_cast<index_t>(loop.ia.size());
  constexpr index_t kWidth = 3;
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
        ExecutionPolicy::kPointToPoint}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    const Plan plan(team, loop.dependences(), opts);
    ExecState state(plan);

    // Batch j scales the start vector by (j+1); row-major n x k storage.
    std::vector<real_t> batch(static_cast<std::size_t>(n * kWidth));
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < kWidth; ++j) {
        batch[static_cast<std::size_t>(i * kWidth + j)] =
            loop.x0[static_cast<std::size_t>(i)] *
            static_cast<real_t>(j + 1);
      }
    }
    plan.execute(team, [&](index_t i) {
      if (i == 0) return;
      const index_t d = loop.ia[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < kWidth; ++j) {
        batch[static_cast<std::size_t>(i * kWidth + j)] +=
            loop.b[static_cast<std::size_t>(i)] *
            batch[static_cast<std::size_t>(d * kWidth + j)];
      }
    }, state);

    for (index_t j = 0; j < kWidth; ++j) {
      std::vector<real_t> x(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] =
            loop.x0[static_cast<std::size_t>(i)] *
            static_cast<real_t>(j + 1);
      }
      plan.execute(team, loop.body(x), state);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(batch[static_cast<std::size_t>(i * kWidth + j)],
                  x[static_cast<std::size_t>(i)])
            << "exec=" << static_cast<int>(exec) << " col=" << j
            << " row=" << i;
      }
    }
  }
}

TEST_P(PlanTest, PointToPointPublishesOncePerSlabAndNeverBarriers) {
  // The default executor's synchronization is exact and deterministic:
  // one release store per non-empty (processor, phase) slab, and no
  // barrier, no steal, no ready flag.
  ThreadTeam team(GetParam());
  auto loop = SimpleLoop::make(457, 77);
  const Plan plan(team, loop.dependences());
  ASSERT_EQ(plan.options().execution, ExecutionPolicy::kPointToPoint);
  ASSERT_FALSE(plan.needs_ready_flags());
  std::uint64_t slabs = 0;
  for (int p = 0; p < plan.nproc(); ++p) {
    for (index_t w = 0; w < plan.schedule().num_phases; ++w) {
      if (!plan.schedule().phase(p, w).empty()) ++slabs;
    }
  }
  ASSERT_GT(slabs, 0u);
  for (int rep = 0; rep < 2; ++rep) {
    team.reset_exec_counters();
    std::vector<real_t> x = loop.x0;
    plan.execute(team, loop.body(x));
    const ExecCounters c = team.exec_counters();
    EXPECT_EQ(c.flag_publishes, slabs) << "repetition " << rep;
    EXPECT_EQ(c.barrier_waits, 0u) << "repetition " << rep;
    EXPECT_EQ(c.steals, 0u) << "repetition " << rep;
  }
  // A one-processor team waits on nobody.
  if (team.size() == 1) {
    EXPECT_TRUE(plan.waits().waits.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, PlanTest, ::testing::Values(1, 2, 4));

TEST(PlanConcurrency, TwoTeamsExecuteTheSameSharedPlanSimultaneously) {
  // The v2 contract the old v1 plan type could not honor: one const Plan,
  // two independent thread teams, concurrent executions on independent
  // vectors (per-execution state comes from the plan's pool). Both results
  // must match the sequential reference. Runs under the TSan CI job.
  constexpr int kTeamSize = 2;
  constexpr int kRounds = 3;
  auto loop = SimpleLoop::make(400, 75);
  const auto expected = loop.sequential_result();

  ThreadTeam team_a(kTeamSize);
  ThreadTeam team_b(kTeamSize);
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  const Plan plan(team_a, loop.dependences(), opts);

  std::vector<real_t> xa, xb;
  const auto run = [&](ThreadTeam& team, std::vector<real_t>& x) {
    for (int round = 0; round < kRounds; ++round) {
      x = loop.x0;
      plan.execute(team, loop.body(x));
    }
  };
  std::thread worker([&] { run(team_b, xb); });
  run(team_a, xa);
  worker.join();

  EXPECT_EQ(xa, expected);
  EXPECT_EQ(xb, expected);
}

TEST(Fingerprint, IsXxh64OfNThenPtrAndAdj) {
  // The definition: XXH64 of n as 8 little-endian bytes, then ptr and adj
  // as 4-byte little-endian elements.
  const auto definition = [](const DependenceGraph& g) {
    std::vector<unsigned char> bytes;
    const auto put = [&bytes](std::uint64_t v, int width) {
      for (int b = 0; b < width; ++b) {
        bytes.push_back(static_cast<unsigned char>(v >> (8 * b)));
      }
    };
    put(static_cast<std::uint64_t>(g.size()), 8);
    for (const index_t v : g.ptr()) put(static_cast<std::uint32_t>(v), 4);
    for (const index_t v : g.adj()) put(static_cast<std::uint32_t>(v), 4);
    return hash64(bytes.data(), bytes.size());
  };
  EXPECT_EQ(DependenceGraph().fingerprint(), definition(DependenceGraph()));
  for (const index_t n : {1, 2, 17, 256, 5000}) {
    const auto g = SimpleLoop::make(n, 90 + static_cast<unsigned>(n))
                       .dependences();
    EXPECT_EQ(g.fingerprint(), definition(g)) << "n=" << n;
  }
  const auto mesh = synthetic_dependences(SyntheticSpec{});
  EXPECT_EQ(mesh.fingerprint(), definition(mesh));
}

TEST(Fingerprint, DeterministicAndStructureSensitive) {
  const auto g1 = SimpleLoop::make(256, 80).dependences();
  const auto g2 = SimpleLoop::make(256, 80).dependences();
  const auto g3 = SimpleLoop::make(256, 81).dependences();
  EXPECT_EQ(g1.fingerprint(), g2.fingerprint());
  EXPECT_NE(g1.fingerprint(), g3.fingerprint());
}

TEST(RuntimeCache, WarmHitSkipsTheInspectorEntirely) {
  Runtime rt(2);
  const auto g = SimpleLoop::make(300, 82).dependences();

  const auto cold = rt.plan_for(DependenceGraph(g));
  auto cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.hits, 0u);
  EXPECT_EQ(cc.misses, 1u);
  EXPECT_EQ(cc.entries, 1u);

  const auto warm = rt.plan_for(DependenceGraph(g));
  cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.hits, 1u);
  EXPECT_EQ(cc.misses, 1u);
  EXPECT_EQ(cc.entries, 1u);
  // Same artifact, not an equivalent rebuild: the inspector did not run.
  EXPECT_EQ(cold.get(), warm.get());
}

TEST(RuntimeCache, KeyDiscriminatesStructureAndOptions) {
  Runtime rt(2);
  const auto g = SimpleLoop::make(300, 83).dependences();
  const auto other = SimpleLoop::make(300, 84).dependences();

  DoconsiderOptions self_opts;
  self_opts.execution = ExecutionPolicy::kSelfExecuting;
  DoconsiderOptions pre_opts;
  pre_opts.execution = ExecutionPolicy::kPreScheduled;

  const auto a = rt.plan_for(DependenceGraph(g), self_opts);
  const auto b = rt.plan_for(DependenceGraph(g), pre_opts);
  const auto c = rt.plan_for(DependenceGraph(other), self_opts);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  const auto cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.misses, 3u);
  EXPECT_EQ(cc.entries, 3u);
}

TEST(RuntimeCache, IrrelevantOptionFieldsAreNormalizedInTheKey) {
  Runtime rt(2);
  const auto g = SimpleLoop::make(200, 85).dependences();
  DoconsiderOptions a;
  a.execution = ExecutionPolicy::kPointToPoint;
  a.instrumented = true;  // meaningless for kPointToPoint
  DoconsiderOptions b = a;
  b.instrumented = false;
  b.parallel_inspector = true;  // build-speed knob, not an artifact knob
  const auto pa = rt.plan_for(DependenceGraph(g), a);
  const auto pb = rt.plan_for(DependenceGraph(g), b);
  EXPECT_EQ(pa.get(), pb.get());
  EXPECT_EQ(rt.plan_cache_counters().hits, 1u);

  // kDoAcross ignores the schedule, so the scheduling policy is
  // canonicalized too.
  DoconsiderOptions da1;
  da1.execution = ExecutionPolicy::kDoAcross;
  DoconsiderOptions da2 = da1;
  da2.scheduling = SchedulingPolicy::kLocalWrapped;
  const auto pd1 = rt.plan_for(DependenceGraph(g), da1);
  const auto pd2 = rt.plan_for(DependenceGraph(g), da2);
  EXPECT_EQ(pd1.get(), pd2.get());
}

TEST(RuntimeCache, LruEvictionBoundsTheCache) {
  // Capacity 2: touching a third structure evicts the least-recently-used
  // entry; a hit refreshes recency.
  Runtime rt(2, 2);
  EXPECT_EQ(rt.plan_cache_capacity(), 2u);
  const auto g1 = SimpleLoop::make(120, 90).dependences();
  const auto g2 = SimpleLoop::make(120, 91).dependences();
  const auto g3 = SimpleLoop::make(120, 92).dependences();

  const auto p1 = rt.plan_for(DependenceGraph(g1));
  (void)rt.plan_for(DependenceGraph(g2));
  // Refresh g1 so g2 is now least-recently-used.
  (void)rt.plan_for(DependenceGraph(g1));
  (void)rt.plan_for(DependenceGraph(g3));  // evicts g2

  auto cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.entries, 2u);
  EXPECT_EQ(cc.evictions, 1u);
  EXPECT_EQ(cc.hits, 1u);
  EXPECT_EQ(cc.misses, 3u);

  // g1 survived (hit), g2 was evicted (miss + another eviction).
  const auto p1_again = rt.plan_for(DependenceGraph(g1));
  EXPECT_EQ(p1.get(), p1_again.get());
  (void)rt.plan_for(DependenceGraph(g2));
  cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.hits, 2u);
  EXPECT_EQ(cc.misses, 4u);
  EXPECT_EQ(cc.evictions, 2u);
  EXPECT_EQ(cc.entries, 2u);
}

TEST(RuntimeCache, EvictedPlanStaysAliveForHolders) {
  Runtime rt(2, 1);
  auto loop1 = SimpleLoop::make(150, 93);
  const auto plan = rt.plan_for(loop1.dependences());
  (void)rt.plan_for(SimpleLoop::make(150, 94).dependences());  // evicts
  EXPECT_EQ(rt.plan_cache_counters().evictions, 1u);
  // The caller's shared_ptr keeps the evicted plan executable.
  std::vector<real_t> x = loop1.x0;
  plan->execute(rt.team(), loop1.body(x));
  EXPECT_EQ(x, loop1.sequential_result());
}

TEST(RuntimeCache, ZeroCapacityDisablesCaching) {
  Runtime rt(2, 0);
  const auto g = SimpleLoop::make(100, 95).dependences();
  const auto a = rt.plan_for(DependenceGraph(g));
  const auto b = rt.plan_for(DependenceGraph(g));
  EXPECT_NE(a.get(), b.get());
  const auto cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.hits, 0u);
  EXPECT_EQ(cc.misses, 2u);
  EXPECT_EQ(cc.entries, 0u);
}

TEST(RuntimeCache, CapacityDefaultsAndEnvOverride) {
  // Without the env var the default is 64; RTL_PLAN_CACHE_CAP overrides
  // it for Runtimes constructed afterwards; garbage is ignored.
  unsetenv("RTL_PLAN_CACHE_CAP");
  EXPECT_EQ(Runtime::default_plan_cache_capacity(), 64u);
  setenv("RTL_PLAN_CACHE_CAP", "3", 1);
  EXPECT_EQ(Runtime::default_plan_cache_capacity(), 3u);
  Runtime rt(1);
  EXPECT_EQ(rt.plan_cache_capacity(), 3u);
  setenv("RTL_PLAN_CACHE_CAP", "not-a-number", 1);
  EXPECT_EQ(Runtime::default_plan_cache_capacity(), 64u);
  // Overflow must not silently become an effectively unbounded cache.
  setenv("RTL_PLAN_CACHE_CAP", "99999999999999999999999", 1);
  EXPECT_EQ(Runtime::default_plan_cache_capacity(), 64u);
  unsetenv("RTL_PLAN_CACHE_CAP");
}

TEST(RuntimeCache, ClearDropsEntriesButKeepsHandlesValid) {
  Runtime rt(2);
  auto loop = SimpleLoop::make(200, 86);
  const auto plan = rt.plan_for(loop.dependences());
  rt.clear_plan_cache();
  EXPECT_EQ(rt.plan_cache_counters().entries, 0u);
  // The caller's shared_ptr keeps the plan alive and executable.
  std::vector<real_t> x = loop.x0;
  plan->execute(rt.team(), loop.body(x));
  EXPECT_EQ(x, loop.sequential_result());
}

TEST(RuntimeCache, RepeatedPreconditionerSetupReusesCachedPlans) {
  // The re-factorization scenario of §5.1.1: same sparsity structure,
  // fresh preconditioner. The second setup must pay zero inspector misses.
  Runtime rt(2);
  const auto prob = make_5pt();
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;

  IluPreconditioner first(rt, prob.system.a, 0, opts);
  const auto after_first = rt.plan_cache_counters();
  EXPECT_GT(after_first.misses, 0u);

  IluPreconditioner second(rt, prob.system.a, 0, opts);
  const auto after_second = rt.plan_cache_counters();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.hits, after_first.hits + 3u);

  // Both preconditioners share the very same plan objects.
  EXPECT_EQ(&first.triangular_solver().lower_plan(),
            &second.triangular_solver().lower_plan());

  // And both still solve correctly.
  first.factor(rt.team(), prob.system.a);
  second.factor(rt.team(), prob.system.a);
  const index_t n = prob.system.a.rows();
  std::vector<real_t> z1(static_cast<std::size_t>(n)),
      z2(static_cast<std::size_t>(n));
  first.apply(rt.team(), prob.system.rhs, z1);
  second.apply(rt.team(), prob.system.rhs, z2);
  EXPECT_EQ(z1, z2);
}

TEST(RuntimeCache, PreconditionerPlansFollowTheSolveWidth) {
  // Default options (point-to-point kGlobal): one-lane work — the factor,
  // single applies and k = 1 batches — walks the block-partition plans,
  // and the factor shares the forward solve's entry, so setup builds two
  // plans. The first wider batch binds the contiguous-deal pair through
  // the cache (two more); later batches of any width add nothing. Every
  // width gives the single apply's bits.
  const auto prob = make_5pt();
  const CsrMatrix& a = prob.system.a;
  const index_t n = a.rows();
  const auto nz = static_cast<std::size_t>(n);
  const auto batch_of = [&](index_t k) {
    BatchBuffer b(n, k);
    for (index_t j = 0; j < k; ++j) b.set_column(j, prob.system.rhs);
    return b;
  };
  const auto apply_batch = [&](IluPreconditioner& prec, Runtime& rt,
                               index_t k, const std::vector<real_t>& z) {
    const BatchBuffer r = batch_of(k);
    BatchBuffer out(n, k);
    prec.apply_batch(rt.team(), r.view(), out.view());
    std::vector<real_t> col(nz);
    for (index_t j = 0; j < k; ++j) {
      out.get_column(j, col);
      EXPECT_EQ(col, z) << "k=" << k << " col=" << j;
    }
  };

  Runtime rt(2, 64, "");
  IluPreconditioner prec(rt, a, 0);
  prec.factor(rt.team(), a);
  std::vector<real_t> z(nz);
  prec.apply(rt.team(), prob.system.rhs, z);
  apply_batch(prec, rt, 1, z);
  EXPECT_EQ(rt.plan_cache_counters().misses, 2u);
  EXPECT_EQ(&prec.factor_plan(), &prec.triangular_solver().lower_plan());
  EXPECT_EQ(prec.factor_plan().options().scheduling,
            SchedulingPolicy::kLocalBlock);
  EXPECT_EQ(prec.triangular_solver().upper_plan().options().scheduling,
            SchedulingPolicy::kLocalBlock);
  apply_batch(prec, rt, 4, z);
  EXPECT_EQ(rt.plan_cache_counters().misses, 4u);
  apply_batch(prec, rt, 4, z);
  apply_batch(prec, rt, 16, z);
  apply_batch(prec, rt, 1, z);
  const auto cc = rt.plan_cache_counters();
  EXPECT_EQ(cc.misses, 4u);
  EXPECT_EQ(cc.hits, 1u);  // the forward solve's hit on the factor plan
  EXPECT_EQ(cc.entries, 4u);

  // The paper's executors plan one layout for every width.
  DoconsiderOptions pre;
  pre.execution = ExecutionPolicy::kPreScheduled;
  Runtime rt_pre(2, 64, "");
  IluPreconditioner prec_pre(rt_pre, a, 0, pre);
  prec_pre.factor(rt_pre.team(), a);
  std::vector<real_t> z_pre(nz);
  prec_pre.apply(rt_pre.team(), prob.system.rhs, z_pre);
  EXPECT_EQ(z_pre, z);
  for (const index_t k : {1, 4, 16}) apply_batch(prec_pre, rt_pre, k, z);
  EXPECT_EQ(rt_pre.plan_cache_counters().misses, 2u);
  EXPECT_EQ(prec_pre.factor_plan().options().scheduling,
            SchedulingPolicy::kGlobal);
}

TEST(PlanStatsTest, FootprintAndShapeMatchTheArtifact) {
  ThreadTeam team(2);
  auto loop = SimpleLoop::make(333, 87);
  const Plan plan(team, loop.dependences());
  const PlanStats st = plan.stats();

  EXPECT_EQ(st.n, plan.size());
  EXPECT_EQ(st.edges, plan.graph().num_edges());
  EXPECT_EQ(st.phases, plan.wavefronts().num_waves);
  EXPECT_EQ(st.max_wavefront, plan.wavefronts().max_wave_size());
  EXPECT_DOUBLE_EQ(st.avg_wavefront,
                   static_cast<double>(st.n) / static_cast<double>(st.phases));
  EXPECT_EQ(st.bytes, plan.memory_footprint());

  // The footprint is exactly the index arrays the executor walks: the
  // dependence CSR (n+1 + edges), the wavefront levels + membership CSR
  // (n + n + phases+1), the flat schedule (n + nproc+1 +
  // nproc*(phases+1) offsets), and — under the default point-to-point
  // executor — the wait lists (nproc*phases+1 offsets + one
  // (processor, phase) pair per wait).
  const std::size_t n = static_cast<std::size_t>(st.n);
  const std::size_t e = static_cast<std::size_t>(st.edges);
  const std::size_t ph = static_cast<std::size_t>(st.phases);
  const std::size_t nproc = static_cast<std::size_t>(plan.nproc());
  const std::size_t expected_entries =
      (n + 1 + e) + (n + n + ph + 1) + (n + nproc + 1 + nproc * (ph + 1));
  EXPECT_EQ(st.waits, plan.waits().waits.size());
  EXPECT_EQ(st.wait_bytes,
            (nproc * ph + 1) * sizeof(index_t) + st.waits * sizeof(SlabWait));
  EXPECT_EQ(st.bytes, expected_entries * sizeof(index_t) + st.wait_bytes);
}

TEST(PlanStatsTest, EmptyPlanHasZeroShape) {
  ThreadTeam team(2);
  const Plan plan(team, DependenceGraph());
  const PlanStats st = plan.stats();
  EXPECT_EQ(st.n, 0);
  EXPECT_EQ(st.phases, 0);
  EXPECT_EQ(st.max_wavefront, 0);
  EXPECT_DOUBLE_EQ(st.avg_wavefront, 0.0);
  EXPECT_GT(st.bytes, 0u);  // the empty CSRs still hold their end offsets
}

}  // namespace
}  // namespace rtl
