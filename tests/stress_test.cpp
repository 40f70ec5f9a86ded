// Scheduler stress layer (`stress` ctest label): random DAGs hammered
// through every execution policy × batch width × processor count,
// checked bit-for-bit against a sequential reference.
//
// This suite exists to be run under the sanitizers: the CI TSan job runs
// `ctest -L "quick|stress"`, so every synchronization path — the phase
// barriers, the ready-flag busy-waits and the point-to-point progress
// counters, each including its abort path — is exercised with real
// contention (including processor counts far above the host's core count)
// on every PR. The batched GMRES's column-parallel region rides along: its
// cursor and its per-column state handoff are audited the same way, as are
// the Krylov drivers' team-owned scratch blocks (reuse, nesting, unwind,
// concurrent Runtimes).
// Failures print the RNG seed; replay any instance with
// RTL_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "graph/dependence_graph.hpp"
#include "kernel/batch.hpp"
#include "kernel/bound_kernel.hpp"
#include "krylov_cases.hpp"
#include "runtime/thread_team.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "sparse/csr.hpp"
#include "sparse/triangular.hpp"
#include "test_rng.hpp"
#include "workload/stencil.hpp"

namespace rtl {
namespace {

using test_rng::seed_trace;
using test_rng::test_seed;

/// Random forward-only DAG (same construction as property_test).
DependenceGraph random_dag(index_t n, int max_deg, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<index_t>> preds(static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<int> deg_dist(0, max_deg);
    const int deg = deg_dist(rng);
    auto& mine = preds[static_cast<std::size_t>(i)];
    std::uniform_int_distribution<index_t> pick(0, i - 1);
    for (int d = 0; d < deg; ++d) mine.push_back(pick(rng));
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  }
  return DependenceGraph::from_lists(preds);
}

/// Batched recurrence over a row-major n×k buffer:
///   x(i, j) = rhs(i, j) + sum_d 0.5 * x(d, j) / |deps(i)|.
/// Each lane's operand order is fixed by the sorted dependence list, so
/// the result is bit-for-bit independent of the execution interleaving —
/// any divergence from the sequential reference is a scheduler bug, not
/// floating-point reassociation.
struct RecurrenceBody {
  const DependenceGraph* g;
  const real_t* rhs;
  real_t* x;
  index_t k;

  void operator()(index_t i) const {
    const auto deps = g->deps(i);
    const std::size_t w = static_cast<std::size_t>(k);
    const real_t* ri = rhs + static_cast<std::size_t>(i) * w;
    real_t* xi = x + static_cast<std::size_t>(i) * w;
    for (index_t j = 0; j < k; ++j) {
      real_t v = ri[static_cast<std::size_t>(j)];
      for (const index_t d : deps) {
        v += 0.5 * x[static_cast<std::size_t>(d) * w +
                     static_cast<std::size_t>(j)] /
             static_cast<real_t>(deps.size());
      }
      xi[static_cast<std::size_t>(j)] = v;
    }
  }
};

std::vector<real_t> sequential_reference(const DependenceGraph& g,
                                         const std::vector<real_t>& rhs,
                                         index_t k) {
  std::vector<real_t> x(rhs.size(), 0.0);
  RecurrenceBody body{&g, rhs.data(), x.data(), k};
  for (index_t i = 0; i < g.size(); ++i) body(i);
  return x;
}

/// Reference for a bound forward-substitution kernel: the sequential
/// Figure 8 loop (sparse/triangular) run on each column of `rhs`.
BatchBuffer sequential_reference(const CsrMatrix& lower,
                                 const BatchBuffer& rhs) {
  const auto n = static_cast<std::size_t>(rhs.rows());
  BatchBuffer x(rhs.rows(), rhs.width());
  std::vector<real_t> col(n), sol(n);
  for (index_t j = 0; j < rhs.width(); ++j) {
    rhs.get_column(j, col);
    solve_lower_unit(lower, col, sol);
    x.set_column(j, sol);
  }
  return x;
}

struct StressParam {
  index_t n;
  int max_deg;
  std::uint64_t seed;
};

class SchedulerStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(SchedulerStressTest, EveryPolicyMatchesSequentialAtEveryWidth) {
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const index_t n = g.size();

  // One rhs buffer at the widest k; narrower widths use a prefix-shaped
  // regeneration so every width still sees deterministic values.
  std::mt19937_64 rng(seed ^ 0xD06F00D);
  std::uniform_real_distribution<real_t> dist(-4.0, 4.0);

  const struct {
    ExecutionPolicy exec;
    const char* name;
  } policies[] = {
      {ExecutionPolicy::kPreScheduled, "barrier"},
      {ExecutionPolicy::kSelfExecuting, "fuzzy"},
      {ExecutionPolicy::kPointToPoint, "point-to-point"},
  };
  // 8 procs on small hosts is deliberately oversubscribed: the busy-wait
  // paths must stay correct when workers are descheduled
  // mid-protocol, which is exactly what TSan + oversubscription provoke.
  const int procs[] = {1, 2, 3, 4, 8};
  const index_t widths[] = {1, 4, 16};

  for (const index_t k : widths) {
    std::vector<real_t> rhs(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(k));
    for (auto& v : rhs) v = dist(rng);
    const std::vector<real_t> ref = sequential_reference(g, rhs, k);

    for (const int p : procs) {
      ThreadTeam team(p);
      for (const auto& pol : policies) {
        DoconsiderOptions opts;
        opts.execution = pol.exec;
        const Plan plan(team, DependenceGraph(g), opts);
        std::vector<real_t> x(rhs.size(), 0.0);
        plan.execute(team, RecurrenceBody{&g, rhs.data(), x.data(), k});
        ASSERT_EQ(x, ref) << "policy=" << pol.name << " procs=" << p
                          << " k=" << k;
      }
    }
  }
}

/// RecurrenceBody that throws when it reaches row `bad`.
struct ThrowingBody {
  RecurrenceBody inner;
  index_t bad;

  void operator()(index_t i) const {
    if (i == bad) throw std::runtime_error("injected fault");
    inner(i);
  }
};

TEST_P(SchedulerStressTest, ThrowingBodyReachesCallerTeamReusable) {
  // A body that throws at row r never publishes that row (no ready flag,
  // no progress store, no barrier arrival); every peer waiting on it must
  // notice the team's region-abort flag and leave, so the caller gets the
  // body's exception (not a hang) and the very next region on the same
  // team and plan runs normally. Every policy, every processor count 1..8
  // (oversubscribed on small hosts), k in {1, 4, 16}, faults at the
  // first, a middle and the last row.
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const index_t n = g.size();
  std::mt19937_64 rng(seed ^ 0xFA017);
  std::uniform_real_distribution<real_t> dist(-4.0, 4.0);
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
        ExecutionPolicy::kDoAcross, ExecutionPolicy::kPointToPoint}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    for (int p = 1; p <= 8; ++p) {
      ThreadTeam team(p);
      const Plan plan(team, DependenceGraph(g), opts);
      for (const index_t k : {1, 4, 16}) {
        std::vector<real_t> rhs(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(k));
        for (auto& v : rhs) v = dist(rng);
        const std::vector<real_t> ref = sequential_reference(g, rhs, k);
        for (const index_t bad : {index_t{0}, n / 2, n - 1}) {
          SCOPED_TRACE("exec=" + std::to_string(static_cast<int>(exec)) +
                       " procs=" + std::to_string(p) +
                       " k=" + std::to_string(k) +
                       " bad=" + std::to_string(bad));
          std::vector<real_t> x(rhs.size(), 0.0);
          const ThrowingBody faulty{{&g, rhs.data(), x.data(), k}, bad};
          EXPECT_THROW(plan.execute(team, faulty), std::runtime_error);
          plan.execute(team, RecurrenceBody{&g, rhs.data(), x.data(), k});
          ASSERT_EQ(x, ref);
        }
      }
    }
  }
}

TEST_P(SchedulerStressTest, BoundKernelSurvivesWidthChurnOversubscribed) {
  // A bound kernel's CSR pointers are shared immutable state read by every
  // worker; batch-width churn re-sizes the per-execution lane scratch but
  // must never disturb them. One kernel on the default executor, an
  // oversubscribed team (workers descheduled mid-protocol — exactly what
  // TSan + oversubscription provoke), widths alternating 1/16/4/16/1,
  // every solve pinned bit-for-bit to the sequential reference.
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const index_t n = g.size();

  // Unit-lower CSR over the DAG edges with deterministic random values.
  std::mt19937_64 vrng(seed ^ 0x10c0ed);
  std::uniform_real_distribution<real_t> vdist(-1.0, 1.0);
  std::vector<index_t> ptr{0};
  std::vector<index_t> col;
  std::vector<real_t> val;
  for (index_t i = 0; i < n; ++i) {
    for (const index_t d : g.deps(i)) {
      col.push_back(d);
      val.push_back(vdist(vrng));
    }
    ptr.push_back(static_cast<index_t>(col.size()));
  }
  const CsrMatrix lower(n, n, std::move(ptr), std::move(col),
                        std::move(val));

  ThreadTeam team(8);
  auto kernel = BoundKernel::lower(
      std::make_shared<const Plan>(team, DependenceGraph(g)), lower);

  std::mt19937_64 rng(seed ^ 0xFACADE);
  std::uniform_real_distribution<real_t> dist(-4.0, 4.0);
  for (const index_t k : {1, 16, 4, 16, 1}) {
    BatchBuffer rhs(n, k), got(n, k);
    for (index_t j = 0; j < k; ++j) {
      std::vector<real_t> colv(static_cast<std::size_t>(n));
      for (auto& v : colv) v = dist(rng);
      rhs.set_column(j, colv);
    }
    kernel.solve(team, rhs.view(), got.view());
    const BatchBuffer ref = sequential_reference(lower, rhs);
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.view().at(i, j), ref.view().at(i, j))
            << "k=" << k << " col=" << j << " row=" << i;
      }
    }
  }
}

TEST(KrylovStressTest, BatchedGmresColumnsMatchSingleRhsAtEveryTeamSize) {
  // The lockstep GMRES deals whole columns to team members through a
  // shared cursor, then hands every column's state back to the caller for
  // the next tick's pack; under TSan this audits both at team sizes 1..8
  // (oversubscribed on small hosts). Sixteen seeded right-hand sides and
  // a short restart make columns converge at different ticks and cycle
  // starts; the k = 1 and k = 3 batches are their leading columns. Every
  // column is pinned bit for bit to the single-RHS driver on the same
  // team.
  const std::uint64_t seed = test_seed(31);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(5, 5);
  const index_t n = sys.a.rows();
  const auto nz = static_cast<std::size_t>(n);
  constexpr index_t kMax = 16;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  std::vector<std::vector<real_t>> rhs(kMax, std::vector<real_t>(nz));
  for (auto& col : rhs) {
    for (auto& v : col) v = dist(rng);
  }
  KrylovOptions opt;
  opt.rtol = 1e-5;
  opt.restart = 3;
  opt.max_iterations = 40;
  for (int p = 1; p <= 8; ++p) {
    Runtime rt(p, 0, "");
    ThreadTeam& team = rt.team();
    IluPreconditioner precond(rt, sys.a, 0);
    precond.factor(team, sys.a);
    std::vector<std::vector<real_t>> ref_x(kMax, std::vector<real_t>(nz));
    std::vector<KrylovResult> ref(kMax);
    for (index_t j = 0; j < kMax; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      ref[ju] = gmres_solve(team, sys.a, rhs[ju], ref_x[ju], &precond, opt);
    }
    for (const index_t k : {1, 3, 16}) {
      BatchBuffer b(n, k), x(n, k);
      for (index_t j = 0; j < k; ++j) {
        b.set_column(j, rhs[static_cast<std::size_t>(j)]);
        x.set_column(j, std::vector<real_t>(nz, 0.0));
      }
      const auto results =
          gmres_solve(team, sys.a, b.view(), x.view(), &precond, opt);
      for (index_t j = 0; j < k; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        ASSERT_EQ(results[ju].iterations, ref[ju].iterations)
            << "procs=" << p << " k=" << k << " col=" << j;
        ASSERT_EQ(results[ju].converged, ref[ju].converged)
            << "procs=" << p << " k=" << k << " col=" << j;
        ASSERT_EQ(results[ju].breakdown, ref[ju].breakdown)
            << "procs=" << p << " k=" << k << " col=" << j;
        ASSERT_EQ(results[ju].residual_norm, ref[ju].residual_norm)
            << "procs=" << p << " k=" << k << " col=" << j;
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(x.view().at(i, j), ref_x[ju][static_cast<std::size_t>(i)])
              << "procs=" << p << " k=" << k << " col=" << j << " row=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Team-owned Krylov scratch (ThreadTeam::ScratchLease) under TSan: the
// drivers reuse their team's blocks across solves, a preconditioner that
// solves on its caller's team nests a second lease on the same stack (and
// reuses its blocks the next time), a throw unwinds one, and two Runtimes
// lease concurrently.
// ---------------------------------------------------------------------

using krylov_cases::Driver;
using krylov_cases::expect_same_solve;
using krylov_cases::kDrivers;
using krylov_cases::Solve;
using krylov_cases::solve_on;

/// k seeded right-hand sides in [-1, 1).
BatchBuffer random_rhs(index_t n, index_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  BatchBuffer b(n, k);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < k; ++j) b.view().at(i, j) = dist(rng);
  }
  return b;
}

KrylovOptions scratch_options() {
  KrylovOptions opt;
  opt.rtol = 1e-6;
  opt.restart = 4;
  opt.max_iterations = 24;
  return opt;
}

/// Delegates to ILU(0) and records the output pointer of every apply.
class RecordingPreconditioner : public Preconditioner {
 public:
  explicit RecordingPreconditioner(Preconditioner& inner) : inner_(inner) {}
  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override {
    outputs.push_back(z.data());
    inner_.apply(team, r, z);
  }
  void apply_batch(ThreadTeam& team, ConstBatchView r, BatchView z) override {
    outputs.push_back(z.data());
    inner_.apply_batch(team, r, z);
  }
  std::vector<const real_t*> outputs;

 private:
  Preconditioner& inner_;
};

TEST(KrylovScratchStressTest, RepeatedSolvesReuseTheSameBlocks) {
  // No per-solve allocation: two identical solves on one team hand the
  // preconditioner the same output pointers in the same order (GMRES's
  // v_0 / v_{j+1}, PCG's z, the batched drivers' n×k output).
  const std::uint64_t seed = test_seed(41);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(9, 9);
  const BatchBuffer b = random_rhs(sys.a.rows(), 3, seed);
  for (const int p : {1, 3}) {
    Runtime rt(p, 0, "");
    IluPreconditioner ilu(rt, sys.a, 0);
    ilu.factor(rt.team(), sys.a);
    for (const Driver d : kDrivers) {
      SCOPED_TRACE(::testing::Message() << "procs=" << p << " driver="
                                        << static_cast<int>(d));
      const KrylovOptions opt = scratch_options();
      RecordingPreconditioner first(ilu), second(ilu);
      const Solve a = solve_on(rt.team(), d, sys.a, &first, b, opt);
      const Solve c = solve_on(rt.team(), d, sys.a, &second, b, opt);
      EXPECT_GT(first.outputs.size(), 2u);
      EXPECT_EQ(second.outputs, first.outputs);
      expect_same_solve(c, a);
    }
  }
}

/// z <- a few GMRES steps on A z = r from z = 0, preconditioned by
/// `precond` (none when null), run on `inner` when set, else on the
/// caller's team: a solve nested inside the caller's solve.
class SolvingPreconditioner : public Preconditioner {
 public:
  SolvingPreconditioner(const CsrMatrix& a, ThreadTeam* inner,
                        Preconditioner* precond = nullptr)
      : a_(a), inner_(inner), precond_(precond) {}
  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override {
    KrylovOptions opt;
    opt.rtol = 1e-12;
    opt.restart = 3;
    opt.max_iterations = 5;
    std::fill(z.begin(), z.end(), 0.0);
    (void)gmres_solve(inner_ != nullptr ? *inner_ : team, a_, r, z, precond_,
                      opt);
  }

 private:
  const CsrMatrix& a_;
  ThreadTeam* inner_;
  Preconditioner* precond_;
};

TEST(KrylovScratchStressTest, NestedLeasesDoNotAlias) {
  // The preconditioner's GMRES leases the caller's team while the outer
  // solve's lease is live: it must take the blocks above the outer
  // lease's. The outer solve must equal the one whose preconditioner
  // solves on a second team of the same size; a second round checks the
  // blocks the team kept.
  const std::uint64_t seed = test_seed(42);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(8, 8);
  const BatchBuffer b = random_rhs(sys.a.rows(), 3, seed);
  KrylovOptions opt = scratch_options();
  opt.max_iterations = 10;
  for (const int p : {1, 2, 4}) {
    ThreadTeam team(p), other(p);
    SolvingPreconditioner nested(sys.a, nullptr), apart(sys.a, &other);
    for (const Driver d : kDrivers) {
      SCOPED_TRACE(::testing::Message() << "procs=" << p << " driver="
                                        << static_cast<int>(d));
      const Solve want = solve_on(team, d, sys.a, &apart, b, opt);
      for (int round = 0; round < 2; ++round) {
        expect_same_solve(solve_on(team, d, sys.a, &nested, b, opt), want);
      }
    }
  }
}

TEST(KrylovScratchStressTest, NestedLeasesReuseTheirBlocks) {
  // A preconditioner runs GMRES on its caller's team, itself preconditioned
  // by a recorder. Two successive outer solves must hand the recorder the
  // same output pointers in the same order: the nested leases take the
  // same blocks of the team's stack each time, and allocate none.
  const std::uint64_t seed = test_seed(45);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(8, 8);
  const BatchBuffer b = random_rhs(sys.a.rows(), 3, seed);
  KrylovOptions opt = scratch_options();
  opt.max_iterations = 10;
  for (const int p : {1, 2, 4}) {
    Runtime rt(p, 0, "");
    IluPreconditioner ilu(rt, sys.a, 0);
    ilu.factor(rt.team(), sys.a);
    for (const Driver d : kDrivers) {
      SCOPED_TRACE(::testing::Message() << "procs=" << p << " driver="
                                        << static_cast<int>(d));
      RecordingPreconditioner first(ilu), second(ilu);
      SolvingPreconditioner outer_first(sys.a, nullptr, &first);
      SolvingPreconditioner outer_second(sys.a, nullptr, &second);
      const Solve x = solve_on(rt.team(), d, sys.a, &outer_first, b, opt);
      const Solve y = solve_on(rt.team(), d, sys.a, &outer_second, b, opt);
      EXPECT_GT(first.outputs.size(), 2u);
      EXPECT_EQ(second.outputs, first.outputs);
      expect_same_solve(y, x);
    }
  }
}

/// ILU(0) that throws from a team region on its third apply.
class ThrowingPreconditioner : public Preconditioner {
 public:
  explicit ThrowingPreconditioner(Preconditioner& inner) : inner_(inner) {}
  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override {
    maybe_throw(team);
    inner_.apply(team, r, z);
  }
  void apply_batch(ThreadTeam& team, ConstBatchView r, BatchView z) override {
    maybe_throw(team);
    inner_.apply_batch(team, r, z);
  }

 private:
  void maybe_throw(ThreadTeam& team) {
    if (++calls_ != 3) return;
    team.run([&](int tid) {
      if (tid == team.size() - 1) throw std::runtime_error("third apply");
    });
  }
  Preconditioner& inner_;
  int calls_ = 0;
};

TEST(KrylovScratchStressTest, ThrowingPreconditionerLeavesTeamReusable) {
  // The exception unwinds the driver's lease, which must hand its blocks
  // back; the next solve on that team equals a fresh team's solve.
  const std::uint64_t seed = test_seed(43);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(9, 9);
  const BatchBuffer b = random_rhs(sys.a.rows(), 3, seed);
  const KrylovOptions opt = scratch_options();
  for (const int p : {1, 2, 4}) {
    for (const Driver d : kDrivers) {
      SCOPED_TRACE(::testing::Message() << "procs=" << p << " driver="
                                        << static_cast<int>(d));
      Runtime rt(p, 0, ""), fresh(p, 0, "");
      IluPreconditioner ilu(rt, sys.a, 0), ilu_fresh(fresh, sys.a, 0);
      ilu.factor(rt.team(), sys.a);
      ilu_fresh.factor(fresh.team(), sys.a);
      ThrowingPreconditioner throwing(ilu);
      EXPECT_THROW((void)solve_on(rt.team(), d, sys.a, &throwing, b, opt),
                   std::runtime_error);
      expect_same_solve(solve_on(rt.team(), d, sys.a, &ilu, b, opt),
                        solve_on(fresh.team(), d, sys.a, &ilu_fresh, b, opt));
    }
  }
}

TEST(KrylovScratchStressTest, ConcurrentRuntimesLeaseIndependently) {
  // Two Runtimes run batched GMRES at once, three solves each; every
  // solve equals that Runtime's sequential run. Each team's list is its
  // own, so TSan must see no shared state.
  const std::uint64_t seed = test_seed(44);
  SCOPED_TRACE(seed_trace(seed));
  const auto sys = five_point(10, 10);
  const KrylovOptions opt = scratch_options();
  struct Side {
    std::unique_ptr<Runtime> rt;
    std::unique_ptr<IluPreconditioner> ilu;
    BatchBuffer b;
    Solve want;
    std::vector<Solve> got;
  };
  Side sides[2];
  for (int s = 0; s < 2; ++s) {
    Side& side = sides[s];
    side.rt = std::make_unique<Runtime>(2, 0, "");
    side.ilu = std::make_unique<IluPreconditioner>(*side.rt, sys.a, 0);
    side.ilu->factor(side.rt->team(), sys.a);
    side.b = random_rhs(sys.a.rows(), 4 + s, seed + s);
    side.want = solve_on(side.rt->team(), Driver::kGmresBatched, sys.a,
                         side.ilu.get(), side.b, opt);
  }
  std::vector<std::thread> threads;
  for (Side& side : sides) {
    threads.emplace_back([&side, &sys, &opt] {
      for (int rep = 0; rep < 3; ++rep) {
        side.got.push_back(solve_on(side.rt->team(), Driver::kGmresBatched,
                                    sys.a, side.ilu.get(), side.b, opt));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Side& side : sides) {
    ASSERT_EQ(side.got.size(), 3u);
    for (const Solve& got : side.got) expect_same_solve(got, side.want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, SchedulerStressTest,
    ::testing::Values(StressParam{1, 1, 21},      // degenerate single row
                      StressParam{64, 2, 22},     // shallow, wide
                      StressParam{160, 6, 23},    // deep, dependence-heavy
                      StressParam{256, 1, 24},    // long chains
                      StressParam{97, 4, 25}));   // odd size vs strides

}  // namespace
}  // namespace rtl
