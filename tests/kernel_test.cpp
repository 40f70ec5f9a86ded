// Tests for the kernel layer: batch views/buffers, BoundKernel binding
// validation (error paths must throw, never UB), fused single-RHS solves
// against the sequential references, batched solves pinned bit-for-bit to
// sequential single-RHS solves, the IluApplyKernel composition, and the
// batch-aware ExecState plumbing.

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "kernel/bound_kernel.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/parallel_triangular.hpp"
#include "sparse/ilu.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"

namespace rtl {
namespace {

/// ILU(0) factors of the 5-PT problem: the canonical lower/upper pair.
struct Factored {
  LinearSystem system;
  IluFactorization ilu;

  Factored() : system(make_5pt().system), ilu(system.a, 0) {
    ilu.factor(system.a);
  }
};

std::shared_ptr<const Plan> lower_plan_for(ThreadTeam& team,
                                           const IluFactorization& ilu,
                                           DoconsiderOptions opts = {}) {
  return std::make_shared<const Plan>(
      team, lower_solve_dependences(ilu.lower()), opts);
}

std::shared_ptr<const Plan> upper_plan_for(ThreadTeam& team,
                                           const IluFactorization& ilu,
                                           DoconsiderOptions opts = {}) {
  return std::make_shared<const Plan>(
      team, upper_solve_dependences(ilu.upper()), opts);
}

TEST(BatchViewTest, RowMajorLayoutAndAccessors) {
  BatchBuffer buf(3, 2);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      buf.view().at(i, j) = 10.0 * i + j;
    }
  }
  const ConstBatchView v = buf.view();
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.width(), 2);
  // Row-major: row i's strip is contiguous.
  EXPECT_EQ(v.row(1)[0], 10.0);
  EXPECT_EQ(v.row(1)[1], 11.0);
  EXPECT_EQ(v.data()[2 * 2 + 1], 21.0);

  std::vector<real_t> col(3);
  buf.get_column(1, col);
  EXPECT_EQ(col, (std::vector<real_t>{1.0, 11.0, 21.0}));
  buf.set_column(0, std::vector<real_t>{7.0, 8.0, 9.0});
  EXPECT_EQ(buf.view().at(2, 0), 9.0);
  EXPECT_EQ(buf.view().at(2, 1), 21.0);
}

TEST(BatchViewTest, SingleVectorIsAWidthOneBatch) {
  std::vector<real_t> vec{1.0, 2.0, 3.0};
  const ConstBatchView v{std::span<const real_t>(vec)};
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.width(), 1);
  EXPECT_EQ(v.at(2, 0), 3.0);
}

// ---------------------------------------------------------------------
// Binding validation: every mismatch throws std::invalid_argument.
// ---------------------------------------------------------------------

TEST(BoundKernelErrors, NullPlanThrows) {
  Factored f;
  EXPECT_THROW((void)BoundKernel::lower(nullptr, f.ilu.lower()),
               std::invalid_argument);
  EXPECT_THROW((void)BoundKernel::upper(nullptr, f.ilu.upper()),
               std::invalid_argument);
}

TEST(BoundKernelErrors, DimensionMismatchThrows) {
  ThreadTeam team(2);
  Factored f;
  // Plan for the 5-PT lower graph, matrix from a different-size problem.
  const auto plan = lower_plan_for(team, f.ilu);
  const auto other_sys = make_spe5().system;
  IluFactorization other(other_sys.a, 0);
  ASSERT_NE(other.size(), f.ilu.size());
  EXPECT_THROW((void)BoundKernel::lower(plan, other.lower()),
               std::invalid_argument);
  const auto uplan = upper_plan_for(team, f.ilu);
  EXPECT_THROW((void)BoundKernel::upper(uplan, other.upper()),
               std::invalid_argument);
}

TEST(BoundKernelErrors, NonSquareMatrixThrows) {
  ThreadTeam team(2);
  Factored f;
  const auto plan = lower_plan_for(team, f.ilu);
  // 2 x 3 matrix with one strictly-lower entry.
  const CsrMatrix rect(2, 3, {0, 0, 1}, {0}, {1.0});
  EXPECT_THROW((void)BoundKernel::lower(plan, rect), std::invalid_argument);
  EXPECT_THROW((void)BoundKernel::upper(plan, rect), std::invalid_argument);
}

TEST(BoundKernelErrors, WrongTriangularityThrows) {
  ThreadTeam team(2);
  Factored f;
  // The upper factor is not strictly lower triangular and vice versa.
  const auto lplan = lower_plan_for(team, f.ilu);
  EXPECT_THROW((void)BoundKernel::lower(lplan, f.ilu.upper()),
               std::invalid_argument);
  const auto uplan = upper_plan_for(team, f.ilu);
  EXPECT_THROW((void)BoundKernel::upper(uplan, f.ilu.lower()),
               std::invalid_argument);
}

TEST(BoundKernelErrors, UpperWithMissingDiagonalThrows) {
  ThreadTeam team(2);
  // Row 0 stores no diagonal entry: the kernel would divide by an
  // off-diagonal value, so binding must reject the structure.
  const CsrMatrix bad(2, 2, {0, 1, 2}, {1, 1}, {2.0, 3.0});
  const auto plan = std::make_shared<const Plan>(
      team, upper_solve_dependences(
                CsrMatrix(2, 2, {0, 2, 3}, {0, 1, 1}, {1.0, 2.0, 3.0})));
  EXPECT_THROW((void)BoundKernel::upper(plan, bad), std::invalid_argument);
}

TEST(BoundKernelErrors, PlanForDifferentStructureThrows) {
  ThreadTeam team(2);
  Factored f;
  // A plan whose dependence-edge count cannot match the matrix proves it
  // was built for a different structure: drop the last row's entries.
  const CsrMatrix& low = f.ilu.lower();
  std::vector<index_t> ptr(low.row_ptr().begin(), low.row_ptr().end());
  const index_t last = low.rows() - 1;
  const index_t kept = ptr[static_cast<std::size_t>(last)];
  ptr[static_cast<std::size_t>(last) + 1] = kept;
  std::vector<index_t> col(low.col_idx().begin(),
                           low.col_idx().begin() + kept);
  std::vector<real_t> val(low.values().begin(), low.values().begin() + kept);
  const CsrMatrix truncated(low.rows(), low.cols(), std::move(ptr),
                            std::move(col), std::move(val));
  const auto plan = lower_plan_for(team, f.ilu);
  ASSERT_NE(plan->graph().num_edges(), truncated.nnz());
  EXPECT_THROW((void)BoundKernel::lower(plan, truncated),
               std::invalid_argument);
}

TEST(IluApplyKernelErrors, SwappedKindsThrow) {
  ThreadTeam team(2);
  Factored f;
  auto make_lower = [&] {
    return BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower());
  };
  auto make_upper = [&] {
    return BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper());
  };
  EXPECT_THROW(IluApplyKernel(make_upper(), make_lower()),
               std::invalid_argument);
  EXPECT_THROW(IluApplyKernel(make_lower(), make_lower()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Correctness: fused kernels against the sequential references.
// ---------------------------------------------------------------------

class KernelSolveTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelSolveTest, SingleRhsMatchesSequentialReference) {
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  auto lk = BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower());
  auto uk = BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper());

  std::vector<real_t> ref(static_cast<std::size_t>(n));
  std::vector<real_t> got(static_cast<std::size_t>(n));
  solve_lower_unit(f.ilu.lower(), f.system.rhs, ref);
  lk.solve(team, f.system.rhs, got);
  EXPECT_EQ(got, ref);

  solve_upper(f.ilu.upper(), f.system.rhs, ref);
  uk.solve(team, f.system.rhs, got);
  EXPECT_EQ(got, ref);
}

TEST_P(KernelSolveTest, BatchedSolveIsBitForBitKSingleSolves) {
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
        ExecutionPolicy::kPointToPoint}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    auto lk = BoundKernel::lower(lower_plan_for(team, f.ilu, opts),
                                 f.ilu.lower());
    auto uk = BoundKernel::upper(upper_plan_for(team, f.ilu, opts),
                                 f.ilu.upper());
    // Widths: 1 takes the single-RHS dispatch; 2 is the service's commonest
    // coalesced width; 3 leaves a scalar remainder after the vector loop;
    // 8 and 40 fill whole vectors; 64 is the default
    // ServiceConfig::max_batch, the widest batch the service sends.
    for (const index_t k : {1, 2, 3, 8, 40, 64}) {
      BatchBuffer rhs(n, k), got(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(f.system.rhs);
        for (index_t i = 0; i < n; ++i) {
          col[static_cast<std::size_t>(i)] *=
              1.0 + 0.125 * static_cast<real_t>(j + i % 3);
        }
        rhs.set_column(j, col);
      }
      for (auto* kern : {&lk, &uk}) {
        kern->solve(team, rhs.view(), got.view());
        std::vector<real_t> colr(static_cast<std::size_t>(n));
        std::vector<real_t> colx(static_cast<std::size_t>(n));
        for (index_t j = 0; j < k; ++j) {
          rhs.get_column(j, colr);
          kern->solve(team, colr, colx);
          for (index_t i = 0; i < n; ++i) {
            ASSERT_EQ(got.view().at(i, j),
                      colx[static_cast<std::size_t>(i)])
                << "exec=" << static_cast<int>(exec) << " kind="
                << static_cast<int>(kern->kind()) << " k=" << k
                << " col=" << j << " row=" << i;
          }
        }
      }
    }
  }
}

TEST_P(KernelSolveTest, IluApplyKernelMatchesSequentialLUSolve) {
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  IluApplyKernel apply(
      BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower()),
      BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper()));

  std::vector<real_t> tmp(static_cast<std::size_t>(n));
  std::vector<real_t> ref(static_cast<std::size_t>(n));
  std::vector<real_t> got(static_cast<std::size_t>(n));
  solve_lower_unit(f.ilu.lower(), f.system.rhs, tmp);
  solve_upper(f.ilu.upper(), tmp, ref);
  apply.apply(team, f.system.rhs, got);
  EXPECT_EQ(got, ref);

  // Batched apply equals column-by-column applies (after a single apply
  // already used the scratch buffer, exercising the regrow path).
  const index_t k = 4;
  BatchBuffer r(n, k), z(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(f.system.rhs);
    for (auto& v : col) v *= static_cast<real_t>(j + 1);
    r.set_column(j, col);
  }
  apply.apply(team, r.view(), z.view());
  std::vector<real_t> colr(static_cast<std::size_t>(n));
  for (index_t j = 0; j < k; ++j) {
    r.get_column(j, colr);
    apply.apply(team, colr, got);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z.view().at(i, j), got[static_cast<std::size_t>(i)]);
    }
  }
}

TEST_P(KernelSolveTest, RefactorizationIsVisibleThroughBoundKernels) {
  // The kernel binds value pointers once; factor() rewrites values in
  // place, so a re-factorization must be picked up without rebinding.
  Runtime rt(GetParam());
  const auto prob = make_5pt();
  IluPreconditioner precond(rt, prob.system.a, 0);
  precond.factor(rt.team(), prob.system.a);
  const index_t n = prob.system.a.rows();
  std::vector<real_t> z1(static_cast<std::size_t>(n));
  precond.apply(rt.team(), prob.system.rhs, z1);

  // Scale the system's values (same structure), re-factor, re-apply.
  CsrMatrix scaled = prob.system.a;
  for (auto& v : scaled.values()) v *= 2.0;
  precond.factor(rt.team(), scaled);
  std::vector<real_t> z2(static_cast<std::size_t>(n));
  precond.apply(rt.team(), prob.system.rhs, z2);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(z2[static_cast<std::size_t>(i)],
              z1[static_cast<std::size_t>(i)] / 2.0);
  }
}

TEST(KernelConcurrency, TwoTeamsSolveThroughOneKernelSimultaneously) {
  // Like the shared-plan concurrency contract (plan_test): per-execution
  // state comes from the plan's pool, so one BoundKernel may serve
  // concurrent solves from distinct same-size teams on distinct output
  // vectors. Runs under the TSan CI job.
  constexpr int kTeamSize = 2;
  constexpr int kRounds = 3;
  Factored f;
  const index_t n = f.ilu.size();
  ThreadTeam team_a(kTeamSize);
  ThreadTeam team_b(kTeamSize);
  auto kernel =
      BoundKernel::lower(lower_plan_for(team_a, f.ilu), f.ilu.lower());

  std::vector<real_t> expected(static_cast<std::size_t>(n));
  solve_lower_unit(f.ilu.lower(), f.system.rhs, expected);

  std::vector<real_t> ya(static_cast<std::size_t>(n));
  std::vector<real_t> yb(static_cast<std::size_t>(n));
  const auto run = [&](ThreadTeam& team, std::vector<real_t>& y) {
    for (int round = 0; round < kRounds; ++round) {
      kernel.solve(team, f.system.rhs, y);
    }
  };
  std::thread worker([&] { run(team_b, yb); });
  run(team_a, ya);
  worker.join();

  EXPECT_EQ(ya, expected);
  EXPECT_EQ(yb, expected);
}

TEST(KernelConcurrency, TwoTeamsBindTheBatchedKernelsOnce) {
  // A solver binds its batched kernels through the Runtime's cache on the
  // first batched solve. Two teams that make that first solve at the same
  // time must bind them once — two inspector runs and no cache hit — and
  // both get the sequential answer. Runs under the TSan CI job.
  constexpr int kTeamSize = 2;
  constexpr index_t kWidth = 4;
  Factored f;
  const index_t n = f.ilu.size();
  const auto nz = static_cast<std::size_t>(n);
  Runtime rt(kTeamSize, 64, "");
  ParallelTriangularSolver solver(rt, f.ilu);
  const auto before = rt.plan_cache_counters();

  BatchBuffer rhs(n, kWidth);
  std::vector<std::vector<real_t>> expected(kWidth, std::vector<real_t>(nz));
  for (index_t j = 0; j < kWidth; ++j) {
    std::vector<real_t> col(f.system.rhs);
    for (auto& v : col) v *= 1.0 + 0.5 * static_cast<real_t>(j);
    rhs.set_column(j, col);
    solve_lower_unit(f.ilu.lower(), col,
                     expected[static_cast<std::size_t>(j)]);
  }

  ThreadTeam team_a(kTeamSize);
  ThreadTeam team_b(kTeamSize);
  BatchBuffer ya(n, kWidth), yb(n, kWidth);
  std::latch start(2);
  std::thread worker([&] {
    start.arrive_and_wait();
    solver.solve_lower(team_b, rhs.view(), yb.view());
  });
  start.arrive_and_wait();
  solver.solve_lower(team_a, rhs.view(), ya.view());
  worker.join();

  const auto after = rt.plan_cache_counters();
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.hits, before.hits);
  for (index_t j = 0; j < kWidth; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const real_t want =
          expected[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      ASSERT_EQ(ya.view().at(i, j), want) << "team a col=" << j;
      ASSERT_EQ(yb.view().at(i, j), want) << "team b col=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, KernelSolveTest, ::testing::Values(1, 2, 4));

TEST(PreconditionerBatchTest, DefaultBatchedApplyLoopsSingleApplies) {
  // A preconditioner that does not override the batched apply still
  // produces column-wise-identical results through the default loop.
  class Jacobi : public Preconditioner {
   public:
    explicit Jacobi(std::vector<real_t> d) : diag_(std::move(d)) {}
    void apply(ThreadTeam&, std::span<const real_t> r,
               std::span<real_t> z) override {
      for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / diag_[i];
    }

   private:
    std::vector<real_t> diag_;
  };

  ThreadTeam team(2);
  const auto sys = make_5pt().system;
  const index_t n = sys.a.rows();
  Jacobi m(sys.a.diagonal());
  const index_t k = 3;
  BatchBuffer r(n, k), z(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(sys.rhs);
    for (auto& v : col) v += static_cast<real_t>(j);
    r.set_column(j, col);
  }
  m.apply_batch(team, r.view(), z.view());
  std::vector<real_t> colr(static_cast<std::size_t>(n));
  std::vector<real_t> colz(static_cast<std::size_t>(n));
  for (index_t j = 0; j < k; ++j) {
    r.get_column(j, colr);
    m.apply(team, colr, colz);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z.view().at(i, j), colz[static_cast<std::size_t>(i)]);
    }
  }
}

}  // namespace
}  // namespace rtl
