// Tests for the kernel layer: batch views/buffers, BoundKernel binding
// validation (error paths must throw, never UB), fused single-RHS solves
// against the sequential references, batched solves pinned bit-for-bit to
// sequential single-RHS solves, the IluApplyKernel composition, and the
// batch-aware ExecState plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "kernel/bound_kernel.hpp"
#include "solver/ilu_preconditioner.hpp"
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

TEST(BatchViewTest, FloatBuffersAndPrecisionConversionRoundTrip) {
  // The storage scalar is a template parameter: float batches share the
  // layout and API of the double ones, and convert_batch demotes /
  // promotes elementwise. float -> double -> float is exact.
  BatchBufferF f(3, 2);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      f.view().at(i, j) = 0.5f * static_cast<float>(10 * i + j);
    }
  }
  BatchBuffer d(3, 2);
  convert_batch(static_cast<ConstBatchViewF>(f.view()), d.view());
  EXPECT_EQ(d.view().at(2, 1), 10.5);

  BatchBufferF back(3, 2);
  convert_batch(static_cast<ConstBatchView>(d.view()), back.view());
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      EXPECT_EQ(back.view().at(i, j), f.view().at(i, j));
    }
  }

  std::vector<float> col(3);
  back.get_column(1, col);
  EXPECT_EQ(col[2], 10.5f);
  back.set_column(0, std::vector<float>{1.0f, 2.0f, 3.0f});
  EXPECT_EQ(back.view().at(2, 0), 3.0f);
}

TEST(ExecStateTest, BatchWidthDefaultsToOneAndExecuteResetsIt) {
  ThreadTeam team(2);
  Factored f;
  const auto plan = lower_plan_for(team, f.ilu);
  ExecState state(*plan);
  EXPECT_EQ(state.batch_width(), 1);
  state.prepare_batch(8);
  EXPECT_EQ(state.batch_width(), 8);
  // Plain execute is a width-1 execution by contract: the width is never
  // a sticky leftover (the pipelined executor sizes its panel
  // decomposition and pending-counter array from it).
  plan->execute(team, [](index_t) {}, state);
  EXPECT_EQ(state.batch_width(), 1);
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
        ExecutionPolicy::kSelfScheduled, ExecutionPolicy::kWindowed,
        ExecutionPolicy::kPointToPoint}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    auto lk = BoundKernel::lower(lower_plan_for(team, f.ilu, opts),
                                 f.ilu.lower());
    auto uk = BoundKernel::upper(upper_plan_for(team, f.ilu, opts),
                                 f.ilu.upper());
    for (const index_t k : {1, 3, 8}) {
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

TEST_P(KernelSolveTest, SimdAndScalarDispatchesAgreeBitForBit) {
  // The bind-time SIMD/scalar dispatch must be invisible in the results:
  // `omp simd` asserts lane independence but never reassociates within a
  // lane, so both flavors perform the identical rounded-op sequence.
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  IluApplyKernel apply(
      BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower()),
      BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper()));

  const index_t k = 16;
  BatchBuffer r(n, k), z_scalar(n, k), z_simd(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(f.system.rhs);
    for (index_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] *=
          1.0 + 0.0625 * static_cast<real_t>((i + j) % 11);
    }
    r.set_column(j, col);
  }
  apply.select_simd(false);
  EXPECT_FALSE(apply.simd_enabled());
  apply.apply(team, r.view(), z_scalar.view());
  apply.select_simd(true);
  EXPECT_EQ(apply.simd_enabled(), simd_compiled());
  apply.apply(team, r.view(), z_simd.view());
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z_simd.view().at(i, j), z_scalar.view().at(i, j))
          << "col=" << j << " row=" << i;
    }
  }
}

TEST_P(KernelSolveTest, FloatBatchedSolveTracksDoubleWithinErrorModel) {
  // Float32-storage solves accumulate in double, so per row the only
  // float rounding is the final store (plus, for the upper solve, the
  // divide). The substitution recurrence amplifies stored errors by the
  // factors' off-diagonal row sums; for the 5-pt ILU(0) factors those
  // are well below 1, so a few hundred float ulps of the result bound
  // the difference (docs/ARCHITECTURE.md "Mixed precision").
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  IluApplyKernel apply(
      BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower()),
      BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper()));

  const index_t k = 4;
  BatchBuffer rd(n, k), zd(n, k);
  BatchBufferF rf(n, k), zf(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(f.system.rhs);
    for (auto& v : col) v *= 1.0 + 0.5 * static_cast<real_t>(j);
    rd.set_column(j, col);
  }
  // Use the float-rounded rhs on both sides so the comparison isolates
  // the storage precision of the solve itself.
  convert_batch(static_cast<ConstBatchView>(rd.view()), rf.view());
  convert_batch(static_cast<ConstBatchViewF>(rf.view()), rd.view());
  apply.apply(team, rd.view(), zd.view());
  apply.apply(team, rf.view(), zf.view());

  real_t zmax = 0.0;
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      zmax = std::max(zmax, std::abs(zd.view().at(i, j)));
    }
  }
  constexpr double uf = 1.0 / 16777216.0;  // 2^-24
  const double tol = 512.0 * uf * (1.0 + zmax);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(static_cast<double>(zf.view().at(i, j)),
                  zd.view().at(i, j), tol)
          << "col=" << j << " row=" << i;
    }
  }
}

TEST_P(KernelSolveTest, IluPreconditionerMixedApplyWithinFloatTolerance) {
  // The IluPreconditioner override demotes once, runs the float-storage
  // kernel pair, and promotes once — so against the double batched apply
  // it obeys the same storage-rounding model as the kernels themselves.
  Runtime rt(GetParam());
  const auto prob = make_5pt();
  IluPreconditioner precond(rt, prob.system.a, 0);
  precond.factor(rt.team(), prob.system.a);
  const index_t n = prob.system.a.rows();
  const index_t k = 3;
  BatchBuffer r(n, k), z(n, k), zm(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(prob.system.rhs);
    for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
    r.set_column(j, col);
  }
  precond.apply_batch(rt.team(), r.view(), z.view());
  precond.apply_batch_mixed(rt.team(), r.view(), zm.view());
  real_t zmax = 0.0;
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      zmax = std::max(zmax, std::abs(z.view().at(i, j)));
    }
  }
  constexpr double uf = 1.0 / 16777216.0;
  const double tol = 1024.0 * uf * (1.0 + zmax);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(zm.view().at(i, j), z.view().at(i, j), tol)
          << "col=" << j << " row=" << i;
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

TEST_P(KernelSolveTest, LayoutDispatchMatchesGatherAndReportsBytes) {
  // The bind-time execution layout is a pure data-movement change: the
  // packed path must reproduce the gather path bit-for-bit (single and
  // batched, lower and upper, f64 and f32), its packing bytes must show
  // up in stats()/memory_footprint(), and the IluApplyKernel forwarding
  // must drive both composed kernels. Under RTL_LAYOUT=OFF builds
  // select_layout is a no-op and everything reports zero bytes.
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  auto lk = BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower());

  EXPECT_EQ(lk.layout_enabled(), layout_bind_default());
  lk.select_layout(true);
  EXPECT_EQ(lk.layout_enabled(), layout_compiled());
  lk.select_layout(false);
  EXPECT_FALSE(lk.layout_enabled());
  if (layout_compiled()) {
    ASSERT_NE(lk.layout(), nullptr);
    EXPECT_GT(lk.layout_bytes(), 0u);
    EXPECT_GT(lk.layout()->num_slabs(), 0);
  } else {
    EXPECT_EQ(lk.layout(), nullptr);
    EXPECT_EQ(lk.layout_bytes(), 0u);
  }
  // Footprint accounting: kernel stats = plan stats + packing bytes.
  const PlanStats bare = lk.plan().stats();
  const PlanStats with_layout = lk.stats();
  EXPECT_EQ(with_layout.layout_bytes, lk.layout_bytes());
  EXPECT_EQ(with_layout.bytes, bare.bytes + lk.layout_bytes());
  EXPECT_EQ(lk.memory_footprint(),
            lk.plan().memory_footprint() + lk.layout_bytes());

  IluApplyKernel apply(
      std::move(lk),
      BoundKernel::upper(upper_plan_for(team, f.ilu), f.ilu.upper()));
  EXPECT_EQ(apply.layout_bytes(),
            apply.lower().layout_bytes() + apply.upper().layout_bytes());

  // Single-RHS: gather vs layout, through the fused L+U apply.
  std::vector<real_t> z_gather(static_cast<std::size_t>(n));
  std::vector<real_t> z_layout(static_cast<std::size_t>(n));
  apply.select_layout(false);
  EXPECT_FALSE(apply.layout_enabled());
  apply.apply(team, f.system.rhs, z_gather);
  apply.select_layout(true);
  EXPECT_EQ(apply.layout_enabled(), layout_compiled());
  EXPECT_EQ(apply.lower().layout_enabled(), apply.upper().layout_enabled());
  apply.apply(team, f.system.rhs, z_layout);
  EXPECT_EQ(z_layout, z_gather);

  // Batched f64 and f32: the layout composes with the lane dispatch and
  // the storage scalar — identical per-lane op order, identical bits.
  const index_t k = 8;
  BatchBuffer r(n, k), z_g(n, k), z_l(n, k);
  BatchBufferF rf(n, k), zf_g(n, k), zf_l(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(f.system.rhs);
    for (auto& v : col) v *= 1.0 + 0.5 * static_cast<real_t>(j);
    r.set_column(j, col);
    std::vector<float> colf(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      colf[i] = static_cast<float>(col[i]);
    }
    rf.set_column(j, colf);
  }
  apply.select_layout(false);
  apply.apply(team, r.view(), z_g.view());
  apply.apply(team, rf.view(), zf_g.view());
  apply.select_layout(true);
  apply.apply(team, r.view(), z_l.view());
  apply.apply(team, rf.view(), zf_l.view());
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z_l.view().at(i, j), z_g.view().at(i, j))
          << "f64 col=" << j << " row=" << i;
      ASSERT_EQ(zf_l.view().at(i, j), zf_g.view().at(i, j))
          << "f32 col=" << j << " row=" << i;
    }
  }
}

TEST_P(KernelSolveTest, RefreshLayoutPicksUpInPlaceValueRewrites) {
  // The layout packs value COPIES in schedule order, so an in-place
  // re-factorization (the documented value-mutability contract) must be
  // followed by refresh_layout() — IluPreconditioner::factor() does this
  // — after which the packed path matches a gather solve of the new
  // values exactly.
  ThreadTeam team(GetParam());
  Factored f;
  const index_t n = f.ilu.size();
  auto kernel =
      BoundKernel::lower(lower_plan_for(team, f.ilu), f.ilu.lower());

  // Rewrite the bound values in place (same structure), as factor() does.
  CsrMatrix scaled = f.system.a;
  for (auto& v : scaled.values()) v *= 2.0;
  f.ilu.factor(scaled);
  kernel.refresh_layout();

  std::vector<real_t> y_gather(static_cast<std::size_t>(n));
  std::vector<real_t> y_layout(static_cast<std::size_t>(n));
  kernel.select_layout(false);
  kernel.solve(team, f.system.rhs, y_gather);
  kernel.select_layout(true);
  kernel.solve(team, f.system.rhs, y_layout);
  EXPECT_EQ(y_layout, y_gather);

  // And the gather result itself reflects the refactorization.
  std::vector<real_t> expected(static_cast<std::size_t>(n));
  solve_lower_unit(f.ilu.lower(), f.system.rhs, expected);
  EXPECT_EQ(y_gather, expected);
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

  // The default mixed apply is pure storage rounding around the double
  // apply (demote r, apply in double, round z through float): the error
  // against the double apply is a couple of float ulps of each element.
  BatchBuffer zm(n, k);
  m.apply_batch_mixed(team, r.view(), zm.view());
  constexpr double uf = 1.0 / 16777216.0;
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double want = z.view().at(i, j);
      ASSERT_NEAR(zm.view().at(i, j), want,
                  8.0 * uf * std::max(1.0, std::abs(want)))
          << "col=" << j << " row=" << i;
    }
  }
}

}  // namespace
}  // namespace rtl
