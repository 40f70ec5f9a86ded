// Tests for the SpMV kernel family: bind-once pointer resolution pinned
// bit-for-bit to the free-function `par_spmv` and the sequential
// `CsrMatrix::spmv`, batched (vectorized-lane) applies pinned to k scalar
// single applies, and the float-storage mixed-precision path against its
// documented error model (double accumulation means the only float
// rounding is the final store: |y_f - y_d| <= u_f * |y_d|).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernel/batch.hpp"
#include "kernel/spmv_kernel.hpp"
#include "sparse/parallel_ops.hpp"
#include "workload/stencil.hpp"

namespace rtl {
namespace {

/// Deterministic non-trivial x: varies in magnitude and sign per entry.
std::vector<real_t> ramp(index_t n, real_t scale) {
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        scale * (1.0 + 0.125 * static_cast<real_t>(i % 7)) *
        ((i % 2 == 0) ? 1.0 : -1.0);
  }
  return x;
}

class SpMVKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(SpMVKernelTest, SingleApplyMatchesParSpmvAndSequentialBitForBit) {
  ThreadTeam team(GetParam());
  const auto sys = five_point(20, 17);
  const auto kernel = SpMVKernel::bind(sys.a);
  EXPECT_EQ(kernel.rows(), sys.a.rows());
  EXPECT_EQ(kernel.cols(), sys.a.cols());
  EXPECT_EQ(kernel.nnz(), sys.a.nnz());

  const auto x = ramp(sys.a.cols(), 3.0);
  std::vector<real_t> y_kernel(static_cast<std::size_t>(sys.a.rows()));
  std::vector<real_t> y_free(y_kernel.size());
  std::vector<real_t> y_seq(y_kernel.size());
  kernel.apply(team, x, y_kernel);
  par_spmv(team, sys.a, x, y_free);
  sys.a.spmv(x, y_seq);
  // Same per-row accumulation order everywhere: bit-for-bit.
  EXPECT_EQ(y_kernel, y_free);
  EXPECT_EQ(y_kernel, y_seq);
}

TEST_P(SpMVKernelTest, BatchedApplyIsBitForBitKSingleApplies) {
  // The batched lanes run under `omp simd`, the single apply is a scalar
  // row sum: same per-lane accumulation order, so identical bits. The
  // second round rewrites the bound values in place (a re-factorization
  // stand-in): the kernel reads values straight from the CSR, so both
  // paths must see the new values with no rebind.
  ThreadTeam team(GetParam());
  auto sys = five_point(13, 19);
  const auto n = sys.a.rows();
  const auto kernel = SpMVKernel::bind(sys.a);
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      for (auto& v : sys.a.values()) v *= -1.5;
    }
    for (const index_t k : {1, 3, 8, 40}) {  // 40: two lane chunks
      BatchBuffer x(n, k), y(n, k);
      for (index_t j = 0; j < k; ++j) {
        x.set_column(j, ramp(n, 1.0 + static_cast<real_t>(j)));
      }
      kernel.apply(team, x.view(), y.view());
      std::vector<real_t> colx(static_cast<std::size_t>(n));
      std::vector<real_t> coly(static_cast<std::size_t>(n));
      std::vector<real_t> seq(static_cast<std::size_t>(n));
      for (index_t j = 0; j < k; ++j) {
        x.get_column(j, colx);
        kernel.apply(team, colx, coly);
        sys.a.spmv(colx, seq);
        EXPECT_EQ(coly, seq) << "round=" << round << " k=" << k;
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(y.view().at(i, j), coly[static_cast<std::size_t>(i)])
              << "round=" << round << " k=" << k << " col=" << j
              << " row=" << i;
        }
      }
    }
  }
}

TEST_P(SpMVKernelTest, FloatBatchedApplySatisfiesSingleRoundingModel) {
  // The mixed path accumulates every row sum in double and rounds once on
  // the store, so against the double apply of the *promoted* float input
  // the error is a single float rounding: |y_f - y_d| <= u_f |y_d| with
  // u_f = 2^-24 (docs/ARCHITECTURE.md "Mixed precision"). Tested at 2x
  // the bound for the accumulated double-sum ulps.
  ThreadTeam team(GetParam());
  const auto sys = five_point(17, 17);
  const index_t n = sys.a.rows();
  const index_t k = 5;
  const auto kernel = SpMVKernel::bind(sys.a);

  BasicBatchBuffer<float> xf(n, k), yf(n, k);
  BatchBuffer xd(n, k), yd(n, k);
  for (index_t j = 0; j < k; ++j) {
    const auto col = ramp(n, 1.0 + 0.5 * static_cast<real_t>(j));
    for (index_t i = 0; i < n; ++i) {
      const float v = static_cast<float>(col[static_cast<std::size_t>(i)]);
      xf.view().at(i, j) = v;
      xd.view().at(i, j) = static_cast<real_t>(v);  // promoted float input
    }
  }
  kernel.apply(team, xf.view(), yf.view());
  kernel.apply(team, xd.view(), yd.view());
  constexpr double uf = 1.0 / 16777216.0;  // 2^-24
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double want = yd.view().at(i, j);
      const double got = static_cast<double>(yf.view().at(i, j));
      ASSERT_LE(std::abs(got - want),
                2.0 * uf * std::max(1.0, std::abs(want)))
          << "col=" << j << " row=" << i;
    }
  }
}

TEST(SpMVKernelShape, RectangularMatrixApplies) {
  // 2x3: row 0 = [1 0 2], row 1 = [0 3 0].
  ThreadTeam team(2);
  const CsrMatrix a(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const auto kernel = SpMVKernel::bind(a);
  const std::vector<real_t> x = {1.0, 2.0, 3.0};
  std::vector<real_t> y(2);
  kernel.apply(team, x, y);
  EXPECT_EQ(y[0], 7.0);
  EXPECT_EQ(y[1], 6.0);

  const index_t k = 4;
  BatchBuffer bx(3, k), by(2, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      bx.view().at(i, j) = x[static_cast<std::size_t>(i)] *
                           static_cast<real_t>(j + 1);
    }
  }
  kernel.apply(team, bx.view(), by.view());
  for (index_t j = 0; j < k; ++j) {
    EXPECT_EQ(by.view().at(0, j), 7.0 * static_cast<real_t>(j + 1));
    EXPECT_EQ(by.view().at(1, j), 6.0 * static_cast<real_t>(j + 1));
  }
}

TEST(SpMVKernelShape, BytesModelCountsStructureOncePerApply) {
  const auto sys = five_point(10, 10);
  const auto kernel = SpMVKernel::bind(sys.a);
  const auto n = static_cast<std::size_t>(sys.a.rows());
  const auto nz = static_cast<std::size_t>(sys.a.nnz());
  const std::size_t structure =
      (n + 1 + nz) * sizeof(index_t) + nz * sizeof(real_t);
  EXPECT_EQ(kernel.bytes_per_apply(1),
            structure + (n + nz) * sizeof(real_t));
  EXPECT_EQ(kernel.bytes_per_apply(16),
            structure + (n + nz) * 16 * sizeof(real_t));
  // Float storage halves only the per-lane traffic, not the structure.
  EXPECT_EQ(kernel.bytes_per_apply(16, sizeof(float)),
            structure + (n + nz) * 16 * sizeof(float));
  EXPECT_LT(kernel.bytes_per_apply(16, sizeof(float)),
            kernel.bytes_per_apply(16));
}

INSTANTIATE_TEST_SUITE_P(Teams, SpMVKernelTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace rtl
