// Tests for the SpMV kernel family: bind-once pointer resolution pinned
// bit-for-bit to the sequential `CsrMatrix::spmv`, and batched
// (vectorized-lane) applies pinned to k scalar single applies.

#include <gtest/gtest.h>

#include <vector>

#include "kernel/batch.hpp"
#include "kernel/spmv_kernel.hpp"
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

TEST_P(SpMVKernelTest, SingleApplyMatchesSequentialBitForBit) {
  ThreadTeam team(GetParam());
  const auto sys = five_point(20, 17);
  const auto kernel = SpMVKernel::bind(sys.a);
  EXPECT_EQ(kernel.rows(), sys.a.rows());
  EXPECT_EQ(kernel.cols(), sys.a.cols());
  EXPECT_EQ(kernel.nnz(), sys.a.nnz());

  const auto x = ramp(sys.a.cols(), 3.0);
  std::vector<real_t> y_kernel(static_cast<std::size_t>(sys.a.rows()));
  std::vector<real_t> y_seq(y_kernel.size());
  kernel.apply(team, x, y_kernel);
  sys.a.spmv(x, y_seq);
  // Same per-row accumulation order: bit-for-bit.
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
    // Widths: 1 is the narrowest batch; 2 is the service's commonest
    // coalesced width; 3 leaves a scalar remainder after the vector loop;
    // 8 and 40 fill whole vectors; 64 is the default
    // ServiceConfig::max_batch, the widest batch the service sends.
    for (const index_t k : {1, 2, 3, 8, 40, 64}) {
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
}

INSTANTIATE_TEST_SUITE_P(Teams, SpMVKernelTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace rtl
