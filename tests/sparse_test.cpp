// Tests for CSR matrices, COO assembly, sequential triangular solves,
// and parallel BLAS kernels.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>

#include "runtime/thread_team.hpp"
#include "sparse/coo_builder.hpp"
#include "sparse/csr.hpp"
#include "sparse/parallel_ops.hpp"
#include "sparse/triangular.hpp"

namespace rtl {
namespace {

CsrMatrix small_matrix() {
  // [ 2 0 1 ]
  // [ 0 3 0 ]
  // [ 4 0 5 ]
  return CsrMatrix(3, 3, {0, 2, 3, 5}, {0, 2, 1, 0, 2}, {2, 1, 3, 4, 5});
}

TEST(CsrMatrixTest, BasicAccessors) {
  const auto a = small_matrix();
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 5);
  ASSERT_EQ(a.row_cols(0).size(), 2u);
  EXPECT_EQ(a.row_cols(0)[1], 2);
  EXPECT_DOUBLE_EQ(a.row_vals(2)[0], 4.0);
}

TEST(CsrMatrixTest, AtFindsStoredAndMissingEntries) {
  const auto a = small_matrix();
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 5.0);
}

TEST(CsrMatrixTest, SpmvMatchesDense) {
  const auto a = small_matrix();
  const std::vector<real_t> x = {1.0, 2.0, 3.0};
  std::vector<real_t> y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1 + 1.0 * 3);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1 + 5.0 * 3);
}

TEST(CsrMatrixTest, TriangularSplit) {
  const auto a = small_matrix();
  const auto l = a.strict_lower();
  const auto u = a.upper_with_diag();
  EXPECT_EQ(l.nnz(), 1);
  EXPECT_DOUBLE_EQ(l.at(2, 0), 4.0);
  EXPECT_EQ(u.nnz(), 4);
  EXPECT_DOUBLE_EQ(u.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(u.at(2, 2), 5.0);
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  const auto d = small_matrix().diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  const auto a = small_matrix();
  const auto att = a.transposed().transposed();
  ASSERT_EQ(att.nnz(), a.nnz());
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(att.at(i, j), a.at(i, j));
    }
  }
}

TEST(CsrMatrixTest, TransposeSwapsEntries) {
  const auto t = small_matrix().transposed();
  EXPECT_DOUBLE_EQ(t.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 1.0);
}

TEST(CsrMatrixTest, RectangularTranspose) {
  // 2x3 matrix: [1 0 2; 0 3 0]
  const CsrMatrix a(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 3.0);
}

TEST(CsrMatrixTest, RectangularSpmv) {
  const CsrMatrix a(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const std::vector<real_t> x = {1.0, 2.0, 3.0};
  std::vector<real_t> y(2);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrMatrixTest, EmptyRowsAreHandled) {
  const CsrMatrix a(3, 3, {0, 0, 1, 1}, {2}, {5.0});
  EXPECT_TRUE(a.row_cols(0).empty());
  EXPECT_TRUE(a.row_cols(2).empty());
  const std::vector<real_t> x = {1.0, 1.0, 1.0};
  std::vector<real_t> y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(CsrMatrixTest, RejectsMalformedInput) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(1, 1, {0, 1}, {3}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 0}, {1.0, 2.0}),
               std::invalid_argument);  // unsorted columns
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}),
               std::invalid_argument);  // duplicate column
}

TEST(CooBuilderTest, BuildsSortedCsr) {
  CooBuilder coo(2, 3);
  coo.add(1, 2, 5.0);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 2.0);
  const auto a = coo.build();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 5.0);
}

TEST(CooBuilderTest, SumsDuplicates) {
  CooBuilder coo(1, 1);
  coo.add(0, 0, 1.5);
  coo.add(0, 0, 2.5);
  const auto a = coo.build();
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
}

TEST(CooBuilderTest, RejectsOutOfRange) {
  CooBuilder coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(coo.add(0, -1, 1.0), std::out_of_range);
}

TEST(CooBuilderTest, EmptyMatrix) {
  CooBuilder coo(3, 3);
  const auto a = coo.build();
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.rows(), 3);
}

TEST(TriangularTest, LowerUnitSolveMatchesHandComputation) {
  // L = I + strict lower [ .  .  . ; 2  .  . ; 1  3  . ]
  const CsrMatrix lower(3, 3, {0, 0, 1, 3}, {0, 0, 1}, {2.0, 1.0, 3.0});
  const std::vector<real_t> rhs = {1.0, 4.0, 10.0};
  std::vector<real_t> y(3);
  solve_lower_unit(lower, rhs, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0 - 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(y[2], 10.0 - 1.0 * 1.0 - 3.0 * 2.0);
}

TEST(TriangularTest, UpperSolveMatchesHandComputation) {
  // U = [ 2 1 0 ; 0 4 2 ; 0 0 5 ]
  const CsrMatrix upper(3, 3, {0, 2, 4, 5}, {0, 1, 1, 2, 2},
                        {2.0, 1.0, 4.0, 2.0, 5.0});
  const std::vector<real_t> rhs = {5.0, 14.0, 10.0};
  std::vector<real_t> y(3);
  solve_upper(upper, rhs, y);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  EXPECT_DOUBLE_EQ(y[1], (14.0 - 2.0 * 2.0) / 4.0);
  EXPECT_DOUBLE_EQ(y[0], (5.0 - 1.0 * y[1]) / 2.0);
}

TEST(TriangularTest, UpperSolveThrowsOnZeroDiagonal) {
  const CsrMatrix upper(2, 2, {0, 1, 2}, {1, 1}, {1.0, 1.0});
  const std::vector<real_t> rhs = {1.0, 1.0};
  std::vector<real_t> y(2);
  EXPECT_THROW(solve_upper(upper, rhs, y), std::runtime_error);
}

TEST(TriangularTest, LowerDependencesMatchStructure) {
  const CsrMatrix lower(3, 3, {0, 0, 1, 3}, {0, 0, 1}, {2.0, 1.0, 3.0});
  const auto g = lower_solve_dependences(lower);
  EXPECT_TRUE(g.deps(0).empty());
  ASSERT_EQ(g.deps(1).size(), 1u);
  EXPECT_EQ(g.deps(1)[0], 0);
  ASSERT_EQ(g.deps(2).size(), 2u);
  EXPECT_TRUE(g.is_forward_only());
}

TEST(TriangularTest, LowerDependencesRejectUpperEntries) {
  const CsrMatrix notlower(2, 2, {0, 1, 1}, {1}, {1.0});
  EXPECT_THROW(lower_solve_dependences(notlower), std::invalid_argument);
}

TEST(TriangularTest, UpperDependencesReverseOrder) {
  // U (3x3) with entries (0,1) and (1,2): iteration 0 handles row 2 (no
  // deps), iteration 1 handles row 1 (depends on row 2 => iteration 0).
  const CsrMatrix upper(3, 3, {0, 2, 4, 5}, {0, 1, 1, 2, 2},
                        {1.0, 1.0, 1.0, 1.0, 1.0});
  const auto g = upper_solve_dependences(upper);
  EXPECT_TRUE(g.is_forward_only());
  EXPECT_TRUE(g.deps(0).empty());
  ASSERT_EQ(g.deps(1).size(), 1u);
  EXPECT_EQ(g.deps(1)[0], 0);
  ASSERT_EQ(g.deps(2).size(), 1u);
  EXPECT_EQ(g.deps(2)[0], 1);
}

class ParallelOpsTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelOpsTest, AxpyMatchesSequential) {
  ThreadTeam team(GetParam());
  const index_t n = 1001;
  std::vector<real_t> x(static_cast<std::size_t>(n)), y(x.size()),
      yref(x.size());
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = 0.5 * i;
    y[static_cast<std::size_t>(i)] = yref[static_cast<std::size_t>(i)] =
        1.0 - 0.25 * i;
  }
  par_axpy(team, 2.0, x, y);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                     yref[static_cast<std::size_t>(i)] +
                         2.0 * x[static_cast<std::size_t>(i)]);
  }
}

TEST_P(ParallelOpsTest, DotMatchesSequential) {
  ThreadTeam team(GetParam());
  const index_t n = 777;
  std::vector<real_t> x(static_cast<std::size_t>(n)), y(x.size());
  real_t expected = 0.0;
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = std::sin(0.01 * i);
    y[static_cast<std::size_t>(i)] = std::cos(0.01 * i);
    expected +=
        x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(par_dot(team, x, y), expected, 1e-9);
}

TEST_P(ParallelOpsTest, NormMatchesSequential) {
  ThreadTeam team(GetParam());
  std::vector<real_t> x = {3.0, 4.0};
  EXPECT_NEAR(par_norm2(team, x), 5.0, 1e-12);
}

TEST_P(ParallelOpsTest, CopyFillScale) {
  ThreadTeam team(GetParam());
  std::vector<real_t> a(100, 0.0), b(100);
  par_fill(team, 3.0, a);
  for (const real_t v : a) EXPECT_DOUBLE_EQ(v, 3.0);
  par_copy(team, a, b);
  for (const real_t v : b) EXPECT_DOUBLE_EQ(v, 3.0);
  par_scale(team, -2.0, b);
  for (const real_t v : b) EXPECT_DOUBLE_EQ(v, -6.0);
}

TEST_P(ParallelOpsTest, XpbyMatchesSequential) {
  ThreadTeam team(GetParam());
  std::vector<real_t> x = {1.0, 2.0, 3.0};
  std::vector<real_t> y = {10.0, 20.0, 30.0};
  par_xpby(team, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0 + 10.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0 + 15.0);
}

TEST_P(ParallelOpsTest, SpmvMatchesSequential) {
  ThreadTeam team(GetParam());
  const auto a = small_matrix();
  const std::vector<real_t> x = {1.0, -1.0, 2.0};
  std::vector<real_t> y_par(3), y_seq(3);
  a.spmv(x, y_seq);
  par_spmv(team, a, x, y_par);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y_par[i], y_seq[i]);
}

TEST_P(ParallelOpsTest, TeamOrderDotIsParDotBitForBit) {
  // The sequential twin must reproduce par_dot's rounding on a team of
  // the same size exactly. Magnitudes spread over 2^±30 make any other
  // summation order round differently; n = 3 leaves most blocks empty.
  const int procs = GetParam();
  ThreadTeam team(procs);
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<real_t> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  const auto bits = [](real_t v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t n : {0, 3, 777}) {
    std::vector<real_t> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::ldexp(mantissa(rng), exponent(rng));
      y[i] = std::ldexp(mantissa(rng), exponent(rng));
    }
    EXPECT_EQ(bits(team_order_dot(x, y, procs)), bits(par_dot(team, x, y)))
        << "n=" << n;
    EXPECT_EQ(bits(team_order_norm2(x, procs)), bits(par_norm2(team, x)))
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, ParallelOpsTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace rtl
