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

/// The op sequence par_mgs replaces: per projection par_dot then
/// par_axpy, then par_norm2 and (when positive) par_scale.
void mgs_by_ops(ThreadTeam& team, std::span<const real_t* const> v,
                std::span<real_t> w, std::span<real_t> h) {
  const std::size_t nv = v.size();
  for (std::size_t i = 0; i < nv; ++i) {
    const std::span<const real_t> vi(v[i], w.size());
    h[i] = par_dot(team, w, vi);
    par_axpy(team, -h[i], vi, w);
  }
  h[nv] = par_norm2(team, w);
  if (h[nv] > 0.0) par_scale(team, 1.0 / h[nv], w);
}

TEST_P(ParallelOpsTest, MgsIsTheParOpSequenceBitForBit) {
  // One region with one barrier per dot must give the bits of the 2j+4
  // regions it replaces. Entries spread over 2^±30 make any other
  // summation or update order round differently; each v_i is scaled to
  // unit norm so 30 projections stay finite. n = 3 leaves most blocks
  // empty, n = 0 all of them.
  const int procs = GetParam();
  ThreadTeam team(procs);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<real_t> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  const auto bits = [](real_t v) { return std::bit_cast<std::uint64_t>(v); };
  const auto spread = [&](std::size_t n) {
    std::vector<real_t> x(n);
    for (auto& e : x) e = std::ldexp(mantissa(rng), exponent(rng));
    return x;
  };
  for (const std::size_t n : {0, 3, 777}) {
    for (const std::size_t j : {0, 1, 7, 29}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " j=" << j);
      std::vector<std::vector<real_t>> basis;
      std::vector<const real_t*> v;
      for (std::size_t i = 0; i <= j; ++i) {
        basis.push_back(spread(n));
        const real_t norm = std::sqrt(
            std::inner_product(basis[i].begin(), basis[i].end(),
                               basis[i].begin(), 0.0));
        for (auto& e : basis[i]) e /= norm;
        v.push_back(basis[i].data());
      }
      std::vector<real_t> w = spread(n);
      std::vector<real_t> w_ref = w;
      std::vector<real_t> h(j + 2), h_ref(j + 2);
      par_mgs(team, v, w, h);
      mgs_by_ops(team, v, w_ref, h_ref);
      for (std::size_t i = 0; i < h.size(); ++i) {
        ASSERT_TRUE(std::isfinite(h[i])) << "i=" << i;
        EXPECT_EQ(bits(h[i]), bits(h_ref[i])) << "i=" << i;
      }
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(bits(w[t]), bits(w_ref[t])) << "t=" << t;
      }
    }
  }

  // w in span(v): unit vectors project it to exactly 0, so the norm is 0
  // and the scale is skipped.
  const std::size_t n = 777;
  std::vector<real_t> e5(n, 0.0), e500(n, 0.0), w(n, 0.0);
  e5[5] = 1.0;
  e500[500] = 1.0;
  w[5] = 3.0;
  w[500] = -std::ldexp(1.0, -20);
  std::vector<real_t> w_ref = w;
  const std::vector<const real_t*> v = {e5.data(), e500.data()};
  std::vector<real_t> h(3), h_ref(3);
  par_mgs(team, v, w, h);
  mgs_by_ops(team, v, w_ref, h_ref);
  EXPECT_EQ(h[0], 3.0);
  EXPECT_EQ(h[1], -std::ldexp(1.0, -20));
  EXPECT_EQ(bits(h[2]), bits(0.0));
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(bits(h[i]), bits(h_ref[i])) << "i=" << i;
  }
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_EQ(bits(w[t]), bits(0.0)) << "t=" << t;
    ASSERT_EQ(bits(w[t]), bits(w_ref[t])) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, ParallelOpsTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace rtl
