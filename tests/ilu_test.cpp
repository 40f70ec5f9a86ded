// Tests for the incomplete LU factorization (symbolic + numeric).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/runtime.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "sparse/ilu.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"
#include "workload/stencil.hpp"

namespace rtl {
namespace {

/// Dense reference ILU with the given retained pattern: factor in place,
/// skipping updates outside the pattern.
std::vector<std::vector<real_t>> dense_ilu(const CsrMatrix& a,
                                           const IluFactorization& ilu) {
  const index_t n = a.rows();
  std::vector<std::vector<real_t>> m(
      static_cast<std::size_t>(n),
      std::vector<real_t>(static_cast<std::size_t>(n), 0.0));
  std::vector<std::vector<char>> in_pattern(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (index_t i = 0; i < n; ++i) {
    for (const index_t j : ilu.lower().row_cols(i)) {
      in_pattern[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
    for (const index_t j : ilu.upper().row_cols(i)) {
      in_pattern[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (in_pattern[static_cast<std::size_t>(i)]
                    [static_cast<std::size_t>(cs[k])]) {
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(cs[k])] =
            vs[k];
      }
    }
  }
  // IKJ elimination restricted to the pattern.
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = 0; k < i; ++k) {
      if (!in_pattern[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(k)]) {
        continue;
      }
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] /=
          m[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)];
      const real_t lik =
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
      for (index_t j = k + 1; j < n; ++j) {
        if (in_pattern[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)] &&
            in_pattern[static_cast<std::size_t>(k)]
                      [static_cast<std::size_t>(j)]) {
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -=
              lik *
              m[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        }
      }
    }
  }
  return m;
}

TEST(IluSymbolicTest, Level0KeepsOriginalPattern) {
  const auto sys = five_point(6, 6);
  IluFactorization ilu(sys.a, 0);
  // nnz(L) + nnz(U) == nnz(A) when A has a full diagonal and level 0.
  EXPECT_EQ(ilu.lower().nnz() + ilu.upper().nnz(), sys.a.nnz());
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    for (const index_t j : ilu.lower().row_cols(i)) {
      EXPECT_NE(sys.a.at(i, j), 0.0) << "fill introduced at level 0";
    }
  }
}

TEST(IluSymbolicTest, DiagonalAlwaysPresentAndFirstInUpper) {
  const auto sys = five_point(5, 4);
  IluFactorization ilu(sys.a, 1);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    const auto uc = ilu.upper().row_cols(i);
    ASSERT_FALSE(uc.empty());
    EXPECT_EQ(uc.front(), i);
  }
}

TEST(IluSymbolicTest, InsertsMissingStructuralDiagonal) {
  // A 2x2 matrix with no (1,1) entry.
  const CsrMatrix a(2, 2, {0, 2, 3}, {0, 1, 0}, {2.0, 1.0, 1.0});
  IluFactorization ilu(a, 0);
  const auto uc = ilu.upper().row_cols(1);
  ASSERT_FALSE(uc.empty());
  EXPECT_EQ(uc.front(), 1);
}

TEST(IluSymbolicTest, HigherLevelAddsFillMonotonically) {
  const auto sys = five_point(10, 10);
  index_t prev = 0;
  for (int level = 0; level <= 3; ++level) {
    IluFactorization ilu(sys.a, level);
    const index_t nnz = ilu.lower().nnz() + ilu.upper().nnz();
    EXPECT_GE(nnz, prev) << "level " << level;
    prev = nnz;
  }
}

TEST(IluSymbolicTest, Level1FivePointFillPattern) {
  // ILU(1) of a 5-pt operator famously adds the (i, i+nx-1) "twig" fill.
  const index_t nx = 4;
  const auto sys = five_point(nx, 4);
  IluFactorization ilu0(sys.a, 0);
  IluFactorization ilu1(sys.a, 1);
  EXPECT_GT(ilu1.upper().nnz(), ilu0.upper().nnz());
  // Row 1 eliminates with row 0 (west neighbour) generating fill at
  // column nx (north neighbour of 0): level-1 entry (1, nx).
  const auto uc = ilu1.upper().row_cols(1);
  EXPECT_TRUE(std::find(uc.begin(), uc.end(), nx) != uc.end());
}

TEST(IluSymbolicTest, FullLevelEqualsExactOnSmallMatrix) {
  // With a high enough level the pattern must accommodate the full LU of a
  // banded matrix; factor and check L U ~= A exactly.
  const auto sys = five_point(4, 4);
  IluFactorization ilu(sys.a, 100);
  ilu.factor(sys.a);
  const index_t n = sys.a.rows();
  // Check A == L*U entrywise via solves: for each unit vector e_j,
  // A^{-1}(A e_j) should equal e_j... instead verify L(U x) == A x.
  std::vector<real_t> x(static_cast<std::size_t>(n)), ax(x.size()),
      ux(x.size()), lux(x.size());
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = 1.0 + 0.1 * i;
  }
  sys.a.spmv(x, ax);
  ilu.upper().spmv(x, ux);
  ilu.lower().spmv(ux, lux);  // strict-lower contribution
  for (index_t i = 0; i < n; ++i) {
    // (L U x)_i = (U x)_i + strict_lower(L) * (U x).
    EXPECT_NEAR(lux[static_cast<std::size_t>(i)] +
                    ux[static_cast<std::size_t>(i)],
                ax[static_cast<std::size_t>(i)], 1e-9 * std::abs(
                    ax[static_cast<std::size_t>(i)]) + 1e-9);
  }
}

TEST(IluNumericTest, MatchesDenseReferenceLevel0) {
  const auto sys = five_point(5, 5);
  IluFactorization ilu(sys.a, 0);
  ilu.factor(sys.a);
  const auto ref = dense_ilu(sys.a, ilu);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    const auto lc = ilu.lower().row_cols(i);
    const auto lv = ilu.lower().row_vals(i);
    for (std::size_t k = 0; k < lc.size(); ++k) {
      EXPECT_NEAR(lv[k],
                  ref[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(lc[k])],
                  1e-12)
          << "L(" << i << "," << lc[k] << ")";
    }
    const auto uc = ilu.upper().row_cols(i);
    const auto uv = ilu.upper().row_vals(i);
    for (std::size_t k = 0; k < uc.size(); ++k) {
      EXPECT_NEAR(uv[k],
                  ref[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(uc[k])],
                  1e-12)
          << "U(" << i << "," << uc[k] << ")";
    }
  }
}

TEST(IluNumericTest, MatchesDenseReferenceLevel2) {
  const auto sys = five_point(6, 5);
  IluFactorization ilu(sys.a, 2);
  ilu.factor(sys.a);
  const auto ref = dense_ilu(sys.a, ilu);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    const auto uc = ilu.upper().row_cols(i);
    const auto uv = ilu.upper().row_vals(i);
    for (std::size_t k = 0; k < uc.size(); ++k) {
      EXPECT_NEAR(uv[k],
                  ref[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(uc[k])],
                  1e-10);
    }
  }
}

TEST(IluNumericTest, PreconditionerSolveReducesResidual) {
  // For a diagonally dominant matrix, x = U^{-1} L^{-1} b is a good
  // approximation of A^{-1} b: the preconditioned residual must be far
  // smaller than ||b||.
  const auto prob = make_spe4();
  const auto& a = prob.system.a;
  IluFactorization ilu(a, 0);
  ilu.factor(a);
  const index_t n = a.rows();
  std::vector<real_t> b(prob.system.rhs), tmp(static_cast<std::size_t>(n)),
      x(static_cast<std::size_t>(n)), r(static_cast<std::size_t>(n));
  solve_lower_unit(ilu.lower(), b, tmp);
  solve_upper(ilu.upper(), tmp, x);
  a.spmv(x, r);
  real_t rnorm = 0.0, bnorm = 0.0;
  for (index_t i = 0; i < n; ++i) {
    rnorm += std::pow(r[static_cast<std::size_t>(i)] -
                          b[static_cast<std::size_t>(i)],
                      2);
    bnorm += std::pow(b[static_cast<std::size_t>(i)], 2);
  }
  EXPECT_LT(std::sqrt(rnorm), 0.5 * std::sqrt(bnorm));
}

TEST(IluNumericTest, RowDependencesMatchLowerStructure) {
  const auto sys = five_point(7, 3);
  IluFactorization ilu(sys.a, 1);
  const auto g = ilu.row_dependences();
  ASSERT_EQ(g.size(), sys.a.rows());
  for (index_t i = 0; i < g.size(); ++i) {
    const auto lc = ilu.lower().row_cols(i);
    ASSERT_EQ(g.deps(i).size(), lc.size());
    for (std::size_t k = 0; k < lc.size(); ++k) {
      EXPECT_EQ(g.deps(i)[k], lc[k]);
    }
  }
  EXPECT_TRUE(g.is_forward_only());
}

TEST(IluNumericTest, ThrowsOnZeroPivot) {
  // First pivot is structurally present but numerically zero.
  const CsrMatrix a(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {0.0, 1.0, 1.0, 1.0});
  IluFactorization ilu(a, 0);
  EXPECT_THROW(ilu.factor(a), std::runtime_error);
}

/// 64-row tridiagonal (2, -1) matrix, optionally with row 0's diagonal
/// set to zero: structurally sound, numerically singular at the first
/// pivot, so the parallel factor throws inside its first row body.
CsrMatrix tridiagonal(bool zero_first_pivot) {
  const index_t n = 64;
  std::vector<index_t> ptr{0};
  std::vector<index_t> col;
  std::vector<real_t> val;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = std::max<index_t>(i - 1, 0); j <= std::min(i + 1, n - 1);
         ++j) {
      col.push_back(j);
      val.push_back(j == i ? (i == 0 && zero_first_pivot ? 0.0 : 2.0) : -1.0);
    }
    ptr.push_back(static_cast<index_t>(col.size()));
  }
  return {n, n, std::move(ptr), std::move(col), std::move(val)};
}

TEST(IluNumericTest, ParallelZeroPivotThrowsAndTeamStaysUsable) {
  // A zero pivot in row 0 under the default (point-to-point) executor:
  // the row body throws, every processor waiting on row 0's producer
  // leaves the region, and factor() throws instead of hanging. The same
  // Runtime then factors and applies a sound matrix.
  const CsrMatrix bad = tridiagonal(true);
  const CsrMatrix good = tridiagonal(false);
  for (int procs = 1; procs <= 8; ++procs) {
    Runtime rt(procs, 8, "");
    IluPreconditioner singular(rt, bad, 0);
    EXPECT_THROW(singular.factor(rt.team(), bad), std::runtime_error)
        << "procs=" << procs;

    IluPreconditioner sound(rt, good, 0);
    sound.factor(rt.team(), good);
    IluFactorization seq(good, 0);
    seq.factor(good);
    for (index_t i = 0; i < good.rows(); ++i) {
      const auto got = sound.factors().upper().row_vals(i);
      const auto want = seq.upper().row_vals(i);
      ASSERT_EQ(std::vector<real_t>(got.begin(), got.end()),
                std::vector<real_t>(want.begin(), want.end()))
          << "procs=" << procs << " row=" << i;
    }
    const std::vector<real_t> r(64, 1.0);
    std::vector<real_t> z(64, 0.0);
    sound.apply(rt.team(), r, z);
    EXPECT_TRUE(std::isfinite(z[0])) << "procs=" << procs;
  }
}

TEST(IluNumericTest, RejectsNonSquare) {
  const CsrMatrix a(2, 3, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  EXPECT_THROW(IluFactorization(a, 0), std::invalid_argument);
}

TEST(IluNumericTest, RejectsNegativeLevel) {
  const CsrMatrix a(1, 1, {0, 1}, {0}, {1.0});
  EXPECT_THROW(IluFactorization(a, -1), std::invalid_argument);
}

TEST(IluNumericTest, RefactorizationOverwritesValues) {
  const auto sys = five_point(4, 4);
  IluFactorization ilu(sys.a, 0);
  ilu.factor(sys.a);
  const real_t before = ilu.upper().row_vals(0)[0];
  // Scale A by 2 and refactor: the pivot must double.
  CsrMatrix scaled = sys.a;
  for (auto& v : scaled.values()) v *= 2.0;
  ilu.factor(scaled);
  EXPECT_NEAR(ilu.upper().row_vals(0)[0], 2.0 * before, 1e-12);
}

}  // namespace
}  // namespace rtl
