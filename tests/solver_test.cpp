// Tests for the Krylov substrate: parallel triangular solves, parallel
// numeric factorization, the ILU preconditioner, CG and GMRES.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/runtime.hpp"
#include "krylov_cases.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "solver/parallel_triangular.hpp"
#include "sparse/coo_builder.hpp"
#include "sparse/parallel_ops.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"
#include "workload/stencil.hpp"

namespace rtl {
namespace {

double residual_norm(const CsrMatrix& a, std::span<const real_t> x,
                     std::span<const real_t> b) {
  std::vector<real_t> r(x.size());
  a.spmv(x, r);
  double s = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    s += (r[i] - b[i]) * (r[i] - b[i]);
  }
  return std::sqrt(s);
}

double norm(std::span<const real_t> v) {
  double s = 0.0;
  for (const real_t x : v) s += x * x;
  return std::sqrt(s);
}

class TriangularSolverTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TriangularSolverTest, MatchesSequentialSolves) {
  const auto [nthreads, exec_policy] = GetParam();
  Runtime rt(nthreads, 0, "");
  ThreadTeam& team = rt.team();
  const auto prob = make_spe4();
  IluFactorization ilu(prob.system.a, 0);
  ilu.factor(prob.system.a);

  DoconsiderOptions opts;
  opts.execution = static_cast<ExecutionPolicy>(exec_policy);
  ParallelTriangularSolver solver(rt, ilu, opts);

  const index_t n = prob.system.a.rows();
  std::vector<real_t> rhs(prob.system.rhs);
  std::vector<real_t> y_par(static_cast<std::size_t>(n)),
      y_seq(static_cast<std::size_t>(n)), tmp_seq(static_cast<std::size_t>(n));

  solver.solve(team, rhs, y_par);
  solve_lower_unit(ilu.lower(), rhs, tmp_seq);
  solve_upper(ilu.upper(), tmp_seq, y_seq);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y_par[static_cast<std::size_t>(i)],
                y_seq[static_cast<std::size_t>(i)], 1e-12)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, TriangularSolverTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(0, 1, 2)));  // pre/self/doacross

TEST(TriangularSolverRepeat, SolvesAreRepeatable) {
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(40, 40);
  IluFactorization ilu(sys.a, 0);
  ilu.factor(sys.a);
  ParallelTriangularSolver solver(rt, ilu);
  const index_t n = sys.a.rows();
  std::vector<real_t> y1(static_cast<std::size_t>(n)),
      y2(static_cast<std::size_t>(n));
  solver.solve(team, sys.rhs, y1);
  for (int rep = 0; rep < 10; ++rep) {
    solver.solve(team, sys.rhs, y2);
    EXPECT_EQ(y1, y2) << "rep " << rep;
  }
}

class ParallelFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFactorTest, MatchesSequentialFactorization) {
  Runtime rt(GetParam(), 0, "");
  ThreadTeam& team = rt.team();
  const auto prob = make_spe2();
  IluFactorization seq(prob.system.a, 0);
  seq.factor(prob.system.a);

  IluPreconditioner precond(rt, prob.system.a, 0);
  precond.factor(team, prob.system.a);

  const auto& l1 = seq.lower().values();
  const auto& l2 = precond.factors().lower().values();
  ASSERT_EQ(l1.size(), l2.size());
  for (std::size_t k = 0; k < l1.size(); ++k) {
    EXPECT_NEAR(l1[k], l2[k], 1e-13);
  }
  const auto& u1 = seq.upper().values();
  const auto& u2 = precond.factors().upper().values();
  ASSERT_EQ(u1.size(), u2.size());
  for (std::size_t k = 0; k < u1.size(); ++k) {
    EXPECT_NEAR(u1[k], u2[k], 1e-13);
  }
}

TEST_P(ParallelFactorTest, HigherFillLevelsAlsoMatch) {
  Runtime rt(GetParam(), 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(15, 15);
  IluFactorization seq(sys.a, 2);
  seq.factor(sys.a);
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  IluPreconditioner precond(rt, sys.a, 2, opts);
  precond.factor(team, sys.a);
  const auto& u1 = seq.upper().values();
  const auto& u2 = precond.factors().upper().values();
  ASSERT_EQ(u1.size(), u2.size());
  for (std::size_t k = 0; k < u1.size(); ++k) {
    EXPECT_NEAR(u1[k], u2[k], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, ParallelFactorTest,
                         ::testing::Values(1, 2, 8, 16));

TEST(PreconditionerTest, ApplyEqualsTwoTriangularSolves) {
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(25, 25);
  IluPreconditioner precond(rt, sys.a, 0);
  precond.factor(team, sys.a);
  const index_t n = sys.a.rows();
  std::vector<real_t> z(static_cast<std::size_t>(n)),
      tmp(static_cast<std::size_t>(n)), ref(static_cast<std::size_t>(n));
  precond.apply(team, sys.rhs, z);
  solve_lower_unit(precond.factors().lower(), sys.rhs, tmp);
  solve_upper(precond.factors().upper(), tmp, ref);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(z[static_cast<std::size_t>(i)],
                ref[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(GmresTest, SolvesDiagonalSystemExactly) {
  ThreadTeam team(4);
  const CsrMatrix a(3, 3, {0, 1, 2, 3}, {0, 1, 2}, {2.0, 4.0, 8.0});
  const std::vector<real_t> b = {2.0, 8.0, 24.0};
  std::vector<real_t> x(3, 0.0);
  const auto res = gmres_solve(team, a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(GmresTest, UnpreconditionedConvergesOnSmallMesh) {
  ThreadTeam team(8);
  const auto sys = five_point(10, 10);
  std::vector<real_t> x(static_cast<std::size_t>(sys.a.rows()), 0.0);
  KrylovOptions opt;
  opt.max_iterations = 2000;
  opt.restart = 50;
  const auto res = gmres_solve(team, sys.a, sys.rhs, x, nullptr, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(sys.a, x, sys.rhs), 1e-6 * norm(sys.rhs) + 1e-10);
}

class GmresPolicyTest : public ::testing::TestWithParam<int> {};

TEST_P(GmresPolicyTest, PreconditionedSolveMatchesManufacturedSolution) {
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(31, 31);
  DoconsiderOptions opts;
  opts.execution = static_cast<ExecutionPolicy>(GetParam());
  IluPreconditioner precond(rt, sys.a, 0, opts);
  precond.factor(team, sys.a);
  std::vector<real_t> x(static_cast<std::size_t>(sys.a.rows()), 0.0);
  KrylovOptions kopt;
  kopt.max_iterations = 300;
  const auto res = gmres_solve(team, sys.a, sys.rhs, x, &precond, kopt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(sys.a, x, sys.rhs), 1e-5 * norm(sys.rhs) + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Policies, GmresPolicyTest,
                         ::testing::Values(0, 1, 2));

TEST(GmresTest, PreconditioningReducesIterations) {
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(25, 25);
  KrylovOptions opt;
  opt.max_iterations = 2000;
  opt.rtol = 1e-8;

  std::vector<real_t> x_plain(static_cast<std::size_t>(sys.a.rows()), 0.0);
  const auto plain = gmres_solve(team, sys.a, sys.rhs, x_plain, nullptr, opt);

  IluPreconditioner precond(rt, sys.a, 0);
  precond.factor(team, sys.a);
  std::vector<real_t> x_pc(static_cast<std::size_t>(sys.a.rows()), 0.0);
  const auto pc = gmres_solve(team, sys.a, sys.rhs, x_pc, &precond, opt);

  EXPECT_TRUE(pc.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(pc.iterations, plain.iterations);
}

TEST(GmresTest, SolvesAllStandardProblems) {
  Runtime rt(16, 0, "");
  ThreadTeam& team = rt.team();
  for (const auto& prob : standard_problem_set()) {
    IluPreconditioner precond(rt, prob.system.a, 0);
    precond.factor(team, prob.system.a);
    std::vector<real_t> x(static_cast<std::size_t>(prob.system.a.rows()),
                          0.0);
    KrylovOptions opt;
    opt.max_iterations = 500;
    opt.rtol = 1e-8;
    const auto res =
        gmres_solve(team, prob.system.a, prob.system.rhs, x, &precond, opt);
    EXPECT_TRUE(res.converged) << prob.name;
    EXPECT_LT(residual_norm(prob.system.a, x, prob.system.rhs),
              1e-4 * norm(prob.system.rhs) + 1e-8)
        << prob.name;
  }
}

TEST(PcgTest, SolvesSpdSystem) {
  // Pure diffusion 5-pt Laplacian is SPD.
  ThreadTeam team(4);
  const index_t nx = 15;
  CooBuilder coo(nx * nx, nx * nx);
  for (index_t j = 0; j < nx; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = j * nx + i;
      coo.add(row, row, 4.0);
      if (i > 0) coo.add(row, row - 1, -1.0);
      if (i + 1 < nx) coo.add(row, row + 1, -1.0);
      if (j > 0) coo.add(row, row - nx, -1.0);
      if (j + 1 < nx) coo.add(row, row + nx, -1.0);
    }
  }
  const auto a = coo.build();
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x(b.size(), 0.0);
  KrylovOptions opt;
  opt.rtol = 1e-10;
  opt.max_iterations = 500;
  const auto res = pcg_solve(team, a, b, x, nullptr, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-7 * norm(b));
}

TEST(PcgTest, PreconditionedPcgConvergesFaster) {
  Runtime rt(4, 0, "");
  ThreadTeam& team = rt.team();
  const index_t nx = 31;
  CooBuilder coo(nx * nx, nx * nx);
  for (index_t j = 0; j < nx; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = j * nx + i;
      coo.add(row, row, 4.0);
      if (i > 0) coo.add(row, row - 1, -1.0);
      if (i + 1 < nx) coo.add(row, row + 1, -1.0);
      if (j > 0) coo.add(row, row - nx, -1.0);
      if (j + 1 < nx) coo.add(row, row + nx, -1.0);
    }
  }
  const auto a = coo.build();
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  KrylovOptions opt;
  opt.rtol = 1e-8;
  opt.max_iterations = 1000;

  std::vector<real_t> x1(b.size(), 0.0);
  const auto plain = pcg_solve(team, a, b, x1, nullptr, opt);
  IluPreconditioner precond(rt, a, 0);
  precond.factor(team, a);
  std::vector<real_t> x2(b.size(), 0.0);
  const auto pc = pcg_solve(team, a, b, x2, &precond, opt);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(pc.converged);
  EXPECT_LT(pc.iterations, plain.iterations);
}

// ---------------------------------------------------------------------
// Batched multi-RHS drivers: columns iterate in lockstep through ONE
// batched SpMV + ONE batched preconditioner application per iteration,
// but each column's trajectory is pinned bit-for-bit to the single-RHS
// driver run on that column alone.
// ---------------------------------------------------------------------

/// SPD 5-pt Laplacian on an nx × nx grid.
CsrMatrix laplacian(index_t nx) {
  CooBuilder coo(nx * nx, nx * nx);
  for (index_t j = 0; j < nx; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = j * nx + i;
      coo.add(row, row, 4.0);
      if (i > 0) coo.add(row, row - 1, -1.0);
      if (i + 1 < nx) coo.add(row, row + 1, -1.0);
      if (j > 0) coo.add(row, row - nx, -1.0);
      if (j + 1 < nx) coo.add(row, row + nx, -1.0);
    }
  }
  return coo.build();
}

/// k right-hand sides with distinct scales (distinct iteration counts).
BatchBuffer scaled_rhs_batch(std::span<const real_t> base, index_t k) {
  const index_t n = static_cast<index_t>(base.size());
  BatchBuffer b(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(base.begin(), base.end());
    for (index_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] *=
          1.0 + 0.5 * static_cast<real_t>(j) +
          0.01 * static_cast<real_t>(i % 7);
    }
    b.set_column(j, col);
  }
  return b;
}

/// Delegating preconditioner that records how the driver applied it: the
/// batched drivers must route through `apply_batch` at full batch width,
/// never through column-by-column singles.
class CountingPreconditioner : public Preconditioner {
 public:
  explicit CountingPreconditioner(Preconditioner& inner) : inner_(inner) {}

  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override {
    ++single_applies;
    inner_.apply(team, r, z);
  }
  void apply_batch(ThreadTeam& team, ConstBatchView r, BatchView z) override {
    ++batch_applies;
    max_width = std::max(max_width, r.width());
    inner_.apply_batch(team, r, z);
  }

  int single_applies = 0;
  int batch_applies = 0;
  index_t max_width = 0;

 private:
  Preconditioner& inner_;
};

TEST(BatchedKrylovTest, PcgColumnsAreBitForBitTheSingleRhsDriver) {
  Runtime rt(4, 0, "");
  ThreadTeam& team = rt.team();
  const auto a = laplacian(15);
  const index_t n = a.rows();
  const index_t k = 4;
  IluPreconditioner precond(rt, a, 0);
  precond.factor(team, a);

  const std::vector<real_t> base(static_cast<std::size_t>(n), 1.0);
  const BatchBuffer b = scaled_rhs_batch(base, k);
  BatchBuffer x(n, k);
  for (index_t j = 0; j < k; ++j) {
    x.set_column(j, std::vector<real_t>(static_cast<std::size_t>(n), 0.0));
  }
  KrylovOptions opt;
  opt.rtol = 1e-8;
  opt.max_iterations = 300;
  const auto results = pcg_solve(team, a, b.view(), x.view(), &precond, opt);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(k));

  std::vector<real_t> colb(static_cast<std::size_t>(n));
  for (index_t j = 0; j < k; ++j) {
    b.get_column(j, colb);
    std::vector<real_t> colx(static_cast<std::size_t>(n), 0.0);
    const auto single = pcg_solve(team, a, colb, colx, &precond, opt);
    const auto& batched = results[static_cast<std::size_t>(j)];
    EXPECT_TRUE(batched.converged) << "col=" << j;
    EXPECT_EQ(batched.converged, single.converged) << "col=" << j;
    EXPECT_EQ(batched.breakdown, single.breakdown) << "col=" << j;
    EXPECT_EQ(batched.iterations, single.iterations) << "col=" << j;
    EXPECT_EQ(batched.residual_norm, single.residual_norm) << "col=" << j;
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x.view().at(i, j), colx[static_cast<std::size_t>(i)])
          << "col=" << j << " row=" << i;
    }
  }
}

TEST(BatchedKrylovTest, GmresColumnsAreBitForBitTheSingleRhsDriver) {
  // Each column must match the single-RHS driver while the columns part
  // ways: distinct seeded right-hand sides converge after different
  // iteration counts, a zero column finishes at its first cycle start,
  // one column starts from a nonzero guess, short restarts take the live
  // columns through cycle starts after others have frozen, and iteration
  // caps stop columns mid-cycle. Teams of 1..4 members (3 gives uneven
  // blocks) change the order of par_dot's partial sums, which the batched
  // driver's per-column dots must reproduce.
  const auto sys = five_point(15, 15);
  const index_t n = sys.a.rows();
  const auto nz = static_cast<std::size_t>(n);
  const index_t k = 6;
  BatchBuffer b = scaled_rhs_batch(sys.rhs, k);
  std::mt19937_64 rng(20260417);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  for (const index_t j : {3, 4}) {
    std::vector<real_t> col(nz);
    for (auto& v : col) v = dist(rng);
    b.set_column(j, col);
  }
  b.set_column(5, std::vector<real_t>(nz, 0.0));
  BatchBuffer x0(n, k);
  for (index_t j = 0; j < k; ++j) {
    x0.set_column(j, std::vector<real_t>(nz, 0.0));
  }
  std::vector<real_t> guess(nz);
  for (auto& v : guess) v = dist(rng);
  x0.set_column(1, guess);

  bool counts_differ = false;
  std::vector<real_t> colb(nz);
  for (const int procs : {1, 2, 3, 4}) {
    Runtime rt(procs, 0, "");
    ThreadTeam& team = rt.team();
    IluPreconditioner precond(rt, sys.a, 0);
    precond.factor(team, sys.a);
    for (const int restart : {3, 7, 30}) {
      for (const int cap : {200, 11}) {
        SCOPED_TRACE(::testing::Message() << "procs=" << procs << " restart="
                                          << restart << " cap=" << cap);
        KrylovOptions opt;
        opt.rtol = 1e-8;
        opt.max_iterations = cap;
        opt.restart = restart;
        BatchBuffer x = x0;
        const auto results =
            gmres_solve(team, sys.a, b.view(), x.view(), &precond, opt);
        ASSERT_EQ(results.size(), static_cast<std::size_t>(k));
        for (index_t j = 0; j < k; ++j) {
          b.get_column(j, colb);
          std::vector<real_t> colx(nz);
          x0.get_column(j, colx);
          const auto single =
              gmres_solve(team, sys.a, colb, colx, &precond, opt);
          const auto& batched = results[static_cast<std::size_t>(j)];
          if (restart == 30 && cap == 200) {
            EXPECT_TRUE(batched.converged) << "col=" << j;
          }
          EXPECT_EQ(batched.converged, single.converged) << "col=" << j;
          EXPECT_EQ(batched.breakdown, single.breakdown) << "col=" << j;
          EXPECT_EQ(batched.iterations, single.iterations) << "col=" << j;
          EXPECT_EQ(batched.residual_norm, single.residual_norm)
              << "col=" << j;
          counts_differ |= batched.iterations != results[0].iterations;
          for (index_t i = 0; i < n; ++i) {
            ASSERT_EQ(x.view().at(i, j), colx[static_cast<std::size_t>(i)])
                << "col=" << j << " row=" << i;
          }
        }
      }
    }
  }
  EXPECT_TRUE(counts_differ);
}

TEST(BatchedKrylovTest, BatchedDriversReachApplyBatchAtFullWidth) {
  // Regression pin for the multi-RHS fix: the previous drivers looped
  // column-by-column single solves, so `Preconditioner::apply_batch`
  // was never reached and the per-wavefront synchronization was paid k
  // times. The lockstep drivers must apply the preconditioner batched at
  // the full width and never fall back to single applies.
  Runtime rt(2, 0, "");
  ThreadTeam& team = rt.team();
  const auto a = laplacian(10);
  const index_t n = a.rows();
  const index_t k = 5;
  IluPreconditioner inner(rt, a, 0);
  inner.factor(team, a);
  CountingPreconditioner counting(inner);

  const std::vector<real_t> base(static_cast<std::size_t>(n), 1.0);
  const BatchBuffer b = scaled_rhs_batch(base, k);
  BatchBuffer x(n, k);
  for (index_t j = 0; j < k; ++j) {
    x.set_column(j, std::vector<real_t>(static_cast<std::size_t>(n), 0.0));
  }
  auto results = pcg_solve(team, a, b.view(), x.view(), &counting);
  EXPECT_EQ(counting.single_applies, 0);
  EXPECT_GT(counting.batch_applies, 0);
  EXPECT_EQ(counting.max_width, k);
  for (const auto& r : results) EXPECT_TRUE(r.converged);

  counting.batch_applies = 0;
  counting.max_width = 0;
  const auto sysb = scaled_rhs_batch(base, k);
  for (index_t j = 0; j < k; ++j) {
    x.set_column(j, std::vector<real_t>(static_cast<std::size_t>(n), 0.0));
  }
  results = gmres_solve(team, a, sysb.view(), x.view(), &counting);
  EXPECT_EQ(counting.single_applies, 0);
  EXPECT_GT(counting.batch_applies, 0);
  EXPECT_EQ(counting.max_width, k);
  for (const auto& r : results) EXPECT_TRUE(r.converged);
}

TEST(KrylovEdge, ZeroRhsConvergesImmediately) {
  ThreadTeam team(2);
  const CsrMatrix a(2, 2, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  const std::vector<real_t> b = {0.0, 0.0};
  std::vector<real_t> x = {0.0, 0.0};
  const auto res = gmres_solve(team, a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(KrylovEdge, GmresRejectsRestartBelowOne) {
  // restart = 0 made the single-RHS driver restart forever (no Arnoldi
  // step ever ran, so `iterations` never grew) and the batched driver
  // write past its one-vector basis; restart = -1 escaped as
  // std::length_error. Both drivers reject both with a typed error before
  // allocating, and the team solves normally afterwards.
  Runtime rt(2, 0, "");
  ThreadTeam& team = rt.team();
  const auto sys = five_point(10, 10);
  const index_t n = sys.a.rows();
  const auto nz = static_cast<std::size_t>(n);
  IluPreconditioner precond(rt, sys.a, 0);
  precond.factor(team, sys.a);
  const index_t k = 3;
  const BatchBuffer b = scaled_rhs_batch(sys.rhs, k);
  BatchBuffer xb(n, k);
  for (const int restart : {0, -1}) {
    KrylovOptions opt;
    opt.restart = restart;
    std::vector<real_t> x(nz, 0.0);
    EXPECT_THROW((void)gmres_solve(team, sys.a, sys.rhs, x, &precond, opt),
                 std::invalid_argument)
        << "restart=" << restart;
    EXPECT_THROW(
        (void)gmres_solve(team, sys.a, b.view(), xb.view(), &precond, opt),
        std::invalid_argument)
        << "restart=" << restart;
  }

  KrylovOptions opt;
  opt.rtol = 1e-8;
  std::vector<real_t> x(nz, 0.0);
  EXPECT_TRUE(gmres_solve(team, sys.a, sys.rhs, x, &precond, opt).converged);
  for (index_t j = 0; j < k; ++j) {
    xb.set_column(j, std::vector<real_t>(nz, 0.0));
  }
  for (const auto& r :
       gmres_solve(team, sys.a, b.view(), xb.view(), &precond, opt)) {
    EXPECT_TRUE(r.converged);
  }
}

TEST(KrylovEdge, WarmStartFromExactSolution) {
  ThreadTeam team(2);
  const CsrMatrix a(2, 2, {0, 1, 2}, {0, 1}, {2.0, 3.0});
  const std::vector<real_t> b = {4.0, 9.0};
  std::vector<real_t> x = {2.0, 3.0};  // exact
  const auto res = gmres_solve(team, a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

// ---------------------------------------------------------------------
// Breakdowns: a solve that cannot go on stops and says so. It never
// reports convergence it did not reach, and never returns a non-finite x.
// ---------------------------------------------------------------------

enum class Method { kPcg, kGmres };

struct ColumnSolve {
  KrylovResult res;
  std::vector<real_t> x;
};

/// Solves A x = b for each of `rhs` alone and for all of them as one
/// batch (unpreconditioned, x0 = 0, team of 2), checks that every
/// batched column is the single solve bit for bit, and returns the
/// single solves.
std::vector<ColumnSolve> solve_each_and_batched(
    Method method, const CsrMatrix& a,
    const std::vector<std::vector<real_t>>& rhs) {
  ThreadTeam team(2);
  const index_t n = a.rows();
  const auto nz = static_cast<std::size_t>(n);
  const auto k = static_cast<index_t>(rhs.size());
  BatchBuffer b(n, k), x(n, k);
  for (index_t j = 0; j < k; ++j) {
    b.set_column(j, rhs[static_cast<std::size_t>(j)]);
    x.set_column(j, std::vector<real_t>(nz, 0.0));
  }
  KrylovOptions opt;
  opt.max_iterations = 1000;
  const auto batched =
      method == Method::kPcg
          ? pcg_solve(team, a, b.view(), x.view(), nullptr, opt)
          : gmres_solve(team, a, b.view(), x.view(), nullptr, opt);
  std::vector<ColumnSolve> out;
  for (index_t j = 0; j < k; ++j) {
    const auto& bj = rhs[static_cast<std::size_t>(j)];
    ColumnSolve one{{}, std::vector<real_t>(nz, 0.0)};
    one.res = method == Method::kPcg
                  ? pcg_solve(team, a, bj, one.x, nullptr, opt)
                  : gmres_solve(team, a, bj, one.x, nullptr, opt);
    const auto& r = batched[static_cast<std::size_t>(j)];
    EXPECT_EQ(r.converged, one.res.converged) << "col=" << j;
    EXPECT_EQ(r.breakdown, one.res.breakdown) << "col=" << j;
    EXPECT_EQ(r.iterations, one.res.iterations) << "col=" << j;
    EXPECT_EQ(r.residual_norm, one.res.residual_norm) << "col=" << j;
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(x.view().at(i, j), one.x[static_cast<std::size_t>(i)])
          << "col=" << j << " row=" << i;
    }
    out.push_back(std::move(one));
  }
  return out;
}

TEST(KrylovBreakdown, GmresOnTheZeroMatrixLeavesXAlone) {
  // A = 0, b = (1, 1): the first Hessenberg column is zero, so the first
  // rotated pivot is 0. A fallback rotation used to report convergence
  // with residual 0 and x = (inf, inf).
  const CsrMatrix a(2, 2, {0, 1, 2}, {0, 1}, {0.0, 0.0});
  for (const auto& s :
       solve_each_and_batched(Method::kGmres, a, {{1.0, 1.0}, {1.0, 1.0}})) {
    EXPECT_FALSE(s.res.converged);
    EXPECT_TRUE(s.res.breakdown);
    EXPECT_EQ(s.res.iterations, 1);
    EXPECT_EQ(s.res.residual_norm, std::sqrt(2.0));
    EXPECT_EQ(s.x, (std::vector<real_t>{0.0, 0.0}));
  }
}

TEST(KrylovBreakdown, GmresOnTheDownShiftKeepsTheStepsBeforeIt) {
  // A e_k = e_{k+1}, A e_4 = 0. From b = e_1 three steps reach e_4 and
  // the fourth maps it to 0: a zero pivot at step 4 (from b = e_3, at
  // step 2). A e_k is orthogonal to b, so the kept steps leave x = 0 and
  // the residual at 1. The fallback rotation used to report convergence
  // with x = NaN.
  const CsrMatrix a(4, 4, {0, 1, 2, 3, 4}, {0, 0, 1, 2},
                    {0.0, 1.0, 1.0, 1.0});
  const auto s = solve_each_and_batched(
      Method::kGmres, a, {{1.0, 0.0, 0.0, 0.0}, {0.0, 0.0, 1.0, 0.0}});
  EXPECT_EQ(s[0].res.iterations, 4);
  EXPECT_EQ(s[1].res.iterations, 2);
  for (const auto& one : s) {
    EXPECT_FALSE(one.res.converged);
    EXPECT_TRUE(one.res.breakdown);
    EXPECT_EQ(one.res.residual_norm, 1.0);
    for (const real_t v : one.x) EXPECT_EQ(v, 0.0);
  }
}

TEST(KrylovBreakdown, GmresNeverAddsAnOverflowingUpdate) {
  // A = [2^-1040] (subnormal), b = 1: one step solves the projected
  // problem exactly, but y = 2^1040 overflows. x stays 0 and the solve
  // reports the cycle start's residual.
  const CsrMatrix a(1, 1, {0, 1}, {0}, {std::ldexp(1.0, -1040)});
  for (const auto& s : solve_each_and_batched(Method::kGmres, a, {{1.0}})) {
    EXPECT_FALSE(s.res.converged);
    EXPECT_TRUE(s.res.breakdown);
    EXPECT_EQ(s.res.iterations, 1);
    EXPECT_EQ(s.res.residual_norm, 1.0);
    EXPECT_EQ(s.x, (std::vector<real_t>{0.0}));
  }
}

TEST(KrylovBreakdown, PcgStopsBeforeDividingByZeroCurvature) {
  // diag(1, -1) is indefinite. From b = (1, 1), p^T A p = 0 at once; the
  // driver used to divide by it and spend its whole budget on NaN.
  // b = (1, 0), in the same batch, converges in one step.
  const CsrMatrix a(2, 2, {0, 1, 2}, {0, 1}, {1.0, -1.0});
  const auto s =
      solve_each_and_batched(Method::kPcg, a, {{1.0, 1.0}, {1.0, 0.0}});
  EXPECT_FALSE(s[0].res.converged);
  EXPECT_TRUE(s[0].res.breakdown);
  EXPECT_EQ(s[0].res.iterations, 0);
  EXPECT_EQ(s[0].res.residual_norm, std::sqrt(2.0));
  EXPECT_EQ(s[0].x, (std::vector<real_t>{0.0, 0.0}));
  EXPECT_TRUE(s[1].res.converged);
  EXPECT_FALSE(s[1].res.breakdown);
  EXPECT_EQ(s[1].res.iterations, 1);
}

// ---------------------------------------------------------------------
// Team-owned scratch: every driver takes its n- and n×k-sized vectors
// from blocks its team keeps across solves, uninitialized. Whatever one
// solve leaves there must never reach a later solve's result.
// ---------------------------------------------------------------------

using krylov_cases::batched;
using krylov_cases::Driver;
using krylov_cases::expect_same_solve;
using krylov_cases::kDrivers;
using krylov_cases::Solve;
using krylov_cases::solve_on;

/// The same solve on a fresh Runtime of `procs` members, whose team has
/// lent no block before.
Solve fresh_solve(int procs, Driver d, const CsrMatrix& a,
                  const BatchBuffer& b, const KrylovOptions& opt) {
  Runtime rt(procs, 0, "");
  IluPreconditioner m(rt, a, 0);
  m.factor(rt.team(), a);
  return solve_on(rt.team(), d, a, &m, b, opt);
}

/// k right-hand sides on the SPD Laplacian: column 1 is zero (it
/// converges at entry), the rest are distinctly scaled ones.
BatchBuffer rhs_with_zero_column(index_t n, index_t k) {
  BatchBuffer b = scaled_rhs_batch(
      std::vector<real_t>(static_cast<std::size_t>(n), 1.0), k);
  b.set_column(1, std::vector<real_t>(static_cast<std::size_t>(n), 0.0));
  return b;
}

KrylovOptions scratch_test_options() {
  KrylovOptions opt;
  opt.rtol = 1e-8;
  opt.restart = 7;  // several GMRES cycles, so blocks are revisited
  opt.max_iterations = 200;
  return opt;
}

TEST(KrylovScratch, LeftoversNeverReachAResult) {
  // A solve whose right-hand side holds a NaN stops at a breakdown and
  // leaves NaNs in every block it took. The pinned solve that follows on
  // the same team must be the same solve on a fresh Runtime, bit for bit.
  // The batched cases carry a zero column next to the NaN column: it
  // converges at entry, and batched PCG's SpMV and dots still read its p
  // lanes.
  const CsrMatrix a = laplacian(12);
  const index_t n = a.rows();
  const index_t k = 4;
  const KrylovOptions opt = scratch_test_options();
  const BatchBuffer pinned = rhs_with_zero_column(n, k);
  BatchBuffer poison = pinned;
  poison.view().at(n / 2, 0) = std::numeric_limits<real_t>::quiet_NaN();
  for (const int procs : {1, 2, 3, 4}) {
    for (const Driver d : kDrivers) {
      SCOPED_TRACE(::testing::Message() << "procs=" << procs << " driver="
                                        << static_cast<int>(d));
      Runtime rt(procs, 0, "");
      IluPreconditioner m(rt, a, 0);
      m.factor(rt.team(), a);
      const Solve nan = solve_on(rt.team(), d, a, &m, poison, opt);
      EXPECT_TRUE(nan.res[0].breakdown);
      EXPECT_FALSE(nan.res[0].converged);
      if (batched(d)) {
        EXPECT_TRUE(nan.res[1].converged);
        EXPECT_EQ(nan.res[1].iterations, 0);
      }
      const Solve got = solve_on(rt.team(), d, a, &m, pinned, opt);
      EXPECT_TRUE(got.res[0].converged);
      expect_same_solve(got, fresh_solve(procs, d, a, pinned, opt));
    }
  }
}

TEST(KrylovScratch, BlocksComeBackAtAnotherSize) {
  // Batched -> single -> batched on one team: the single solves get
  // blocks sized for a batch, and the wider second batch (with a longer
  // restart) outgrows the blocks the first one left. Each solve equals
  // the same solve on a fresh Runtime.
  const CsrMatrix a = laplacian(12);
  const index_t n = a.rows();
  KrylovOptions opt = scratch_test_options();
  const BatchBuffer narrow = rhs_with_zero_column(n, 3);
  const BatchBuffer wide = rhs_with_zero_column(n, 6);
  for (const int procs : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "procs=" << procs);
    Runtime rt(procs, 0, "");
    IluPreconditioner m(rt, a, 0);
    m.factor(rt.team(), a);
    for (const Driver d : {Driver::kGmresBatched, Driver::kGmres,
                           Driver::kPcg, Driver::kPcgBatched}) {
      opt.restart = 7;
      expect_same_solve(solve_on(rt.team(), d, a, &m, narrow, opt),
                        fresh_solve(procs, d, a, narrow, opt));
    }
    opt.restart = 12;
    for (const Driver d : {Driver::kGmresBatched, Driver::kPcgBatched}) {
      expect_same_solve(solve_on(rt.team(), d, a, &m, wide, opt),
                        fresh_solve(procs, d, a, wide, opt));
    }
  }
}

}  // namespace
}  // namespace rtl
