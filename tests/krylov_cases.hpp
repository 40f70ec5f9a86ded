#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "solver/krylov.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/csr.hpp"

/// The four Krylov drivers behind one call, for the tests that run each of
/// them the same way: the team-owned scratch cases of solver_test and
/// stress_test compare a solve with the same solve elsewhere, bit for bit.
namespace rtl::krylov_cases {

enum class Driver { kPcg, kPcgBatched, kGmres, kGmresBatched };
inline constexpr Driver kDrivers[] = {Driver::kPcg, Driver::kPcgBatched,
                                      Driver::kGmres, Driver::kGmresBatched};

inline bool batched(Driver d) {
  return d == Driver::kPcgBatched || d == Driver::kGmresBatched;
}

/// Results and x (row-major n×k) of one solve from x0 = 0.
struct Solve {
  std::vector<KrylovResult> res;
  std::vector<real_t> x;
};

/// Runs driver `d` on `team`: a batched driver on all of b, a single-RHS
/// driver on its column 0.
inline Solve solve_on(ThreadTeam& team, Driver d, const CsrMatrix& a,
                      Preconditioner* m, const BatchBuffer& b,
                      const KrylovOptions& opt) {
  const index_t n = b.rows();
  Solve out;
  if (!batched(d)) {
    std::vector<real_t> bj(static_cast<std::size_t>(n));
    b.get_column(0, bj);
    out.x.assign(bj.size(), 0.0);
    out.res = {d == Driver::kPcg ? pcg_solve(team, a, bj, out.x, m, opt)
                                 : gmres_solve(team, a, bj, out.x, m, opt)};
    return out;
  }
  BatchBuffer x(n, b.width());  // zero-filled
  out.res = d == Driver::kPcgBatched
                ? pcg_solve(team, a, b.view(), x.view(), m, opt)
                : gmres_solve(team, a, b.view(), x.view(), m, opt);
  const real_t* xs = x.view().data();
  out.x.assign(xs, xs + static_cast<std::size_t>(n * b.width()));
  return out;
}

/// Every result field and every element of x equal.
inline void expect_same_solve(const Solve& got, const Solve& want) {
  ASSERT_EQ(got.res.size(), want.res.size());
  for (std::size_t j = 0; j < got.res.size(); ++j) {
    EXPECT_EQ(got.res[j].converged, want.res[j].converged) << "col=" << j;
    EXPECT_EQ(got.res[j].breakdown, want.res[j].breakdown) << "col=" << j;
    EXPECT_EQ(got.res[j].iterations, want.res[j].iterations) << "col=" << j;
    EXPECT_EQ(got.res[j].residual_norm, want.res[j].residual_norm)
        << "col=" << j;
  }
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << "element " << i;
  }
}

}  // namespace rtl::krylov_cases
