// Parallel sparse triangular solve — the paper's flagship workload.
//
// Builds the 5-PT test problem (63x63 five-point operator), computes its
// ILU(0) factors, and compares the sequential forward/backward solve
// against the pre-scheduled and self-executing parallel executors.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/runtime.hpp"
#include "runtime/timer.hpp"
#include "solver/parallel_triangular.hpp"
#include "sparse/ilu.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"

int main() {
  using namespace rtl;
  const auto prob = make_5pt();
  const auto& a = prob.system.a;
  const index_t n = a.rows();

  IluFactorization ilu(a, 0);
  ilu.factor(a);

  std::vector<real_t> tmp(static_cast<std::size_t>(n)),
      y_seq(static_cast<std::size_t>(n)), y_par(static_cast<std::size_t>(n));

  const double seq_ms = min_time_ms(5, [&] {
    solve_lower_unit(ilu.lower(), prob.system.rhs, tmp);
    solve_upper(ilu.upper(), tmp, y_seq);
  });

  std::printf("%s: n = %d, nnz(L)+nnz(U) = %d\n", prob.name.c_str(), n,
              ilu.lower().nnz() + ilu.upper().nnz());
  std::printf("sequential solve: %.3f ms\n\n", seq_ms);
  std::printf("%8s %16s %16s %10s\n", "procs", "pre-sched (ms)",
              "self-exec (ms)", "max err");

  for (const int p : {2, 4, 8, 16}) {
    Runtime rt(p);
    ThreadTeam& team = rt.team();
    DoconsiderOptions pre_opts;
    pre_opts.execution = ExecutionPolicy::kPreScheduled;
    ParallelTriangularSolver pre(rt, ilu, pre_opts);
    DoconsiderOptions self_opts;
    self_opts.execution = ExecutionPolicy::kSelfExecuting;
    ParallelTriangularSolver self(rt, ilu, self_opts);

    const double pre_ms = min_time_ms(
        5, [&] { pre.solve(team, prob.system.rhs, y_par); });
    const double self_ms = min_time_ms(
        5, [&] { self.solve(team, prob.system.rhs, y_par); });

    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(y_par[static_cast<std::size_t>(i)] -
                                   y_seq[static_cast<std::size_t>(i)]));
    }
    std::printf("%8d %16.3f %16.3f %10.2e\n", p, pre_ms, self_ms, err);
  }
  return 0;
}
