// Full preconditioned Krylov solve (the PCGPAK scenario): GMRES(30) with
// a parallel ILU(0) preconditioner on the SPE5 reservoir-style problem.
// Every phase that PCGPAK parallelizes is exercised: parallel numeric
// factorization, parallel triangular solves inside the preconditioner,
// and block-parallel SpMV / SAXPY / dot kernels.
//
// The preconditioners are built on one `rtl::Runtime`, whose structure-
// keyed plan cache is what makes the *second* setup with the same sparsity
// (the re-factorization scenario: new values, old structure) skip the
// inspectors entirely — watch the hit/miss counters below.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/runtime.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "workload/problems.hpp"

int main() {
  using namespace rtl;
  const auto prob = make_spe5();
  const auto& a = prob.system.a;
  std::printf("problem %s: n = %d, nnz = %d\n", prob.name.c_str(), a.rows(),
              a.nnz());

  // RTL_PROCS when set, else one member per hardware thread: a larger team
  // oversubscribes the busy-wait executors.
  Runtime rt(default_solver_team_size(0));
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting}) {
    ThreadTeam& team = rt.team();
    DoconsiderOptions opts;
    opts.execution = exec;

    WallTimer setup_timer;
    IluPreconditioner precond(rt, a, 0, opts);
    const double setup_ms = setup_timer.elapsed_ms();

    // Rebuild for the same structure: every inspector comes from the plan
    // cache this time, so the setup cost collapses to the symbolic phase.
    WallTimer resetup_timer;
    IluPreconditioner precond_rebuilt(rt, a, 0, opts);
    const double resetup_ms = resetup_timer.elapsed_ms();
    (void)precond_rebuilt;

    WallTimer factor_timer;
    precond.factor(team, a);
    const double factor_ms = factor_timer.elapsed_ms();

    std::vector<real_t> x(static_cast<std::size_t>(a.rows()), 0.0);
    KrylovOptions kopt;
    kopt.rtol = 1e-10;
    kopt.max_iterations = 400;

    WallTimer solve_timer;
    const auto res = gmres_solve(rt, a, prob.system.rhs, x, &precond, kopt);
    const double solve_ms = solve_timer.elapsed_ms();

    // True residual check.
    std::vector<real_t> r(x.size());
    a.spmv(x, r);
    double rn = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      rn += (r[i] - prob.system.rhs[i]) * (r[i] - prob.system.rhs[i]);
    }

    std::printf(
        "\n%s executor:\n"
        "  inspector + symbolic factorization : %8.2f ms\n"
        "  rebuild, warm plan cache           : %8.2f ms\n"
        "  parallel numeric factorization     : %8.2f ms\n"
        "  GMRES(30) solve                    : %8.2f ms, %d iterations, "
        "%s\n"
        "  true residual                      : %.3e\n",
        exec == ExecutionPolicy::kPreScheduled ? "pre-scheduled"
                                               : "self-executing",
        setup_ms, resetup_ms, factor_ms, solve_ms, res.iterations,
        res.converged ? "converged" : "NOT converged", std::sqrt(rn));
  }

  const auto cc = rt.plan_cache_counters();
  std::printf(
      "\nplan cache: %llu hits, %llu misses, %zu cached plans\n",
      static_cast<unsigned long long>(cc.hits),
      static_cast<unsigned long long>(cc.misses), cc.entries);
  return 0;
}
