// Ablations over the design choices DESIGN.md calls out:
//  A. partition shape for local scheduling (wrapped vs block),
//  B. inspector parallelization (sequential vs striped busy-wait sweep),
//  C. ILU fill level (preconditioner quality vs triangular-solve shape),
//  D. schedule indirection (doacross vs reordered self-executing loop),
//  E. the self-executing loop next to the global schedule deal.
// Every executor run goes through `Plan::execute` — the executor shape is
// selected by `DoconsiderOptions` alone.

#include <cstdio>

#include <string>

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "core/schedule.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"

int main() {
  using namespace rtl;
  using namespace rtl::bench;
  const int p = default_procs();
  const int reps = default_reps();
  ThreadTeam team(p);
  Reporter report("bench_ablation");

  DoconsiderOptions self_opts;
  self_opts.execution = ExecutionPolicy::kSelfExecuting;

  // --- A: wrapped vs block partition under local scheduling -------------
  std::printf("A. Local scheduling partition shape (%d procs, self-exec)\n",
              p);
  std::printf("%-8s %12s %12s %14s %14s\n", "Problem", "wrap (ms)",
              "block (ms)", "E_sym(wrap)", "E_sym(block)");
  for (const auto& c : table23_cases()) {
    DoconsiderOptions wrap_opts = self_opts;
    wrap_opts.scheduling = SchedulingPolicy::kLocalWrapped;
    DoconsiderOptions block_opts = self_opts;
    block_opts.scheduling = SchedulingPolicy::kLocalBlock;
    const Plan wrap_plan(team, DependenceGraph(c.graph), wrap_opts);
    const Plan block_plan(team, DependenceGraph(c.graph), block_opts);
    const Stats tw = time_lower(team, c, wrap_plan, reps);
    const Stats tb = time_lower(team, c, block_plan, reps);
    const auto ew =
        estimate_self_executing(wrap_plan.schedule(), c.graph, c.work);
    const auto eb =
        estimate_self_executing(block_plan.schedule(), c.graph, c.work);
    std::printf("%-8s %12.3f %12.3f %14.3f %14.3f\n", c.name.c_str(),
                tw.min, tb.min, ew.efficiency, eb.efficiency);
    report.add(c.name, "partition_wrapped_ms", tw);
    report.add(c.name, "partition_block_ms", tb);
    report.add_scalar(c.name, "sym_eff_wrapped", ew.efficiency, "eff");
    report.add_scalar(c.name, "sym_eff_block", eb.efficiency, "eff");
  }

  // --- B: inspector parallelization --------------------------------------
  std::printf("\nB. Topological sort: sequential vs parallel sweep (ms)\n");
  std::printf("%-8s %10s %10s %9s\n", "Problem", "seq", "parallel",
              "speedup");
  for (const auto& c : table23_cases()) {
    const Stats ts =
        measure_ms(reps, [&] { (void)compute_wavefronts(c.graph); });
    const Stats tp = measure_ms(
        reps, [&] { (void)compute_wavefronts_parallel(c.graph, team); });
    std::printf("%-8s %10.3f %10.3f %9.2f\n", c.name.c_str(), ts.min,
                tp.min, ts.min / tp.min);
    report.add(c.name, "sort_sequential_ms", ts);
    report.add(c.name, "sort_parallel_ms", tp);
  }

  // --- C: ILU fill level --------------------------------------------------
  // Built on a Runtime so the plan-cache counters land in the JSON: the
  // three fill levels have distinct structures (all misses), but each
  // preconditioner's lower/upper plans are fetched again at apply time.
  std::printf(
      "\nC. ILU(k) fill level on 5-PT: GMRES iterations vs solve shape\n");
  std::printf("%5s %10s %10s %8s %12s\n", "level", "nnz(L+U)", "waves",
              "iters", "solve (ms)");
  const auto sys5 = make_5pt().system;
  Runtime rt(p);
  for (const int level : {0, 1, 2}) {
    DoconsiderOptions opts;
    opts.execution = ExecutionPolicy::kSelfExecuting;
    IluPreconditioner precond(rt, sys5.a, level, opts);
    precond.factor(rt.team(), sys5.a);
    const auto g = lower_solve_dependences(precond.factors().lower());
    const auto wf = compute_wavefronts(g);
    std::vector<real_t> x(static_cast<std::size_t>(sys5.a.rows()), 0.0);
    KrylovOptions kopt;
    kopt.rtol = 1e-8;
    kopt.max_iterations = 300;
    WallTimer t;
    const auto res =
        gmres_solve(rt.team(), sys5.a, sys5.rhs, x, &precond, kopt);
    const double solve_ms = t.elapsed_ms();
    std::printf("%5d %10d %10d %8d %12.1f\n", level,
                precond.factors().lower().nnz() +
                    precond.factors().upper().nnz(),
                wf.num_waves, res.iterations, solve_ms);
    const std::string grp = "ilu_level_" + std::to_string(level);
    report.add_scalar(grp, "nnz_lu",
                      precond.factors().lower().nnz() +
                          precond.factors().upper().nnz(),
                      "count");
    report.add_scalar(grp, "waves", wf.num_waves, "count");
    report.add_scalar(grp, "iterations", res.iterations, "count");
    // A raw single-rep wall measurement, not a derived estimate: keep it
    // in the gated "ms" unit.
    report.add_scalar(grp, "solve_ms", solve_ms, "ms");
  }
  report.add_plan_cache(rt.plan_cache_counters());

  // --- E: self-executing loop + the global deal ------------------------
  // (The parallel counting sort that used to back global_schedule_parallel
  // now lives inside compute_wavefronts_parallel, timed in section B; the
  // deal over the precomputed wavefront order is what remains here.)
  std::printf(
      "\nE. Self-executing loop and the global schedule deal (%d procs)\n",
      p);
  std::printf("%-8s %12s | %12s %12s\n", "Problem", "static(ms)",
              "globsched", "plan (KiB)");
  for (const auto& c : table23_cases()) {
    const Plan static_plan(team, DependenceGraph(c.graph), self_opts);
    const Stats t_static = time_lower(team, c, static_plan, reps);

    const Stats t_sched = measure_ms(
        reps, [&] { (void)global_schedule(c.wavefronts, p); });
    std::printf("%-8s %12.3f | %12.3f %12.1f\n", c.name.c_str(),
                t_static.min, t_sched.min,
                static_cast<double>(static_plan.memory_footprint()) / 1024.0);
    report.add(c.name, "self_static_ms", t_static);
    report.add(c.name, "global_schedule_ms", t_sched);
    report.add_plan_stats(c.name, static_plan.stats());
  }

  // --- D: doacross vs reordered self-executing ---------------------------
  std::printf("\nD. Doacross vs self-executing (reordered) loop (ms)\n");
  std::printf("%-8s %12s %12s\n", "Problem", "doacross", "self-exec");
  for (const auto& c : table23_cases()) {
    DoconsiderOptions doacross_opts;
    doacross_opts.execution = ExecutionPolicy::kDoAcross;
    const Plan doacross_plan(team, DependenceGraph(c.graph), doacross_opts);
    const Plan self_plan(team, DependenceGraph(c.graph), self_opts);
    const Stats td = time_lower(team, c, doacross_plan, reps);
    const Stats tse = time_lower(team, c, self_plan, reps);
    std::printf("%-8s %12.3f %12.3f\n", c.name.c_str(), td.min, tse.min);
    report.add(c.name, "doacross_ms", td);
    report.add(c.name, "self_exec_reordered_ms", tse);
  }
  return 0;
}
