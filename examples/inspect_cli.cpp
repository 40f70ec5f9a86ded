// Inspector CLI: analyze the run-time parallelism of a sparse system
// without solving it.
//
//   inspect_cli [--matrix FILE.mtx | --problem NAME] [--procs P]
//               [--level K] [--reorder natural|rcm|wavefront]
//               [--save-plan F] [--load-plan F]
//
// Prints the dependence-graph statistics of the ILU(K) forward solve
// (wavefront count, width distribution, critical path), the symbolic
// efficiencies of the four scheduling/execution combinations on P
// processors (the paper's Figure 1 matrix), the inspector costs, and the
// plan fingerprint plus Runtime plan-cache counters (one cold and one
// warm `plan_for`, so cache behavior is observable from the shell). P
// defaults to RTL_PROCS when set, else the host's hardware threads, as in
// solver_cli, so a bundle saved with the defaults loads there with them.
//
// --save-plan F serializes the plans a default-option IluPreconditioner
// builds (forward plan to F, backward to F.upper, numeric-factorization
// to F.factor, all planned for one-lane work) in the core/plan_io binary
// format — the producer half of `solver_cli --load-plan F`. Batched
// solves plan on first use and are not in the bundle. --load-plan F
// instead loads F, prints the stored artifact's statistics, and verifies
// its structure fingerprint against the current matrix's forward-solve
// graph (exit 1 on mismatch), making it a shell-scriptable plan validity
// check.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/plan_io.hpp"
#include "core/runtime.hpp"
#include "graph/wavefront.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "sparse/ilu.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/reorder.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"

namespace {

using namespace rtl;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--matrix FILE.mtx | --problem NAME] [--procs P]\n"
               "          [--level K] [--reorder natural|rcm|wavefront]\n"
               "          [--save-plan F] [--load-plan F]\n"
               "P defaults to RTL_PROCS when set, else the host's hardware "
               "threads.\n",
               argv0);
  return 2;
}

CsrMatrix named_matrix(const std::string& name) {
  if (name == "spe1") return make_spe1().system.a;
  if (name == "spe2") return make_spe2().system.a;
  if (name == "spe3") return make_spe3().system.a;
  if (name == "spe4") return make_spe4().system.a;
  if (name == "spe5") return make_spe5().system.a;
  if (name == "5pt") return make_5pt().system.a;
  if (name == "9pt") return make_9pt().system.a;
  if (name == "7pt") return make_7pt().system.a;
  throw std::runtime_error("unknown problem name: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix_path;
  std::string problem = "spe5";
  std::string reorder = "natural";
  std::string save_plan_path;
  std::string load_plan_path;
  int procs = default_solver_team_size(0);
  int level = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--matrix") {
      matrix_path = next();
    } else if (arg == "--problem") {
      problem = next();
    } else if (arg == "--procs") {
      procs = std::atoi(next());
    } else if (arg == "--level") {
      level = std::atoi(next());
    } else if (arg == "--reorder") {
      reorder = next();
    } else if (arg == "--save-plan") {
      save_plan_path = next();
    } else if (arg == "--load-plan") {
      load_plan_path = next();
    } else {
      return usage(argv[0]);
    }
  }
  if (procs < 1) return usage(argv[0]);

  try {
    CsrMatrix a = matrix_path.empty() ? named_matrix(problem)
                                      : read_matrix_market_file(matrix_path);
    if (a.rows() != a.cols()) {
      std::fprintf(stderr, "matrix must be square\n");
      return 1;
    }
    if (reorder == "rcm") {
      a = permute_symmetric(a, reverse_cuthill_mckee(a));
    } else if (reorder == "wavefront") {
      a = permute_symmetric(a, wavefront_order(a));
    } else if (reorder != "natural") {
      return usage(argv[0]);
    }

    std::printf("matrix     : %s (%s order)\n",
                matrix_path.empty() ? problem.c_str() : matrix_path.c_str(),
                reorder.c_str());
    std::printf("n          : %d, nnz: %d, bandwidth: %d\n", a.rows(),
                a.nnz(), bandwidth(a));

    WallTimer symbolic_timer;
    IluFactorization ilu(a, level);
    std::printf("ILU(%d)     : symbolic %.2f ms, nnz(L)+nnz(U) = %d\n",
                level, symbolic_timer.elapsed_ms(),
                ilu.lower().nnz() + ilu.upper().nnz());

    const auto g = lower_solve_dependences(ilu.lower());
    WallTimer sort_timer;
    const auto wf = compute_wavefronts(g);
    const double sort_ms = sort_timer.elapsed_ms();

    index_t min_w = a.rows(), max_w = 0;
    for (index_t w = 0; w < wf.num_waves; ++w) {
      min_w = std::min(min_w, wf.wave_size(w));
      max_w = std::max(max_w, wf.wave_size(w));
    }
    std::printf(
        "wavefronts : %d (sort %.2f ms); width min/avg/max = %d / %.1f / "
        "%d\n",
        wf.num_waves, sort_ms, min_w,
        static_cast<double>(a.rows()) / std::max<index_t>(1, wf.num_waves),
        max_w);
    std::printf("critical   : %.1f%% of rows lie on the longest chain axis\n",
                100.0 * static_cast<double>(wf.num_waves) /
                    static_cast<double>(std::max<index_t>(1, a.rows())));

    // Figure 1's 2x2 space, evaluated symbolically for this matrix.
    const auto work = row_substitution_work(g);
    const auto sg = global_schedule(wf, procs);
    const auto sl = local_schedule(wf, wrapped_partition(g.size(), procs));
    std::printf("\nsymbolic efficiency on %d processors (Figure 1 grid):\n",
                procs);
    std::printf("  %-22s %-12s %-12s\n", "", "pre-sched", "self-exec");
    std::printf("  %-22s %-12.3f %-12.3f\n", "global scheduling",
                estimate_prescheduled(sg, work).efficiency,
                estimate_self_executing(sg, g, work).efficiency);
    std::printf("  %-22s %-12.3f %-12.3f\n", "local (striped)",
                estimate_prescheduled(sl, work).efficiency,
                estimate_self_executing(sl, g, work).efficiency);
    std::printf("  %-22s %-12s %-12.3f\n", "doacross (baseline)", "-",
                estimate_doacross(g.size(), procs, g, work).efficiency);

    // Plan/Runtime v2: structure fingerprint + cache behavior. The first
    // plan_for pays the inspector (miss); the second, with an identical
    // structure, returns the cached artifact (hit, inspector skipped).
    Runtime rt(procs);
    const auto cold = rt.plan_for(DependenceGraph(g));
    const auto warm = rt.plan_for(DependenceGraph(g));
    const auto cc = rt.plan_cache_counters();
    std::printf("\nplan fingerprint : %016llx (%d procs, %s)\n",
                static_cast<unsigned long long>(cold->fingerprint()), procs,
                cold.get() == warm.get() ? "warm plan_for reused it"
                                         : "UNEXPECTED rebuild");
    std::printf(
        "plan cache       : %llu hit(s), %llu miss(es), %llu eviction(s), "
        "%zu/%zu cached plan(s)\n",
        static_cast<unsigned long long>(cc.hits),
        static_cast<unsigned long long>(cc.misses),
        static_cast<unsigned long long>(cc.evictions), cc.entries,
        rt.plan_cache_capacity());
    std::printf(
        "disk tier        : %llu hit(s), %llu miss(es), %llu write(s), "
        "%llu reject(s)%s%s\n",
        static_cast<unsigned long long>(cc.disk_hits),
        static_cast<unsigned long long>(cc.disk_misses),
        static_cast<unsigned long long>(cc.disk_writes),
        static_cast<unsigned long long>(cc.disk_rejects),
        rt.plan_cache_dir().empty() ? " (disabled)" : " in ",
        rt.plan_cache_dir().c_str());

    if (!save_plan_path.empty()) {
      // The producer half of `solver_cli --load-plan`: the plans a
      // default-option preconditioner asks for at construction, i.e. for
      // one-lane work (the factor's graph is the forward solve's, so F
      // and F.factor hold the same plan).
      const DoconsiderOptions one_lane = options_for_width({}, 1);
      save_plan_file(*rt.plan_for(DependenceGraph(g), one_lane),
                     save_plan_path);
      save_plan_file(
          *rt.plan_for(upper_solve_dependences(ilu.upper()), one_lane),
          save_plan_path + ".upper");
      save_plan_file(*rt.plan_for(ilu.row_dependences(), one_lane),
                     save_plan_path + ".factor");
      std::printf("plan bundle      : saved %s{,.upper,.factor}\n",
                  save_plan_path.c_str());
    }
    if (!load_plan_path.empty()) {
      const auto loaded = load_plan_file(load_plan_path);
      const PlanStats lst = loaded->stats();
      std::printf(
          "loaded plan      : %s — fingerprint %016llx, n=%d, %d phases, "
          "%d procs, %.1f KiB\n",
          load_plan_path.c_str(),
          static_cast<unsigned long long>(loaded->fingerprint()), lst.n,
          lst.phases, loaded->nproc(),
          static_cast<double>(lst.bytes) / 1024.0);
      if (loaded->fingerprint() != cold->fingerprint()) {
        std::fprintf(stderr,
                     "error: loaded plan fingerprint %016llx does not match "
                     "this matrix's forward-solve structure %016llx\n",
                     static_cast<unsigned long long>(loaded->fingerprint()),
                     static_cast<unsigned long long>(cold->fingerprint()));
        return 1;
      }
      std::printf("fingerprint check: loaded plan matches this matrix\n");
    }

    // The flat inspector artifact: what the executor walks on every run.
    const PlanStats st = cold->stats();
    std::printf(
        "plan artifact    : %d phases, wavefront width max/avg = %d / %.1f\n",
        st.phases, st.max_wavefront, st.avg_wavefront);
    std::printf(
        "plan footprint   : %.1f KiB flat CSR (%.1f B/row: dependence CSR + "
        "wavefront membership + schedule + wait lists)\n",
        static_cast<double>(st.bytes) / 1024.0,
        st.n > 0 ? static_cast<double>(st.bytes) / static_cast<double>(st.n)
                 : 0.0);
    std::printf(
        "p2p waits        : %zu cross-processor wait(s) per run, %.1f KiB of "
        "wait lists (default point-to-point executor)\n",
        st.waits, static_cast<double>(st.wait_bytes) / 1024.0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
