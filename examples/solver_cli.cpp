// Command-line solver driver: the executable a downstream user runs on
// their own system.
//
//   solver_cli [--matrix FILE.mtx | --problem NAME] [--procs P]
//              [--exec p2p|self|pre|doacross] [--sched global|local]
//              [--level K] [--rtol R] [--maxit N] [--rhs K]
//              [--reorder none|rcm|wavefront]
//              [--save-plan F] [--load-plan F]
//
// Reads a Matrix Market file (or generates a named Appendix I problem),
// builds the ILU(K) preconditioner with the chosen inspector/executor
// configuration, runs GMRES(30), and reports timings, iteration counts
// and the inspector statistics. P defaults to RTL_PROCS when set, else
// the host's hardware threads, so the busy-wait executors never
// oversubscribe by default. With --rhs K > 1, K right-hand sides are
// solved through the multi-RHS driver: the inspector, the factorization
// and the bound solve kernels are paid once and amortized over all K
// solves (per-rhs setup and solve times are reported).
//
// A preconditioned solve uses three plans (numeric factorization, forward
// solve, backward solve), so --save-plan F writes a three-file bundle —
// F (lower/forward), F.upper, F.factor — in the core/plan_io binary
// format, and --load-plan F adopts the same bundle into the Runtime's
// plan cache before setup, skipping all three inspector runs when the
// structures and options match ("inspector runs : 0" in the plan cache
// line). RTL_PLAN_CACHE_DIR offers the same warm start implicitly,
// keyed by structure fingerprint.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/plan_io.hpp"
#include "core/runtime.hpp"
#include "graph/wavefront.hpp"
#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/reorder.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"

namespace {

using namespace rtl;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--matrix FILE.mtx | --problem NAME] [--procs P]\n"
      "          [--exec p2p|self|pre|doacross] [--sched global|local]\n"
      "          [--level K] [--rtol R] [--maxit N] [--rhs K]\n"
      "          [--reorder none|rcm|wavefront]\n"
      "          [--save-plan F] [--load-plan F]\n"
      "NAME: spe1..spe5, 5pt, 9pt, 7pt, l5pt, l9pt, l7pt\n"
      "P defaults to RTL_PROCS when set, else the host's hardware threads.\n"
      "--reorder applies a symmetric permutation before factoring: rcm\n"
      "(bandwidth-reducing) or wavefront (level-set order); before/after\n"
      "bandwidth and forward-solve wavefront counts are printed.\n"
      "--save-plan writes the three solve plans (forward, backward,\n"
      "factorization) to F, F.upper, F.factor; --load-plan adopts the\n"
      "same bundle so matching structures skip the inspector entirely.\n",
      argv0);
  return 2;
}

LinearSystem named_problem(const std::string& name) {
  if (name == "spe1") return make_spe1().system;
  if (name == "spe2") return make_spe2().system;
  if (name == "spe3") return make_spe3().system;
  if (name == "spe4") return make_spe4().system;
  if (name == "spe5") return make_spe5().system;
  if (name == "5pt") return make_5pt().system;
  if (name == "9pt") return make_9pt().system;
  if (name == "7pt") return make_7pt().system;
  if (name == "l5pt") return make_l5pt().system;
  if (name == "l9pt") return make_l9pt().system;
  if (name == "l7pt") return make_l7pt().system;
  throw std::runtime_error("unknown problem name: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix_path;
  std::string problem = "spe5";
  int procs = default_solver_team_size(0);
  int level = 0;
  int nrhs = 1;
  std::string reorder = "none";
  std::string save_plan_path;
  std::string load_plan_path;
  DoconsiderOptions opts;
  KrylovOptions kopt;
  kopt.rtol = 1e-8;
  kopt.max_iterations = 500;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
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
    } else if (arg == "--rtol") {
      kopt.rtol = std::atof(next());
    } else if (arg == "--maxit") {
      kopt.max_iterations = std::atoi(next());
    } else if (arg == "--rhs") {
      nrhs = std::atoi(next());
      if (nrhs < 1) return usage(argv[0]);
    } else if (arg == "--exec") {
      const std::string v = next();
      if (v == "p2p") {
        opts.execution = ExecutionPolicy::kPointToPoint;
      } else if (v == "self") {
        opts.execution = ExecutionPolicy::kSelfExecuting;
      } else if (v == "pre") {
        opts.execution = ExecutionPolicy::kPreScheduled;
      } else if (v == "doacross") {
        opts.execution = ExecutionPolicy::kDoAcross;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--reorder") {
      reorder = next();
      if (reorder != "none" && reorder != "rcm" && reorder != "wavefront") {
        return usage(argv[0]);
      }
    } else if (arg == "--save-plan") {
      save_plan_path = next();
    } else if (arg == "--load-plan") {
      load_plan_path = next();
    } else if (arg == "--sched") {
      const std::string v = next();
      if (v == "global") {
        opts.scheduling = SchedulingPolicy::kGlobal;
      } else if (v == "local") {
        opts.scheduling = SchedulingPolicy::kLocalWrapped;
      } else {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (procs < 1) return usage(argv[0]);

  try {
    LinearSystem sys;
    if (!matrix_path.empty()) {
      sys.a = read_matrix_market_file(matrix_path);
      if (sys.a.rows() != sys.a.cols()) {
        std::fprintf(stderr, "matrix must be square\n");
        return 1;
      }
      // rhs = A * ones: a solvable system with known solution.
      std::vector<real_t> ones(static_cast<std::size_t>(sys.a.rows()), 1.0);
      sys.rhs.resize(ones.size());
      sys.a.spmv(ones, sys.rhs);
      std::printf("matrix   : %s\n", matrix_path.c_str());
    } else {
      sys = named_problem(problem);
      std::printf("problem  : %s\n", problem.c_str());
    }
    std::printf("n        : %d, nnz: %d\n", sys.a.rows(), sys.a.nnz());

    if (reorder != "none") {
      // Reordering changes the available parallelism (§3 related work):
      // RCM shrinks the bandwidth, the wavefront order makes level sets
      // contiguous. Print both structure metrics before and after so the
      // effect on the schedules below is attributable.
      const auto forward_waves = [](const CsrMatrix& a) {
        return compute_wavefronts(lower_solve_dependences(a.strict_lower()))
            .num_waves;
      };
      const index_t bw_before = bandwidth(sys.a);
      const index_t waves_before = forward_waves(sys.a);
      const Permutation perm = reorder == "rcm"
                                   ? reverse_cuthill_mckee(sys.a)
                                   : wavefront_order(sys.a);
      sys.a = permute_symmetric(sys.a, perm);
      // Row perm[k] of A becomes row k, so the rhs follows the same map.
      std::vector<real_t> rhs(sys.rhs.size());
      for (std::size_t i = 0; i < rhs.size(); ++i) {
        rhs[i] = sys.rhs[static_cast<std::size_t>(perm.perm[i])];
      }
      sys.rhs = std::move(rhs);
      std::printf(
          "reorder  : %s, bandwidth %d -> %d, forward waves %d -> %d\n",
          reorder.c_str(), bw_before, bandwidth(sys.a), waves_before,
          forward_waves(sys.a));
    }

    Runtime rt(procs);
    ThreadTeam& team = rt.team();
    if (!load_plan_path.empty()) {
      // Warm start: seed the plan cache with the saved bundle before any
      // inspector could run. Mismatched bundles (different structure or
      // options) simply never hit; a wrong processor count is an error.
      rt.adopt_plan(load_plan_file(load_plan_path));
      rt.adopt_plan(load_plan_file(load_plan_path + ".upper"));
      rt.adopt_plan(load_plan_file(load_plan_path + ".factor"));
      std::printf("plans    : adopted bundle %s{,.upper,.factor}\n",
                  load_plan_path.c_str());
    }
    WallTimer inspect_timer;
    IluPreconditioner precond(rt, sys.a, level, opts);
    const double inspect_ms = inspect_timer.elapsed_ms();
    WallTimer factor_timer;
    precond.factor(team, sys.a);
    const double factor_ms = factor_timer.elapsed_ms();

    const auto& solver = precond.triangular_solver();
    if (!save_plan_path.empty()) {
      save_plan_file(solver.lower_plan(), save_plan_path);
      save_plan_file(solver.upper_plan(), save_plan_path + ".upper");
      save_plan_file(precond.factor_plan(), save_plan_path + ".factor");
      std::printf("plans    : saved bundle %s{,.upper,.factor}\n",
                  save_plan_path.c_str());
    }
    std::printf("waves    : %d (forward solve), %d (backward solve)\n",
                solver.lower_plan().wavefronts().num_waves,
                solver.upper_plan().wavefronts().num_waves);
    std::printf("inspector: %.2f ms, numeric factorization: %.2f ms\n",
                inspect_ms, factor_ms);
    const auto cc = rt.plan_cache_counters();
    std::printf(
        "plan cache: %llu hit(s), disk %llu/%llu/%llu/%llu "
        "(hit/miss/write/reject), inspector runs : %llu\n",
        static_cast<unsigned long long>(cc.hits),
        static_cast<unsigned long long>(cc.disk_hits),
        static_cast<unsigned long long>(cc.disk_misses),
        static_cast<unsigned long long>(cc.disk_writes),
        static_cast<unsigned long long>(cc.disk_rejects),
        static_cast<unsigned long long>(cc.misses));

    if (nrhs == 1) {
      std::vector<real_t> x(static_cast<std::size_t>(sys.a.rows()), 0.0);
      WallTimer solve_timer;
      const auto res = gmres_solve(team, sys.a, sys.rhs, x, &precond, kopt);
      const double solve_ms = solve_timer.elapsed_ms();

      std::vector<real_t> r(x.size());
      sys.a.spmv(x, r);
      double rn = 0.0, bn = 0.0;
      for (std::size_t i = 0; i < r.size(); ++i) {
        rn += (r[i] - sys.rhs[i]) * (r[i] - sys.rhs[i]);
        bn += sys.rhs[i] * sys.rhs[i];
      }
      std::printf("solve    : %.2f ms, %d iterations, %s\n", solve_ms,
                  res.iterations,
                  res.converged ? "converged" : "NOT converged");
      std::printf("residual : %.3e (relative)\n",
                  std::sqrt(rn) / (bn > 0 ? std::sqrt(bn) : 1.0));
      return res.converged ? 0 : 1;
    }

    // Multi-RHS: the inspector + factorization above are shared by all
    // K solves; each column gets its own Krylov iteration. Column j's
    // right-hand side is A * v_j for a deterministic family of vectors
    // v_j, so every system has a known solution.
    const index_t n = sys.a.rows();
    const index_t k = static_cast<index_t>(nrhs);
    BatchBuffer b(n, k), x(n, k);
    std::vector<real_t> vj(static_cast<std::size_t>(n));
    std::vector<real_t> col(static_cast<std::size_t>(n));
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < n; ++i) {
        vj[static_cast<std::size_t>(i)] =
            1.0 + 0.5 * static_cast<real_t>((i + j) % 7);
      }
      sys.a.spmv(vj, col);
      b.set_column(j, col);
      std::fill(vj.begin(), vj.end(), 0.0);
      x.set_column(j, vj);
    }
    WallTimer solve_timer;
    const auto results =
        gmres_solve(team, sys.a, b.view(), x.view(), &precond, kopt);
    const double solve_ms = solve_timer.elapsed_ms();

    int converged = 0, total_iters = 0;
    for (const auto& res : results) {
      if (res.converged) ++converged;
      total_iters += res.iterations;
    }
    std::printf(
        "solve    : %d rhs, %.2f ms total (%.2f ms/rhs), %d iterations "
        "total, %d/%d converged\n",
        nrhs, solve_ms, solve_ms / static_cast<double>(nrhs), total_iters,
        converged, nrhs);
    std::printf(
        "amortized: inspector %.2f ms + factorization %.2f ms paid once "
        "across %d solves (%.2f ms/rhs)\n",
        inspect_ms, factor_ms, nrhs,
        (inspect_ms + factor_ms) / static_cast<double>(nrhs));
    return converged == nrhs ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
