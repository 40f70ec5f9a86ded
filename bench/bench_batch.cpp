// Batched multi-RHS triangular solves through the kernel layer.
//
// The plan amortizes the inspector across executions (§5.1.1); a batched
// kernel sweep amortizes the per-wavefront synchronization across
// right-hand sides: one barrier per phase (pre-scheduled) or one
// ready-flag publish per row (self-executing) regardless of the batch
// width k. This driver measures ms-per-rhs of the fused ILU(0) apply
// (L then U solve) for k in {1, 4, 16} against k sequential single-RHS
// kernel solves, plus the single-RHS lambda-vs-kernel control: the
// classic per-call capturing-lambda body (the pre-kernel-layer solver
// path) timed side by side with the bound-kernel path in the same
// binary.
//
// Unlike the table benches this driver is NOT work-amplified: the point
// is the real synchronization-to-compute ratio of the raw numeric
// kernel, which is exactly what batching improves. (RTL_AMP is recorded
// in the JSON config but unused here.)
//
// It also times the barrier (pre-scheduled) executor on the same
// batches, pinned bit-for-bit to the default executor, and emits its
// synchronization-event counters: `flag_publishes` and `barrier_waits`
// are deterministic (unit "count", exact-match gated by
// scripts/compare_bench.py), so on hosts too noisy for wall-clock deltas
// they are the accepted evidence of one barrier per phase regardless of
// the batch width (docs/PERF.md).
//
// The SpMV kernel family gets its own `spmv_k*` sweep, verified
// bit-for-bit against k single applies; the float32-storage apply
// (`batch_f32_k16_*`) and the column gather/scatter micro-records round
// out the set. Each kernel record carries its roofline bytes-touched
// model (`*_bytes`) and achieved bandwidth (`*_gbps`, informational
// units — not gated). The RTL_REORDER knob (none/rcm/wavefront) permutes
// the case matrices before factoring and is stamped into the JSON config
// so compared runs are always apples-to-apples.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "kernel/spmv_kernel.hpp"
#include "solver/parallel_triangular.hpp"
#include "sparse/reorder.hpp"

namespace {

using namespace rtl;
using namespace rtl::bench;

/// The pre-kernel-layer solve path: per-call capturing lambdas over the
/// factors, exactly as `ParallelTriangularSolver` was written before the
/// kernel layer existed. Kept here as the in-binary control for the
/// lambda-vs-kernel single-RHS comparison.
void lambda_solve(ThreadTeam& team, const IluFactorization& ilu,
                  const Plan& lower_plan, const Plan& upper_plan,
                  std::span<const real_t> rhs, std::span<real_t> tmp,
                  std::span<real_t> y) {
  const CsrMatrix& lower = ilu.lower();
  lower_plan.execute(team, [&](index_t i) {
    real_t sum = rhs[static_cast<std::size_t>(i)];
    const auto cs = lower.row_cols(i);
    const auto vs = lower.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      sum -= vs[k] * tmp[static_cast<std::size_t>(cs[k])];
    }
    tmp[static_cast<std::size_t>(i)] = sum;
  });
  const CsrMatrix& upper = ilu.upper();
  const index_t n = upper.rows();
  upper_plan.execute(team, [&](index_t k) {
    const index_t row = n - 1 - k;
    real_t sum = tmp[static_cast<std::size_t>(row)];
    const auto cs = upper.row_cols(row);
    const auto vs = upper.row_vals(row);
    for (std::size_t t = 1; t < cs.size(); ++t) {
      sum -= vs[t] * y[static_cast<std::size_t>(cs[t])];
    }
    y[static_cast<std::size_t>(row)] = sum / vs[0];
  });
}

/// The RTL_REORDER knob, normalized to lower case ("none" when unset).
std::string reorder_mode() {
  const char* raw = std::getenv("RTL_REORDER");
  if (raw == nullptr || *raw == '\0') return "none";
  std::string v(raw);
  for (char& ch : v) ch = static_cast<char>(std::tolower(ch));
  return v;
}

/// Symmetrically permute a test problem in place: `mode` is "rcm" or
/// "wavefront" (see sparse/reorder.hpp). Row perm[k] of A becomes row k,
/// so the rhs is gathered through the same permutation.
TestProblem apply_reorder(TestProblem prob, const std::string& mode) {
  if (mode == "none") return prob;
  const Permutation perm = mode == "rcm"
                               ? reverse_cuthill_mckee(prob.system.a)
                               : wavefront_order(prob.system.a);
  CsrMatrix permuted = permute_symmetric(prob.system.a, perm);
  std::vector<real_t> rhs(prob.system.rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = prob.system.rhs[static_cast<std::size_t>(perm.perm[i])];
  }
  prob.system.a = std::move(permuted);
  prob.system.rhs = std::move(rhs);
  return prob;
}

}  // namespace

int main() {
  const int p = default_procs();
  const int reps = default_reps();
  const index_t widths[] = {1, 4, 16};

  Runtime rt(p);
  ThreadTeam& team = rt.team();
  Reporter report("bench_batch");
  report.add_config("amplified", "no");

  const std::string reorder = reorder_mode();
  if (reorder != "none" && reorder != "rcm" && reorder != "wavefront") {
    std::fprintf(stderr, "bench_batch: RTL_REORDER=%s (want none|rcm|wavefront)\n",
                 reorder.c_str());
    return 2;
  }
  report.add_config("reorder", reorder);

  std::printf("Batched multi-RHS ILU(0) apply, %d procs, %d reps\n", p,
              reps);
  std::printf("%-8s %12s %12s | %10s %10s %10s  (ms per rhs)\n", "Problem",
              "lambda k=1", "kernel k=1", "k=1", "k=4", "k=16");

  std::vector<SolveCase> cases;
  cases.emplace_back(apply_reorder(make_5pt(), reorder));
  cases.emplace_back(apply_reorder(make_l5pt(), reorder));
  for (const auto& c : cases) {
    const index_t n = c.ilu.size();
    const std::size_t nz = static_cast<std::size_t>(n);
    ParallelTriangularSolver solver(rt, c.ilu);

    // Single-RHS control pair: the old lambda path vs the bound kernel.
    std::vector<real_t> rhs(c.system.rhs);
    std::vector<real_t> tmp(nz), y_lambda(nz), y_kernel(nz);
    const Stats lambda_ms = measure_ms(reps, [&] {
      lambda_solve(team, c.ilu, solver.lower_plan(), solver.upper_plan(),
                   rhs, tmp, y_lambda);
    });
    const Stats kernel_ms = measure_ms(reps, [&] {
      solver.solve(team, rhs, tmp, y_kernel);
    });
    if (y_lambda != y_kernel) {
      std::fprintf(stderr, "%s: kernel path diverged from lambda path\n",
                   c.name.c_str());
      return 1;
    }
    report.add(c.name, "lambda_single_ms", lambda_ms);
    report.add(c.name, "kernel_single_ms", kernel_ms);
    report.add_plan_stats(c.name, solver.lower_plan().stats());

    std::printf("%-8s %12.3f %12.3f |", c.name.c_str(), lambda_ms.min,
                kernel_ms.min);

    // Batched sweeps: per-rhs cost vs batch width, verified against k
    // sequential single-RHS solves.
    for (const index_t k : widths) {
      BatchBuffer brhs(n, k), bx(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        brhs.set_column(j, col);
      }
      const Stats batch_ms = measure_ms(reps, [&] {
        solver.solve(team, brhs.view(), bx.view());
      });

      // k sequential single-RHS kernel solves of the same columns — the
      // amortization baseline and the bit-for-bit reference. Columns are
      // gathered outside the timed region so both sides time only the
      // solve paths.
      std::vector<std::vector<real_t>> cols(static_cast<std::size_t>(k));
      for (index_t j = 0; j < k; ++j) {
        cols[static_cast<std::size_t>(j)].resize(nz);
        brhs.get_column(j, cols[static_cast<std::size_t>(j)]);
      }
      std::vector<real_t> colx(nz);
      const Stats singles_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) {
          solver.solve(team, cols[static_cast<std::size_t>(j)], tmp, colx);
        }
      });
      bool identical = true;
      for (index_t j = 0; j < k && identical; ++j) {
        solver.solve(team, cols[static_cast<std::size_t>(j)], tmp, colx);
        for (index_t i = 0; i < n; ++i) {
          if (bx.view().at(i, j) != colx[static_cast<std::size_t>(i)]) {
            identical = false;
            break;
          }
        }
      }
      if (!identical) {
        std::fprintf(stderr,
                     "%s: batched k=%d diverged from single-RHS solves\n",
                     c.name.c_str(), k);
        return 1;
      }

      const std::string kk = "batch_k" + std::to_string(k);
      report.add(c.name, kk + "_solve_ms", batch_ms);
      report.add_scalar(c.name, kk + "_ms_per_rhs",
                        batch_ms.mean / static_cast<double>(k),
                        "ms-derived");
      report.add_scalar(c.name, "singles_k" + std::to_string(k) +
                                    "_ms_per_rhs",
                        singles_ms.mean / static_cast<double>(k),
                        "ms-derived");

      // Roofline traffic of the fused L+U apply at this width, and the
      // achieved bandwidth of the timed batched solve (informational:
      // unit is not gated).
      const double bytes = static_cast<double>(
          solver.kernel().lower().bytes_per_solve(k) +
          solver.kernel().upper().bytes_per_solve(k));
      report.add_scalar(c.name, kk + "_bytes", bytes, "bytes");
      report.add_scalar(c.name, kk + "_gbps",
                        bytes / (batch_ms.min * 1e6), "GB/s");
      std::printf(" %10.4f", batch_ms.min / static_cast<double>(k));
    }

    // Float32-storage batched apply at the widest batch: same sweep,
    // half the per-lane traffic (double accumulation inside the rows).
    {
      const index_t k = 16;
      BatchBufferF frhs(n, k), fx(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<float> col(nz);
        for (index_t i = 0; i < n; ++i) {
          col[static_cast<std::size_t>(i)] = static_cast<float>(
              rhs[static_cast<std::size_t>(i)] *
              (1.0 + 0.25 * static_cast<real_t>(j)));
        }
        frhs.set_column(j, col);
      }
      const Stats f32_ms = measure_ms(reps, [&] {
        solver.solve(team, frhs.view(), fx.view());
      });
      const double fbytes = static_cast<double>(
          solver.kernel().lower().bytes_per_solve(k, sizeof(float)) +
          solver.kernel().upper().bytes_per_solve(k, sizeof(float)));
      report.add(c.name, "batch_f32_k16_solve_ms", f32_ms);
      report.add_scalar(c.name, "batch_f32_k16_ms_per_rhs",
                        f32_ms.mean / static_cast<double>(k), "ms-derived");
      report.add_scalar(c.name, "batch_f32_k16_bytes", fbytes, "bytes");
      report.add_scalar(c.name, "batch_f32_k16_gbps",
                        fbytes / (f32_ms.min * 1e6), "GB/s");
    }

    // Column gather/scatter micro-bench: the strided batch<->vector
    // round-trip the batched Krylov drivers ride per tick (GMRES per-column
    // post-processing). Vectorized strided loops in kernel/batch.hpp.
    {
      const index_t k = 16;
      BatchBuffer buf(n, k);
      std::vector<real_t> col(nz);
      const Stats gather_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) buf.get_column(j, col);
      });
      const Stats scatter_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) buf.set_column(j, col);
      });
      report.add(c.name, "column_gather16_ms", gather_ms);
      report.add(c.name, "column_scatter16_ms", scatter_ms);
    }
    std::printf("\n");

    // The pre-scheduled (barrier) executor on the same batches, pinned
    // bit-for-bit to the default executor's batched result, with its
    // synchronization counters emitted alongside the timings.
    DoconsiderOptions barrier_opts;
    barrier_opts.execution = ExecutionPolicy::kPreScheduled;
    ParallelTriangularSolver barrier_solver(rt, c.ilu, barrier_opts);
    for (const index_t k : widths) {
      BatchBuffer brhs(n, k), bx_bar(n, k), bx_def(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        brhs.set_column(j, col);
      }
      const Stats bar_ms = measure_ms(reps, [&] {
        barrier_solver.solve(team, brhs.view(), bx_bar.view());
      });
      solver.solve(team, brhs.view(), bx_def.view());
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i) {
          if (bx_bar.view().at(i, j) != bx_def.view().at(i, j)) {
            std::fprintf(stderr,
                         "%s: pre-scheduled k=%d diverged from the default "
                         "executor\n",
                         c.name.c_str(), k);
            return 1;
          }
        }
      }
      // One clean solve with zeroed counters: the timed reps above
      // already polluted the team's totals.
      team.reset_exec_counters();
      barrier_solver.solve(team, brhs.view(), bx_bar.view());
      const ExecCounters bar_c = team.exec_counters();
      const std::string bk = "barrier_k" + std::to_string(k);
      report.add(c.name, bk + "_solve_ms", bar_ms);
      report.add_scalar(c.name, bk + "_ms_per_rhs",
                        bar_ms.mean / static_cast<double>(k), "ms-derived");
      report.add_scalar(c.name, bk + "_flag_publishes",
                        static_cast<double>(bar_c.flag_publishes), "count");
      report.add_scalar(c.name, bk + "_barrier_waits",
                        static_cast<double>(bar_c.barrier_waits), "count");
      std::printf("%-8s k=%-2d barrier %9.4f ms (%llu waits)\n",
                  c.name.c_str(), k, bar_ms.min,
                  static_cast<unsigned long long>(bar_c.barrier_waits));
    }

    // The second kernel family: batched SpMV through the bound kernel,
    // with roofline records. Verified bit-for-bit against k single
    // applies.
    const auto spmv = SpMVKernel::bind(c.system.a);
    for (const index_t k : widths) {
      BatchBuffer sx(n, k), sy(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        sx.set_column(j, col);
      }
      const Stats spmv_ms = measure_ms(reps, [&] {
        spmv.apply(team, sx.view(), sy.view());
      });

      std::vector<real_t> colx(nz), coly(nz);
      for (index_t j = 0; j < k; ++j) {
        sx.get_column(j, colx);
        spmv.apply(team, colx, coly);
        for (index_t i = 0; i < n; ++i) {
          if (sy.view().at(i, j) != coly[static_cast<std::size_t>(i)]) {
            std::fprintf(stderr,
                         "%s: batched spmv k=%d diverged from single "
                         "applies\n",
                         c.name.c_str(), k);
            return 1;
          }
        }
      }

      const std::string sk = "spmv_k" + std::to_string(k);
      const double sbytes = static_cast<double>(spmv.bytes_per_apply(k));
      report.add(c.name, sk + "_apply_ms", spmv_ms);
      report.add_scalar(c.name, sk + "_ms_per_rhs",
                        spmv_ms.mean / static_cast<double>(k), "ms-derived");
      report.add_scalar(c.name, sk + "_bytes", sbytes, "bytes");
      report.add_scalar(c.name, sk + "_gbps",
                        sbytes / (spmv_ms.min * 1e6), "GB/s");
      std::printf("%-8s spmv k=%-2d %9.4f ms\n", c.name.c_str(), k,
                  spmv_ms.min);
    }
  }
  report.add_config("simd_compiled", simd_compiled() ? "yes" : "no");
  report.add_plan_cache(rt.plan_cache_counters());
  return 0;
}
