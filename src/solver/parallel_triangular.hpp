#pragma once

#include <memory>
#include <mutex>
#include <span>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "kernel/bound_kernel.hpp"
#include "runtime/thread_team.hpp"
#include "sparse/ilu.hpp"

/// Parallel sparse triangular solves via the inspector/executor machinery —
/// the paper's flagship application (Figure 8 + Appendix II §2.2.1).
namespace rtl {

/// Bound-kernel pairs for forward + backward substitution with the factors
/// of an `IluFactorization`. The inspector (wavefronts + schedule, for
/// both the L graph and the reversed-order U graph) comes from the
/// `Runtime`'s structure-keyed plan cache, and the matrix views are
/// validated and bound into `BoundKernel`s once; every solve afterwards
/// drives the fused kernel bodies directly, single right-hand side or
/// batched.
///
/// The plans follow the solve's width (`options_for_width`): single
/// solves, k = 1 batches included, run the one-lane pair bound at
/// construction; wider batches run a second pair, bound through the
/// `Runtime`'s cache on the first batched solve (or by `bind_batched`).
/// The two pairs are the same kernels whenever the options map to
/// themselves, i.e. under every executor except point-to-point `kGlobal`.
class ParallelTriangularSolver {
 public:
  /// Plan solves of `ilu.lower()` / `ilu.upper()` using `rt`'s team and
  /// plan cache: a rebuild for an unchanged sparsity structure skips the
  /// inspector entirely. `rt` and `ilu` must outlive the solver (the
  /// batched kernels are bound later, through `rt`); `ilu`'s *values* may
  /// change between solves (re-factorization), its *structure* must not.
  ParallelTriangularSolver(Runtime& rt, const IluFactorization& ilu,
                           DoconsiderOptions options = {});

  /// y <- L^{-1} rhs (unit lower L). Executor shape per plan options.
  void solve_lower(ThreadTeam& team, std::span<const real_t> rhs,
                   std::span<real_t> y);

  /// y <- U^{-1} rhs. Row substitutions proceed from the last row upward;
  /// iteration k of the executor handles row n-1-k.
  void solve_upper(ThreadTeam& team, std::span<const real_t> rhs,
                   std::span<real_t> y);

  /// y <- U^{-1} L^{-1} rhs (the ILU application).
  void solve(ThreadTeam& team, std::span<const real_t> rhs,
             std::span<real_t> tmp, std::span<real_t> y);

  /// Batched variants: one sweep solves every column of the k-wide batch,
  /// paying the per-wavefront synchronization once regardless of k.
  /// Results are bit-for-bit identical to k single-RHS solves. Like the
  /// kernels, `solve_lower` / `solve_upper` may run concurrently from
  /// distinct teams on distinct outputs, the first batched call included:
  /// the batched kernels are bound exactly once. (`solve` goes through
  /// one shared intermediate, so one at a time.)
  void solve_lower(ThreadTeam& team, ConstBatchView rhs, BatchView y);
  void solve_upper(ThreadTeam& team, ConstBatchView rhs, BatchView y);
  void solve(ThreadTeam& team, ConstBatchView rhs, BatchView y);

  /// Bind the batched (k > 1) kernels now rather than on the first batched
  /// solve. Idempotent and thread-safe.
  void bind_batched() { (void)kernel_for(2); }

  /// The single-RHS kernels, exposed for instrumentation, benches and
  /// tests (`bytes_per_solve` depends only on the bound matrices).
  [[nodiscard]] IluApplyKernel& kernel() noexcept { return single_; }
  /// The single-RHS plans (an `IluPreconditioner`'s factor plan is the
  /// forward one's cache entry).
  [[nodiscard]] const Plan& lower_plan() const noexcept {
    return single_.lower().plan();
  }
  [[nodiscard]] const Plan& upper_plan() const noexcept {
    return single_.upper().plan();
  }

 private:
  /// The kernels a solve `k` right-hand sides wide runs, binding the
  /// batched pair on first use.
  IluApplyKernel& kernel_for(index_t k);

  Runtime& rt_;
  const IluFactorization& ilu_;
  DoconsiderOptions options_;  // as the caller asked, before the width map
  IluApplyKernel single_;
  std::once_flag batched_once_;
  std::unique_ptr<IluApplyKernel> batched_;  // set inside batched_once_
};

}  // namespace rtl
