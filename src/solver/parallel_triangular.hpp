#pragma once

#include <span>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "kernel/bound_kernel.hpp"
#include "runtime/thread_team.hpp"
#include "sparse/ilu.hpp"

/// Parallel sparse triangular solves via the inspector/executor machinery —
/// the paper's flagship application (Figure 8 + Appendix II §2.2.1).
namespace rtl {

/// Bound-kernel pair for forward + backward substitution with the factors
/// of an `IluFactorization`. The inspector (wavefronts + schedule, for
/// both the L graph and the reversed-order U graph) comes from the
/// `Runtime`'s structure-keyed plan cache, and the matrix views are
/// validated and bound into `BoundKernel`s once; every solve afterwards
/// drives the fused kernel bodies directly, single right-hand side or
/// batched.
class ParallelTriangularSolver {
 public:
  /// Plan solves of `ilu.lower()` / `ilu.upper()` using `rt`'s team and
  /// plan cache: a rebuild for an unchanged sparsity structure skips the
  /// inspector entirely. `ilu` must outlive the solver; its *values* may
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
  /// Results are bit-for-bit identical to k single-RHS solves.
  void solve_lower(ThreadTeam& team, ConstBatchView rhs, BatchView y);
  void solve_upper(ThreadTeam& team, ConstBatchView rhs, BatchView y);
  void solve(ThreadTeam& team, ConstBatchView rhs, BatchView y);

  /// The bound kernels, exposed for instrumentation, benches and tests.
  [[nodiscard]] IluApplyKernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const Plan& lower_plan() const noexcept {
    return kernel_.lower().plan();
  }
  [[nodiscard]] const Plan& upper_plan() const noexcept {
    return kernel_.upper().plan();
  }

 private:
  IluApplyKernel kernel_;
};

}  // namespace rtl
