#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "solver/parallel_triangular.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/ilu.hpp"

/// ILU(k) preconditioner with parallel numeric factorization and parallel
/// triangular solves (Appendix II §2.2).
namespace rtl {

/// Q = L U ~= A applied as z = U^{-1} L^{-1} r.
///
/// Construction performs the symbolic factorization (sequential, Appendix
/// II §2.3) and the inspectors for both the numeric factorization and the
/// single-RHS triangular solves, then binds the solve kernels once;
/// `factor()` runs the parallel numeric factorization (Figure 13's loop
/// parallelized exactly like the solve) and may be called again whenever
/// A's values change — the bound kernels see the new values in place. The
/// inspectors come from the `Runtime`'s structure-keyed plan cache, so
/// rebuilding a preconditioner for a matrix with unchanged sparsity skips
/// them entirely (a `Runtime` of capacity 0 with no directory runs them
/// every time). The factor and every single-RHS apply are one-lane work
/// and plan for width 1 (`options_for_width`): the factor's row graph is
/// the forward solve's, so the two share one cached plan. The first
/// `apply_batch` wider than one column binds the batched kernels through
/// the same cache (`ParallelTriangularSolver`), so `rt` must outlive the
/// preconditioner.
class IluPreconditioner : public Preconditioner {
 public:
  /// Symbolic phase + cached inspectors for `a` with fill level `level`.
  IluPreconditioner(Runtime& rt, const CsrMatrix& a, int level,
                    DoconsiderOptions options = {});

  /// Pinned in place: the triangular solver refers to `factors()`.
  IluPreconditioner(const IluPreconditioner&) = delete;
  IluPreconditioner& operator=(const IluPreconditioner&) = delete;

  /// Parallel numeric factorization of `a` over the fixed pattern.
  /// `a` must have the structure the preconditioner was built with.
  void factor(ThreadTeam& team, const CsrMatrix& a);

  /// z <- U^{-1} L^{-1} r.
  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override;

  /// Batched apply through the fused kernels: every column of the k-wide
  /// batch is solved in one sweep, paying the per-wavefront
  /// synchronization once regardless of k.
  void apply_batch(ThreadTeam& team, ConstBatchView r, BatchView z) override;

  [[nodiscard]] const IluFactorization& factors() const noexcept {
    return ilu_;
  }
  [[nodiscard]] ParallelTriangularSolver& triangular_solver() noexcept {
    return *solver_;
  }
  /// The numeric-factorization plan, exposed for instrumentation. With a
  /// caching `Runtime` it is `triangular_solver().lower_plan()` itself.
  [[nodiscard]] const Plan& factor_plan() const noexcept {
    return *factor_plan_;
  }

 private:
  IluFactorization ilu_;
  std::shared_ptr<const Plan> factor_plan_;
  std::unique_ptr<ParallelTriangularSolver> solver_;
  std::vector<IluFactorization::Workspace> workspaces_;
};

}  // namespace rtl
