#pragma once

#include <memory>
#include <span>

#include "core/plan.hpp"
#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "sparse/csr.hpp"

/// The kernel layer: numeric work fused into the plan engine.
///
/// A `Plan` amortizes the inspector across executions (§5.1.1); a
/// `BoundKernel` amortizes everything else a numeric consumer used to pay
/// per call: the matrix views are validated and bound exactly once (CSR
/// spans pre-resolved to raw pointers, the upper solve's row permutation
/// i ↔ n-1-i baked in), and
/// the loop bodies are named functor types that `Plan::execute`
/// instantiates directly — no per-call lambda re-capture, nothing
/// `std::function`-shaped anywhere near the row loop.
///
/// On top of the bound single-RHS solves sits batched execution:
/// `solve(rhs, x)` with k-wide `BatchView`s sweeps all k right-hand sides
/// inside each wavefront phase, so the per-phase synchronization (one
/// barrier per phase for the pre-scheduled executor, one ready-flag
/// publish per row otherwise) is paid once regardless of k — the executor
/// analogue of the inspector's amortization argument. The row-major batch
/// layout (kernel/batch.hpp) keeps the k-sweep unit-stride. Batched
/// results are bit-for-bit identical to k independent single-RHS solves
/// (same per-lane operation order).
namespace rtl {

/// Which transformed numeric loop a `BoundKernel` runs.
enum class KernelKind {
  /// Forward substitution: unit lower L, strict part stored (Figure 8).
  kLowerSolve,
  /// Backward substitution: upper U, diagonal stored first in each row;
  /// executor iteration i handles row n-1-i.
  kUpperSolve,
};

/// A triangular-solve kernel bound to (plan, CSR matrix) once.
///
/// Binding validates the pairing and throws `std::invalid_argument` on a
/// mismatch (non-square matrix, plan compiled for a different dimension,
/// wrong triangularity, dependence-edge count inconsistent with the
/// matrix structure) — binding errors surface at setup, never as UB in
/// the row loop. The matrix's *values* may change between solves
/// (re-factorization over a fixed pattern); its *structure* and storage
/// must not move, and the plan must have been built from the matching
/// `lower_solve_dependences` / `upper_solve_dependences` graph.
///
/// Per-execution synchronization state comes from the plan's ExecState
/// pool, so — like `Plan::execute` itself — concurrent solves through
/// one kernel are safe from *distinct* thread teams on non-overlapping
/// output vectors.
class BoundKernel {
 public:
  /// Bind a forward-substitution kernel: `strict_lower` holds the strict
  /// part of a unit lower-triangular L, `plan` its row-dependence plan.
  [[nodiscard]] static BoundKernel lower(std::shared_ptr<const Plan> plan,
                                         const CsrMatrix& strict_lower);

  /// Bind a backward-substitution kernel: `upper` is upper triangular with
  /// the (nonzero) diagonal stored first in each row, `plan` built from
  /// `upper_solve_dependences(upper)` (reversed row order).
  [[nodiscard]] static BoundKernel upper(std::shared_ptr<const Plan> plan,
                                         const CsrMatrix& upper);

  /// x <- T^{-1} rhs, single right-hand side. `rhs` and `x` must not
  /// alias and must have the bound dimension.
  void solve(ThreadTeam& team, std::span<const real_t> rhs,
             std::span<real_t> x);

  /// Batched solve: x(:, j) <- T^{-1} rhs(:, j) for every column j, all
  /// columns swept inside each wavefront phase. Views must be
  /// `size()` x k with matching widths; bit-for-bit equal to k
  /// single-RHS solves.
  void solve(ThreadTeam& team, ConstBatchView rhs, BatchView x);

  /// Bytes touched by one batched solve at width k — the roofline
  /// traffic model for bench records:
  /// the CSR structure (row_ptr + cols) and values read once, plus per
  /// lane the rhs read, the x write, and one dependency load per stored
  /// entry. Assumes no cache reuse (worst-case traffic).
  [[nodiscard]] std::size_t bytes_per_solve(index_t k) const noexcept {
    const auto n = static_cast<std::size_t>(n_);
    const auto nz = static_cast<std::size_t>(nnz_);
    const auto w = static_cast<std::size_t>(k);
    return (n + 1 + nz) * sizeof(index_t) + nz * sizeof(real_t) +
           (2 * n + nz) * w * sizeof(real_t);
  }

  [[nodiscard]] KernelKind kind() const noexcept { return kind_; }
  /// System dimension the kernel is bound to.
  [[nodiscard]] index_t size() const noexcept { return n_; }
  /// The bound inspector artifact.
  [[nodiscard]] const Plan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const Plan>& shared_plan()
      const noexcept {
    return plan_;
  }

 private:
  BoundKernel(std::shared_ptr<const Plan> plan, const CsrMatrix& matrix,
              KernelKind kind);

  std::shared_ptr<const Plan> plan_;
  // Pre-resolved CSR spans (stable: CSR arrays never move after binding;
  // values may be rewritten in place by re-factorization).
  const index_t* row_ptr_ = nullptr;
  const index_t* col_ = nullptr;
  const real_t* val_ = nullptr;
  index_t n_ = 0;
  index_t nnz_ = 0;
  KernelKind kind_;
};

/// The fused ILU(k) application z <- U^{-1} L^{-1} r as one bound object:
/// a lower and an upper `BoundKernel` plus the intermediate batch buffer,
/// with single-RHS and batched entry points. This is what
/// `IluPreconditioner::apply` runs. Unlike the kernels it composes, an
/// IluApplyKernel owns scratch (the intermediate vector), so it supports
/// one in-flight apply at a time; use the kernels directly with
/// caller-supplied intermediates for concurrent applies.
class IluApplyKernel {
 public:
  /// Compose from two bound kernels (must be a kLowerSolve and a
  /// kUpperSolve of equal dimension; throws `std::invalid_argument`
  /// otherwise).
  IluApplyKernel(BoundKernel lower_solve, BoundKernel upper_solve);

  /// z <- U^{-1} L^{-1} r, single right-hand side.
  void apply(ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z);

  /// Batched apply: z(:, j) <- U^{-1} L^{-1} r(:, j) for every column.
  void apply(ThreadTeam& team, ConstBatchView r, BatchView z);

  /// Always 0: there is no execution layout. Kept only because the
  /// bench/e2e program still reports it.
  [[nodiscard]] std::size_t layout_bytes() const noexcept { return 0; }

  [[nodiscard]] index_t size() const noexcept { return lower_.size(); }
  [[nodiscard]] BoundKernel& lower() noexcept { return lower_; }
  [[nodiscard]] BoundKernel& upper() noexcept { return upper_; }
  [[nodiscard]] const BoundKernel& lower() const noexcept { return lower_; }
  [[nodiscard]] const BoundKernel& upper() const noexcept { return upper_; }

 private:
  BoundKernel lower_;
  BoundKernel upper_;
  BatchBuffer tmp_;  // intermediate L^{-1} r, grown to the widest batch seen
};

}  // namespace rtl
