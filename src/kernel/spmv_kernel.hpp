#pragma once

#include <span>

#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "sparse/csr.hpp"

/// The second kernel family: sparse matrix-vector products bound once.
///
/// `BoundKernel` amortizes binding for the *plan-driven* loops (the
/// triangular solves, whose row order is the inspector's business). SpMV
/// has no cross-row dependences, so an `SpMVKernel` is plan-free: rows
/// are block-partitioned over the team exactly like `par_spmv`
/// (Appendix II §2.1's static decomposition). What binding buys is the
/// same as for the solves — structure validation and pointer resolution
/// happen once at setup instead of on every Krylov iteration, batched
/// n×k products run through the same row-major `BatchView`s with one
/// row-read for all k lanes, and the mixed-precision entry point hangs
/// off the kernel object. With this family the *full* PCG/GMRES
/// iteration runs through bound kernels (`SpMVKernel` for A,
/// `IluApplyKernel` for M^{-1}); no `par_spmv` call remains in
/// src/solver/.
namespace rtl {

/// y <- A x bound to one CSR matrix.
///
/// Binding validates the structure (monotone row pointers covering
/// exactly nnz entries, every column index in range) and throws
/// `std::invalid_argument` on a malformed matrix — like `BoundKernel`,
/// structural errors surface at setup, never as UB in the row loop. The
/// matrix's values may be rewritten in place between applies; its
/// structure and storage must not move while the kernel is bound.
class SpMVKernel {
 public:
  [[nodiscard]] static SpMVKernel bind(const CsrMatrix& a);

  /// y <- A x, single vector. Identical per-row operation order to the
  /// free-function `par_spmv` (accumulate stored entries in order), so
  /// results are bit-for-bit unchanged for migrated call sites.
  void apply(ThreadTeam& team, std::span<const real_t> x,
             std::span<real_t> y) const;

  /// Batched product: y(:, j) <- A x(:, j) for every column j; the
  /// matrix row is read once for all k lanes. Bit-for-bit equal to k
  /// single applies (same per-lane accumulation order).
  void apply(ThreadTeam& team, ConstBatchView x, BatchView y) const;

  /// Mixed-precision batched product: float32 storage for x and y,
  /// double accumulation of every row sum (matrix values stay double).
  void apply(ThreadTeam& team, ConstBatchViewF x, BatchViewF y) const;

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept { return nnz_; }

  /// Roofline traffic model for one batched apply at width k: structure
  /// + values once, then per lane one x load per stored entry and one y
  /// store per row. No-cache-reuse worst case, like
  /// `BoundKernel::bytes_per_solve`.
  [[nodiscard]] std::size_t bytes_per_apply(
      index_t k, std::size_t elem_bytes = sizeof(real_t)) const noexcept {
    const auto n = static_cast<std::size_t>(rows_);
    const auto nz = static_cast<std::size_t>(nnz_);
    const auto w = static_cast<std::size_t>(k);
    return (n + 1 + nz) * sizeof(index_t) + nz * sizeof(real_t) +
           (n + nz) * w * elem_bytes;
  }

 private:
  SpMVKernel(const CsrMatrix& a);

  template <typename T>
  void apply_batch_impl(ThreadTeam& team, BasicConstBatchView<T> x,
                        BasicBatchView<T> y) const;

  // Pre-resolved CSR spans; stable for the lifetime of the binding.
  const index_t* row_ptr_ = nullptr;
  const index_t* col_ = nullptr;
  const real_t* val_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
};

}  // namespace rtl
