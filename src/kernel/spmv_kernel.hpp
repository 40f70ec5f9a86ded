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
/// are block-partitioned over the team like the vector ops of
/// sparse/parallel_ops (Appendix II §2.1's static decomposition). Binding
/// resolves the CSR pointers once at setup instead of on every Krylov
/// iteration, and batched n×k products run through the same row-major
/// `BatchView`s with one row-read for all k lanes. With this family the
/// *full* PCG/GMRES iteration runs through bound kernels (`SpMVKernel`
/// for A, `IluApplyKernel` for M^{-1}).
namespace rtl {

/// y <- A x bound to one CSR matrix.
///
/// Binding is pointer resolution only: a well-formed structure (monotone
/// row pointers covering exactly nnz entries, every column index in
/// range) is `CsrMatrix`'s invariant, which its constructor checks and
/// nothing after it can break, so there is nothing left to validate. The
/// matrix's values may be rewritten in place between applies; its
/// structure and storage must not move while the kernel is bound.
class SpMVKernel {
 public:
  [[nodiscard]] static SpMVKernel bind(const CsrMatrix& a) noexcept {
    return SpMVKernel(a);
  }

  /// y <- A x, single vector. Each row accumulates its stored entries in
  /// order, as the sequential `CsrMatrix::spmv` does, so the two agree
  /// bit for bit.
  void apply(ThreadTeam& team, std::span<const real_t> x,
             std::span<real_t> y) const;

  /// Batched product: y(:, j) <- A x(:, j) for every column j; the
  /// matrix row is read once for all k lanes. Bit-for-bit equal to k
  /// single applies (same per-lane accumulation order).
  void apply(ThreadTeam& team, ConstBatchView x, BatchView y) const;

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept { return nnz_; }

  /// Roofline traffic model for one batched apply at width k: structure
  /// + values once, then per lane one x load per stored entry and one y
  /// store per row. No-cache-reuse worst case, like
  /// `BoundKernel::bytes_per_solve`.
  [[nodiscard]] std::size_t bytes_per_apply(index_t k) const noexcept {
    const auto n = static_cast<std::size_t>(rows_);
    const auto nz = static_cast<std::size_t>(nnz_);
    const auto w = static_cast<std::size_t>(k);
    return (n + 1 + nz) * sizeof(index_t) + nz * sizeof(real_t) +
           (n + nz) * w * sizeof(real_t);
  }

 private:
  explicit SpMVKernel(const CsrMatrix& a) noexcept;

  // Pre-resolved CSR spans; stable for the lifetime of the binding.
  const index_t* row_ptr_ = nullptr;
  const index_t* col_ = nullptr;
  const real_t* val_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
};

}  // namespace rtl
