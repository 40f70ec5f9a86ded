#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "kernel/simd.hpp"
#include "runtime/types.hpp"

/// Batched right-hand-side views for the kernel layer.
///
/// A batch is k vectors of length n stored **row-major by matrix row**:
/// element (i, j) — row i of right-hand side j — lives at data[i*k + j].
/// That layout is what makes batched sweeps pay for themselves: when a
/// kernel body processes row i it touches one contiguous k-wide strip per
/// operand, so the k-sweep over a row is a unit-stride inner loop and the
/// matrix row (cols/vals) is read once for all k right-hand sides. The
/// per-wavefront synchronization — one barrier per phase, one ready-flag
/// publish per row — is paid once regardless of k.
namespace rtl {

/// Read-only view of a row-major n×k batch.
class ConstBatchView {
 public:
  ConstBatchView() = default;
  /// View `data` as n rows of k values; data must hold n*k elements.
  ConstBatchView(const real_t* data, index_t n, index_t k) noexcept
      : data_(data), n_(n), k_(k) {
    assert(n >= 0 && k >= 1);
  }
  /// A single vector is a batch of width 1.
  explicit ConstBatchView(std::span<const real_t> vec) noexcept
      : ConstBatchView(vec.data(), static_cast<index_t>(vec.size()), 1) {}

  [[nodiscard]] const real_t* data() const noexcept { return data_; }
  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  /// The k-wide strip of row i (contiguous).
  [[nodiscard]] const real_t* row(index_t i) const noexcept {
    assert(i >= 0 && i < n_);
    return data_ + static_cast<std::size_t>(i) * static_cast<std::size_t>(k_);
  }
  [[nodiscard]] real_t at(index_t i, index_t j) const noexcept {
    assert(j >= 0 && j < k_);
    return row(i)[j];
  }

  /// Gather column j into `vec` (vec.size() must equal rows()). The
  /// stride-k loads vectorize as a strided gather. Sequential: the
  /// Krylov drivers move columns with the team-parallel
  /// `par_pack_columns`/`par_unpack_columns` (sparse/parallel_ops.hpp);
  /// in the library this serves `SolveService::flush_group` and the
  /// default `Preconditioner::apply_batch`.
  void get_column(index_t j, std::span<real_t> vec) const {
    assert(static_cast<index_t>(vec.size()) == n_ && j >= 0 && j < k_);
    const real_t* src = data_ + static_cast<std::size_t>(j);
    const std::size_t w = static_cast<std::size_t>(k_);
    real_t* dst = vec.data();
    RTL_SIMD_LOOP
    for (index_t i = 0; i < n_; ++i) {
      dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i) * w];
    }
  }

 private:
  const real_t* data_ = nullptr;
  index_t n_ = 0;
  index_t k_ = 1;
};

/// Mutable view of a row-major n×k batch.
class BatchView {
 public:
  BatchView() = default;
  BatchView(real_t* data, index_t n, index_t k) noexcept
      : data_(data), n_(n), k_(k) {
    assert(n >= 0 && k >= 1);
  }
  explicit BatchView(std::span<real_t> vec) noexcept
      : BatchView(vec.data(), static_cast<index_t>(vec.size()), 1) {}

  [[nodiscard]] real_t* data() const noexcept { return data_; }
  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  [[nodiscard]] real_t* row(index_t i) const noexcept {
    assert(i >= 0 && i < n_);
    return data_ + static_cast<std::size_t>(i) * static_cast<std::size_t>(k_);
  }
  [[nodiscard]] real_t& at(index_t i, index_t j) const noexcept {
    assert(j >= 0 && j < k_);
    return row(i)[j];
  }

  /// Scatter `vec` into column j (vec.size() must equal rows()).
  void set_column(index_t j, std::span<const real_t> vec) const {
    assert(static_cast<index_t>(vec.size()) == n_ && j >= 0 && j < k_);
    real_t* dst = data_ + static_cast<std::size_t>(j);
    const std::size_t w = static_cast<std::size_t>(k_);
    const real_t* src = vec.data();
    RTL_SIMD_LOOP
    for (index_t i = 0; i < n_; ++i) {
      dst[static_cast<std::size_t>(i) * w] = src[static_cast<std::size_t>(i)];
    }
  }

  /// Gather column j into `vec` (vec.size() must equal rows()).
  void get_column(index_t j, std::span<real_t> vec) const {
    ConstBatchView(*this).get_column(j, vec);
  }

  /// Implicit read-only view of the same storage.
  operator ConstBatchView() const noexcept {  // NOLINT(google-explicit-constructor)
    return {data_, n_, k_};
  }

 private:
  real_t* data_ = nullptr;
  index_t n_ = 0;
  index_t k_ = 1;
};

/// Owning row-major n×k batch storage with column gather/scatter helpers
/// for interoperating with plain per-vector code.
class BatchBuffer {
 public:
  BatchBuffer() = default;
  BatchBuffer(index_t n, index_t k) { resize(n, k); }

  /// Resize to n rows × k columns (contents unspecified afterwards).
  void resize(index_t n, index_t k) {
    assert(n >= 0 && k >= 1);
    n_ = n;
    k_ = k;
    data_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  }

  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  [[nodiscard]] BatchView view() noexcept { return {data_.data(), n_, k_}; }
  [[nodiscard]] ConstBatchView view() const noexcept {
    return {data_.data(), n_, k_};
  }

  /// Copy vector `vec` into column j (vec.size() must equal rows()).
  void set_column(index_t j, std::span<const real_t> vec) {
    view().set_column(j, vec);
  }

  /// Copy column j out into `vec` (vec.size() must equal rows()).
  void get_column(index_t j, std::span<real_t> vec) const {
    view().get_column(j, vec);
  }

 private:
  index_t n_ = 0;
  index_t k_ = 1;
  std::vector<real_t> data_;
};

}  // namespace rtl
