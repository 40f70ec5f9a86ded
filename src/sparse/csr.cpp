#include "sparse/csr.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rtl {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<index_t> ptr,
                     std::vector<index_t> col, std::vector<real_t> val)
    : rows_(rows),
      cols_(cols),
      ptr_(std::move(ptr)),
      col_(std::move(col)),
      val_(std::move(val)) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("CsrMatrix: negative dimension");
  }
  if (ptr_.size() != static_cast<std::size_t>(rows) + 1) {
    throw std::invalid_argument("CsrMatrix: ptr must have rows+1 entries");
  }
  if (col_.size() != val_.size()) {
    throw std::invalid_argument("CsrMatrix: col/val size mismatch");
  }
  if (ptr_.front() != 0 || ptr_.back() != static_cast<index_t>(col_.size())) {
    throw std::invalid_argument("CsrMatrix: ptr bounds mismatch");
  }
  // The whole pointer must be monotone before any row's columns are read:
  // with front 0 and back nnz, every entry then lies in [0, nnz].
  if (!std::is_sorted(ptr_.begin(), ptr_.end())) {
    throw std::invalid_argument("CsrMatrix: ptr not monotone");
  }
  for (index_t i = 0; i < rows; ++i) {
    const auto cs = row_cols(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] < 0 || cs[k] >= cols) {
        throw std::invalid_argument("CsrMatrix: column index out of range");
      }
      if (k > 0 && cs[k - 1] >= cs[k]) {
        throw std::invalid_argument(
            "CsrMatrix: columns must be strictly increasing within a row");
      }
    }
  }
}

void CsrMatrix::spmv(std::span<const real_t> x, std::span<real_t> y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  for (index_t i = 0; i < rows_; ++i) {
    real_t sum = 0.0;
    const auto cs = row_cols(i);
    const auto vs = row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      sum += vs[k] * x[static_cast<std::size_t>(cs[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

real_t CsrMatrix::at(index_t i, index_t j) const noexcept {
  const auto cs = row_cols(i);
  const auto it = std::lower_bound(cs.begin(), cs.end(), j);
  if (it == cs.end() || *it != j) return 0.0;
  return row_vals(i)[static_cast<std::size_t>(it - cs.begin())];
}

namespace {

// Filter rows through `keep(i, j)`, preserving order.
template <class Keep>
CsrMatrix filter(const CsrMatrix& a, Keep&& keep) {
  std::vector<index_t> ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> col;
  std::vector<real_t> val;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (keep(i, cs[k])) {
        col.push_back(cs[k]);
        val.push_back(vs[k]);
      }
    }
    ptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(col.size());
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(ptr), std::move(col),
                   std::move(val));
}

}  // namespace

CsrMatrix CsrMatrix::strict_lower() const {
  return filter(*this, [](index_t i, index_t j) { return j < i; });
}

CsrMatrix CsrMatrix::upper_with_diag() const {
  return filter(*this, [](index_t i, index_t j) { return j >= i; });
}

std::vector<real_t> CsrMatrix::diagonal() const {
  std::vector<real_t> d(static_cast<std::size_t>(rows_), 0.0);
  for (index_t i = 0; i < rows_ && i < cols_; ++i) {
    d[static_cast<std::size_t>(i)] = at(i, i);
  }
  return d;
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<index_t> ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const index_t c : col_) ++ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 0; i + 1 < ptr.size(); ++i) ptr[i + 1] += ptr[i];
  std::vector<index_t> col(col_.size());
  std::vector<real_t> val(val_.size());
  std::vector<index_t> cursor(ptr.begin(), ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    const auto cs = row_cols(i);
    const auto vs = row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const auto pos =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(cs[k])]++);
      col[pos] = i;
      val[pos] = vs[k];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(ptr), std::move(col),
                   std::move(val));
}

}  // namespace rtl
