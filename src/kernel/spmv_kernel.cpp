#include "kernel/spmv_kernel.hpp"

#include <cassert>

#include "kernel/simd.hpp"

namespace rtl {

namespace {

// Batched row product, mirroring the bound-solve bodies: each lane
// accumulates directly in the row's output strip, y(i,:) = 0.0 and then
// y(i,:) += val[t] * x(col[t],:) over the stored entries in order, under
// `omp simd` when compiled in (kernel/simd.hpp). Per lane that is exactly
// the single-vector row sum, including its 0.0 start (which decides the
// sign of an all-zero row), so batched equals k singles bit-for-bit.
void spmv_rows(const index_t* row_ptr, const index_t* col, const real_t* val,
               const real_t* x, real_t* y, index_t k, index_t row_begin,
               index_t row_end) {
  const std::size_t w = static_cast<std::size_t>(k);
  for (index_t i = row_begin; i < row_end; ++i) {
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    real_t* yi = y + static_cast<std::size_t>(i) * w;
    RTL_SIMD_LOOP
    for (std::size_t j = 0; j < w; ++j) yi[j] = 0.0;
    for (std::size_t t = b; t < e; ++t) {
      const real_t v = val[t];
      const real_t* xd = x + static_cast<std::size_t>(col[t]) * w;
      RTL_SIMD_LOOP
      for (std::size_t j = 0; j < w; ++j) yi[j] += v * xd[j];
    }
  }
}

}  // namespace

SpMVKernel::SpMVKernel(const CsrMatrix& a) noexcept
    : row_ptr_(a.row_ptr().data()),
      col_(a.col_idx().data()),
      val_(a.values().data()),
      rows_(a.rows()),
      cols_(a.cols()),
      nnz_(a.nnz()) {}

void SpMVKernel::apply(ThreadTeam& team, std::span<const real_t> x,
                       std::span<real_t> y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  // Single-vector row sums are gather-reductions — nothing for a lane
  // loop to vectorize — so this path is one scalar body.
  const index_t* row_ptr = row_ptr_;
  const index_t* col = col_;
  const real_t* val = val_;
  const real_t* xp = x.data();
  real_t* yp = y.data();
  team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      const std::size_t t0 = static_cast<std::size_t>(row_ptr[i]);
      const std::size_t t1 = static_cast<std::size_t>(row_ptr[i + 1]);
      real_t sum = 0.0;
      for (std::size_t t = t0; t < t1; ++t) {
        sum += val[t] * xp[static_cast<std::size_t>(col[t])];
      }
      yp[static_cast<std::size_t>(i)] = sum;
    }
  });
}

void SpMVKernel::apply(ThreadTeam& team, ConstBatchView x, BatchView y) const {
  assert(x.rows() == cols_ && y.rows() == rows_);
  assert(x.width() == y.width());
  const index_t k = x.width();
  const index_t* row_ptr = row_ptr_;
  const index_t* col = col_;
  const real_t* val = val_;
  const real_t* xp = x.data();
  real_t* yp = y.data();
  team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
    spmv_rows(row_ptr, col, val, xp, yp, k, b, e);
  });
}

}  // namespace rtl
