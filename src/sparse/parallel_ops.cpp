#include "sparse/parallel_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace rtl {

namespace {

/// Cache-line-padded accumulator slot for per-thread partial reductions.
struct alignas(cache_line_size) PaddedSum {
  real_t value = 0.0;
};

}  // namespace

void par_axpy(ThreadTeam& team, real_t a, std::span<const real_t> x,
              std::span<real_t> y) {
  assert(x.size() == y.size());
  team.parallel_blocks(static_cast<index_t>(x.size()),
                       [&](int, index_t b, index_t e) {
                         for (index_t i = b; i < e; ++i) {
                           y[static_cast<std::size_t>(i)] +=
                               a * x[static_cast<std::size_t>(i)];
                         }
                       });
}

void par_xpby(ThreadTeam& team, std::span<const real_t> x, real_t b,
              std::span<real_t> y) {
  assert(x.size() == y.size());
  team.parallel_blocks(static_cast<index_t>(x.size()),
                       [&](int, index_t lo, index_t hi) {
                         for (index_t i = lo; i < hi; ++i) {
                           y[static_cast<std::size_t>(i)] =
                               x[static_cast<std::size_t>(i)] +
                               b * y[static_cast<std::size_t>(i)];
                         }
                       });
}

void par_copy(ThreadTeam& team, std::span<const real_t> src,
              std::span<real_t> dst) {
  assert(src.size() == dst.size());
  team.parallel_blocks(static_cast<index_t>(src.size()),
                       [&](int, index_t b, index_t e) {
                         for (index_t i = b; i < e; ++i) {
                           dst[static_cast<std::size_t>(i)] =
                               src[static_cast<std::size_t>(i)];
                         }
                       });
}

void par_scale(ThreadTeam& team, real_t a, std::span<real_t> x) {
  team.parallel_blocks(static_cast<index_t>(x.size()),
                       [&](int, index_t b, index_t e) {
                         for (index_t i = b; i < e; ++i) {
                           x[static_cast<std::size_t>(i)] *= a;
                         }
                       });
}

real_t par_dot(ThreadTeam& team, std::span<const real_t> x,
               std::span<const real_t> y) {
  assert(x.size() == y.size());
  std::vector<PaddedSum> partial(static_cast<std::size_t>(team.size()));
  team.parallel_blocks(static_cast<index_t>(x.size()),
                       [&](int tid, index_t b, index_t e) {
                         real_t s = 0.0;
                         for (index_t i = b; i < e; ++i) {
                           s += x[static_cast<std::size_t>(i)] *
                                y[static_cast<std::size_t>(i)];
                         }
                         partial[static_cast<std::size_t>(tid)].value = s;
                       });
  real_t total = 0.0;
  for (const auto& p : partial) total += p.value;
  return total;
}

real_t par_norm2(ThreadTeam& team, std::span<const real_t> x) {
  return std::sqrt(par_dot(team, x, x));
}

void par_mgs(ThreadTeam& team, std::span<const real_t* const> v,
             std::span<real_t> w, std::span<real_t> h) {
  assert(!v.empty() && h.size() == v.size() + 1);
  const std::size_t nv = v.size();
  const auto p = static_cast<std::size_t>(team.size());
  // Dot d's partials go to row d % 2. A member writes dot d + 2's partial
  // only after all members arrived for dot d + 1, so after each of them
  // read dot d's row.
  std::vector<PaddedSum> partial(2 * p);
  const auto n = static_cast<index_t>(w.size());
  team.run([&](int tid) {
    const BlockRange r = block_range(n, tid, team.size());
    const auto b = static_cast<std::size_t>(r.begin);
    const auto e = static_cast<std::size_t>(r.end);
    real_t* x = w.data();
    real_t dot = 0.0;
    // Publishes this member's partial s of dot d, waits for the others'
    // and sets `dot` to the p partials added to 0.0 in member order.
    // False when the region aborted.
    const auto reduce = [&](std::size_t d, real_t s) {
      PaddedSum* row = partial.data() + (d % 2) * p;
      row[static_cast<std::size_t>(tid)].value = s;
      if (!team.barrier().arrive_and_wait()) return false;
      dot = 0.0;
      for (std::size_t t = 0; t < p; ++t) dot += row[t].value;
      return true;
    };

    real_t s = 0.0;
    for (std::size_t t = b; t < e; ++t) s += x[t] * v[0][t];
    if (!reduce(0, s)) return;
    for (std::size_t i = 0; i < nv; ++i) {
      if (tid == 0) h[i] = dot;
      // w <- w - h[i] v_i, fused with the next dot: <w, v_{i+1}>, or
      // <w, w> after the last projection.
      const real_t a = -dot;
      const real_t* vi = v[i];
      const real_t* next = i + 1 < nv ? v[i + 1] : x;
      s = 0.0;
      for (std::size_t t = b; t < e; ++t) {
        x[t] += a * vi[t];
        s += x[t] * next[t];
      }
      if (!reduce(i + 1, s)) return;
    }
    const real_t norm = std::sqrt(dot);
    if (tid == 0) h[nv] = norm;
    if (norm > 0.0) {
      const real_t inv = 1.0 / norm;
      for (std::size_t t = b; t < e; ++t) x[t] *= inv;
    }
  });
}

namespace {

/// s[u] <- the par_dot partial of block t0 + u of `nthreads` over [0, n),
/// for u in [0, C): each chain starts at 0.0 and adds its block's
/// products in ascending order; the C chains are interleaved.
template <int C>
void block_partials(const real_t* x, const real_t* y, index_t n, int t0,
                    int nthreads, real_t* s) {
  std::size_t begin[C];
  std::size_t len[C];
  std::size_t common = static_cast<std::size_t>(n);
  for (int u = 0; u < C; ++u) {
    const BlockRange r = block_range(n, t0 + u, nthreads);
    begin[u] = static_cast<std::size_t>(r.begin);
    len[u] = static_cast<std::size_t>(r.end - r.begin);
    common = std::min(common, len[u]);
    s[u] = 0.0;
  }
  for (std::size_t i = 0; i < common; ++i) {
    for (int u = 0; u < C; ++u) s[u] += x[begin[u] + i] * y[begin[u] + i];
  }
  // Block lengths differ by at most one: finish the longer blocks.
  for (int u = 0; u < C; ++u) {
    for (std::size_t i = common; i < len[u]; ++i) {
      s[u] += x[begin[u] + i] * y[begin[u] + i];
    }
  }
}

}  // namespace

real_t team_order_dot(std::span<const real_t> x, std::span<const real_t> y,
                      int nthreads) {
  assert(x.size() == y.size() && nthreads >= 1);
  constexpr int kChains = 4;
  const auto n = static_cast<index_t>(x.size());
  real_t s[kChains];
  real_t total = 0.0;
  for (int t0 = 0; t0 < nthreads; t0 += kChains) {
    const int c = std::min(kChains, nthreads - t0);
    switch (c) {
      case 4: block_partials<4>(x.data(), y.data(), n, t0, nthreads, s); break;
      case 3: block_partials<3>(x.data(), y.data(), n, t0, nthreads, s); break;
      case 2: block_partials<2>(x.data(), y.data(), n, t0, nthreads, s); break;
      default: block_partials<1>(x.data(), y.data(), n, t0, nthreads, s);
    }
    for (int u = 0; u < c; ++u) total += s[u];
  }
  return total;
}

real_t team_order_norm2(std::span<const real_t> x, int nthreads) {
  return std::sqrt(team_order_dot(x, x, nthreads));
}

namespace {

/// Shared shape of the masked batched elementwise updates: rows are
/// block-partitioned exactly like the single-vector ops; within a row the
/// column loop skips frozen lanes. Each active lane's per-element op is
/// identical to the single-vector op, so per-column results match
/// bit-for-bit.
template <class PerElement>
void batch_elementwise(ThreadTeam& team, index_t n, index_t k,
                       const unsigned char* active, PerElement&& op) {
  team.parallel_blocks(n, [&](int, index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      for (index_t j = 0; j < k; ++j) {
        if (active == nullptr || active[static_cast<std::size_t>(j)]) {
          op(i, j);
        }
      }
    }
  });
}

}  // namespace

void par_batch_axpy(ThreadTeam& team, std::span<const real_t> a,
                    ConstBatchView x, BatchView y,
                    const unsigned char* active) {
  assert(x.rows() == y.rows() && x.width() == y.width());
  assert(static_cast<index_t>(a.size()) == x.width());
  batch_elementwise(team, x.rows(), x.width(), active,
                    [&](index_t i, index_t j) {
                      y.at(i, j) += a[static_cast<std::size_t>(j)] * x.at(i, j);
                    });
}

void par_batch_xpby(ThreadTeam& team, ConstBatchView x,
                    std::span<const real_t> b, BatchView y,
                    const unsigned char* active) {
  assert(x.rows() == y.rows() && x.width() == y.width());
  assert(static_cast<index_t>(b.size()) == x.width());
  batch_elementwise(team, x.rows(), x.width(), active,
                    [&](index_t i, index_t j) {
                      y.at(i, j) = x.at(i, j) +
                                   b[static_cast<std::size_t>(j)] * y.at(i, j);
                    });
}

void par_batch_copy(ThreadTeam& team, ConstBatchView src, BatchView dst,
                    const unsigned char* active) {
  assert(src.rows() == dst.rows() && src.width() == dst.width());
  batch_elementwise(team, src.rows(), src.width(), active,
                    [&](index_t i, index_t j) {
                      dst.at(i, j) = src.at(i, j);
                    });
}

void par_batch_dot(ThreadTeam& team, ConstBatchView x, ConstBatchView y,
                   std::span<real_t> out) {
  assert(x.rows() == y.rows() && x.width() == y.width());
  assert(static_cast<index_t>(out.size()) == x.width());
  const std::size_t k = static_cast<std::size_t>(x.width());
  // One cache-line-padded strip of k partials per thread; each thread
  // accumulates rows in ascending order, the caller reduces threads in
  // tid order — the same shape as par_dot, column by column.
  const std::size_t stride =
      (k * sizeof(real_t) + cache_line_size - 1) / cache_line_size *
      (cache_line_size / sizeof(real_t));
  std::vector<real_t> partial(static_cast<std::size_t>(team.size()) * stride,
                              0.0);
  team.parallel_blocks(x.rows(), [&](int tid, index_t b, index_t e) {
    real_t* s = partial.data() + static_cast<std::size_t>(tid) * stride;
    for (index_t i = b; i < e; ++i) {
      const real_t* xi = x.row(i);
      const real_t* yi = y.row(i);
      RTL_SIMD_LOOP
      for (std::size_t j = 0; j < k; ++j) s[j] += xi[j] * yi[j];
    }
  });
  for (std::size_t j = 0; j < k; ++j) {
    real_t total = 0.0;
    for (int t = 0; t < team.size(); ++t) {
      total += partial[static_cast<std::size_t>(t) * stride + j];
    }
    out[j] = total;
  }
}

void par_batch_norm2(ThreadTeam& team, ConstBatchView x,
                     std::span<real_t> out) {
  par_batch_dot(team, x, x, out);
  for (auto& v : out) v = std::sqrt(v);
}

namespace {

/// Rows per tile of the column transposes: a tile's k-wide batch strips
/// stay in L1 while the k column streams pass over them.
constexpr index_t kTransposeTile = 256;

/// Calls op(cols[j], j, lo, hi) for every non-null column j, over row
/// tiles [lo, hi) of each member's block of rows.
template <class Ptr, class Op>
void transpose_tiles(ThreadTeam& team, index_t n, std::span<Ptr const> cols,
                     Op&& op) {
  team.parallel_blocks(n, [&](int, index_t b, index_t e) {
    for (index_t t = b; t < e; t += kTransposeTile) {
      const index_t te = std::min(e, t + kTransposeTile);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] != nullptr) {
          op(cols[j], j, static_cast<std::size_t>(t),
             static_cast<std::size_t>(te));
        }
      }
    }
  });
}

}  // namespace

void par_pack_columns(ThreadTeam& team, std::span<const real_t* const> src,
                      BatchView dst) {
  assert(static_cast<index_t>(src.size()) == dst.width());
  const std::size_t k = src.size();
  real_t* d = dst.data();
  transpose_tiles(team, dst.rows(), src,
                  [=](const real_t* s, std::size_t j, std::size_t lo,
                      std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) d[i * k + j] = s[i];
                  });
}

void par_unpack_columns(ThreadTeam& team, ConstBatchView src,
                        std::span<real_t* const> dst) {
  assert(static_cast<index_t>(dst.size()) == src.width());
  const std::size_t k = dst.size();
  const real_t* s = src.data();
  transpose_tiles(team, src.rows(), dst,
                  [=](real_t* d, std::size_t j, std::size_t lo,
                      std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) d[i] = s[i * k + j];
                  });
}

}  // namespace rtl
