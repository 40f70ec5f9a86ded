#include "solver/krylov.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/spmv_kernel.hpp"
#include "sparse/parallel_ops.hpp"

// Every operator application in this file runs through bound kernels:
// `SpMVKernel` for A (bound once per driver entry, validated structure,
// pre-resolved pointers) and the preconditioner's kernels for M^{-1}, so
// the full PCG/GMRES iteration is kernel-driven, single-RHS and batched.
namespace rtl {

namespace {

/// z <- M^{-1} r, or z <- r when no preconditioner is supplied.
void apply_precond(ThreadTeam& team, Preconditioner* m,
                   std::span<const real_t> r, std::span<real_t> z) {
  if (m == nullptr) {
    par_copy(team, r, z);
    return;
  }
  m->apply(team, r, z);
}

/// Batched z(:, j) <- M^{-1} r(:, j). Frozen columns are applied too
/// (lanes are cheaper than a masked kernel sweep); their z lanes are
/// scratch the caller never reads.
void apply_precond_batch(ThreadTeam& team, Preconditioner* m,
                         ConstBatchView r, BatchView z) {
  if (m == nullptr) {
    par_batch_copy(team, r, z);
    return;
  }
  m->apply_batch(team, r, z);
}

/// An n×k batch over the lease's next block.
BatchView take_batch(ThreadTeam::ScratchLease& lease, index_t n, index_t k) {
  const auto len = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  return {lease.take(len).data(), n, k};
}

/// GMRES(m) needs m >= 1: with m = 0 no Arnoldi step ever runs (the
/// single-RHS driver would restart forever) and a negative m sizes no
/// basis. Checked before the drivers take any scratch.
void require_restart(const KrylovOptions& options) {
  if (options.restart < 1) {
    throw std::invalid_argument("gmres_solve: restart must be >= 1, got " +
                                std::to_string(options.restart));
  }
}

/// Whether a CG coefficient cannot serve as a divisor: pᵀAp or ρ that is
/// zero or not finite. The column stops before dividing by it.
bool cg_breakdown(real_t d) { return d == 0.0 || !std::isfinite(d); }

/// Applies the previous j Givens rotations to Hessenberg column j (`hj`,
/// entries 0..j+1), then the new rotation annihilating hj[j+1], and
/// rotates g. Returns false when step j broke down: the rotated pivot is
/// 0, or an entry of the rotated column is not finite. cs[j], sn[j] and g
/// are then untouched, so columns 0..j-1 still define the least-squares
/// problem. Both GMRES drivers call it, so they break down alike.
bool givens_step(real_t* hj, int j, std::vector<real_t>& cs,
                 std::vector<real_t>& sn, std::vector<real_t>& g) {
  const auto ju = static_cast<std::size_t>(j);
  for (std::size_t i = 0; i < ju; ++i) {
    const real_t t = cs[i] * hj[i] + sn[i] * hj[i + 1];
    hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
    hj[i] = t;
  }
  const real_t denom = std::hypot(hj[ju], hj[ju + 1]);
  const bool finite = std::isfinite(denom) &&
                      std::all_of(hj, hj + ju,
                                  [](real_t v) { return std::isfinite(v); });
  if (denom == 0.0 || !finite) return false;
  cs[ju] = hj[ju] / denom;
  sn[ju] = hj[ju + 1] / denom;
  hj[ju] = denom;
  hj[ju + 1] = 0.0;
  g[ju + 1] = -sn[ju] * g[ju];
  g[ju] = cs[ju] * g[ju];
  return true;
}

/// Solves the leading jf x jf upper-triangular block of the rotated
/// Hessenberg matrix `h` (column major, leading dimension m+1) for
/// y[0..jf) against g. Returns false if some y is not finite (an
/// overflow), in which case the caller must not add y to x.
bool back_substitute(const std::vector<real_t>& h, int m,
                     const std::vector<real_t>& g, int jf,
                     std::vector<real_t>& y) {
  const auto H = [&](int i, int k) {
    return h[static_cast<std::size_t>(k * (m + 1) + i)];
  };
  bool finite = true;
  for (int i = jf - 1; i >= 0; --i) {
    real_t sum = g[static_cast<std::size_t>(i)];
    for (int k = i + 1; k < jf; ++k) {
      sum -= H(i, k) * y[static_cast<std::size_t>(k)];
    }
    y[static_cast<std::size_t>(i)] = sum / H(i, i);
    finite = finite && std::isfinite(y[static_cast<std::size_t>(i)]);
  }
  return finite;
}

}  // namespace

KrylovResult pcg_solve(ThreadTeam& team, const CsrMatrix& a,
                       std::span<const real_t> b, std::span<real_t> x,
                       Preconditioner* precond,
                       const KrylovOptions& options) {
  const index_t n = a.rows();
  assert(a.cols() == n);
  assert(static_cast<index_t>(b.size()) == n);
  assert(static_cast<index_t>(x.size()) == n);
  const SpMVKernel spmv = SpMVKernel::bind(a);
  ThreadTeam::ScratchLease lease(team);
  const auto nz = static_cast<std::size_t>(n);
  const std::span<real_t> r = lease.take(nz), z = lease.take(nz),
                          p = lease.take(nz), q = lease.take(nz);

  // r = b - A x
  spmv.apply(team, x, r);
  par_xpby(team, b, -1.0, r);

  const real_t bnorm = par_norm2(team, b);
  const real_t target = options.rtol * (bnorm > 0.0 ? bnorm : 1.0);

  KrylovResult result;
  real_t rnorm = par_norm2(team, r);
  if (rnorm <= target) {
    result.converged = true;
    result.residual_norm = rnorm;
    return result;
  }

  apply_precond(team, precond, r, z);
  par_copy(team, z, p);
  real_t rho = par_dot(team, r, z);
  result.breakdown = cg_breakdown(rho);

  for (int it = 0; it < options.max_iterations && !result.breakdown; ++it) {
    spmv.apply(team, p, q);
    const real_t pq = par_dot(team, p, q);
    if (cg_breakdown(pq)) {
      result.breakdown = true;
      break;
    }
    const real_t alpha = rho / pq;
    par_axpy(team, alpha, p, x);
    par_axpy(team, -alpha, q, r);
    ++result.iterations;

    rnorm = par_norm2(team, r);
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    apply_precond(team, precond, r, z);
    const real_t rho_next = par_dot(team, r, z);
    if (cg_breakdown(rho_next)) {
      result.breakdown = true;
      break;
    }
    const real_t beta = rho_next / rho;
    rho = rho_next;
    // p = z + beta p
    par_xpby(team, z, beta, p);
  }
  result.residual_norm = rnorm;
  return result;
}

std::vector<KrylovResult> pcg_solve(ThreadTeam& team, const CsrMatrix& a,
                                    ConstBatchView b, BatchView x,
                                    Preconditioner* precond,
                                    const KrylovOptions& options) {
  const index_t n = a.rows();
  assert(a.cols() == n);
  assert(b.rows() == n && x.rows() == n);
  assert(b.width() == x.width());
  const index_t k = b.width();
  const auto ks = static_cast<std::size_t>(k);
  const SpMVKernel spmv = SpMVKernel::bind(a);
  ThreadTeam::ScratchLease lease(team);
  const BatchView r = take_batch(lease, n, k), z = take_batch(lease, n, k),
                  p = take_batch(lease, n, k), q = take_batch(lease, n, k);

  std::vector<KrylovResult> results(ks);
  // Columns iterate in lockstep; a column that converges, breaks down
  // (or exhausts its budget) is frozen — masked out of every state
  // update — while the batch keeps sweeping. A frozen column's x/r/p are
  // never touched again, so its trajectory is exactly the single-RHS
  // driver's.
  std::vector<unsigned char> active(ks, 1);
  std::vector<real_t> target(ks), rnorm(ks), rho(ks), dots(ks), coef(ks);
  int n_active = 0;
  // Freezes active column j when d, about to become a divisor, is zero
  // or not finite.
  const auto stop_on_breakdown = [&](std::size_t j, real_t d) {
    if (!active[j] || !cg_breakdown(d)) return;
    results[j].breakdown = true;
    results[j].residual_norm = rnorm[j];
    active[j] = 0;
    --n_active;
  };

  // r = b - A x
  spmv.apply(team, x, r);
  std::fill(coef.begin(), coef.end(), -1.0);
  par_batch_xpby(team, b, coef, r);

  par_batch_norm2(team, b, target);
  for (std::size_t j = 0; j < ks; ++j) {
    target[j] = options.rtol * (target[j] > 0.0 ? target[j] : 1.0);
  }
  par_batch_norm2(team, r, rnorm);
  for (std::size_t j = 0; j < ks; ++j) {
    if (rnorm[j] <= target[j]) {
      results[j].converged = true;
      results[j].residual_norm = rnorm[j];
      active[j] = 0;
    } else {
      ++n_active;
    }
  }
  if (n_active == 0) return results;

  apply_precond_batch(team, precond, r, z);
  // Unmasked: the SpMV and the dots below read every lane of p, so the
  // columns that converged at entry get one too.
  par_batch_copy(team, z, p);
  par_batch_dot(team, r, z, rho);
  for (std::size_t j = 0; j < ks; ++j) stop_on_breakdown(j, rho[j]);

  for (int it = 0; it < options.max_iterations && n_active > 0; ++it) {
    spmv.apply(team, p, q);
    par_batch_dot(team, p, q, dots);
    for (std::size_t j = 0; j < ks; ++j) {
      stop_on_breakdown(j, dots[j]);
      coef[j] = active[j] ? rho[j] / dots[j] : 0.0;  // alpha
    }
    par_batch_axpy(team, coef, p, x, active.data());
    for (std::size_t j = 0; j < ks; ++j) coef[j] = -coef[j];
    par_batch_axpy(team, coef, q, r, active.data());

    par_batch_norm2(team, r, rnorm);
    for (std::size_t j = 0; j < ks; ++j) {
      if (!active[j]) continue;
      ++results[j].iterations;
      if (rnorm[j] <= target[j]) {
        results[j].converged = true;
        results[j].residual_norm = rnorm[j];
        active[j] = 0;
        --n_active;
      }
    }
    if (n_active == 0) break;

    apply_precond_batch(team, precond, r, z);
    par_batch_dot(team, r, z, dots);  // rho_next
    for (std::size_t j = 0; j < ks; ++j) {
      stop_on_breakdown(j, dots[j]);
      coef[j] = active[j] ? dots[j] / rho[j] : 0.0;  // beta
      if (active[j]) rho[j] = dots[j];
    }
    // p = z + beta p
    par_batch_xpby(team, z, coef, p, active.data());
  }
  for (std::size_t j = 0; j < ks; ++j) {
    if (active[j]) results[j].residual_norm = rnorm[j];
  }
  return results;
}

KrylovResult gmres_solve(ThreadTeam& team, const CsrMatrix& a,
                         std::span<const real_t> b, std::span<real_t> x,
                         Preconditioner* precond,
                         const KrylovOptions& options) {
  require_restart(options);
  const index_t n = a.rows();
  assert(a.cols() == n);
  assert(static_cast<index_t>(b.size()) == n);
  assert(static_cast<index_t>(x.size()) == n);
  const int m = options.restart;
  const SpMVKernel spmv = SpMVKernel::bind(a);
  ThreadTeam::ScratchLease lease(team);
  const auto nz = static_cast<std::size_t>(n);
  const std::span<real_t> work = lease.take(nz);
  const std::span<real_t> work2 = lease.take(nz);

  // Krylov basis v_0..v_m: v(i) takes its block when the Arnoldi index
  // first reaches i, so a solve that converges in a few steps touches a
  // few blocks. vptr holds the same pointers: step j projects against the
  // first j+1 (par_mgs). Hessenberg H ((m+1) x m, column major by
  // iteration), Givens rotations (cs, sn), residual vector g.
  std::vector<std::span<real_t>> basis;
  std::vector<const real_t*> vptr;
  const auto v = [&](std::size_t i) {
    if (i == basis.size()) {
      basis.push_back(lease.take(nz));
      vptr.push_back(basis.back().data());
    }
    return basis[i];
  };
  std::vector<real_t> h(static_cast<std::size_t>((m + 1) * m), 0.0);
  std::vector<real_t> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<real_t> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<real_t> g(static_cast<std::size_t>(m) + 1, 0.0);
  std::vector<real_t> y(static_cast<std::size_t>(m), 0.0);

  // Convergence target in the *preconditioned* norm.
  apply_precond(team, precond, b, work);
  const real_t pb_norm = par_norm2(team, work);
  const real_t target = options.rtol * (pb_norm > 0.0 ? pb_norm : 1.0);

  KrylovResult result;
  real_t beta = 0.0;
  while (result.iterations < options.max_iterations) {
    // r = M^{-1} (b - A x)
    spmv.apply(team, x, work);
    par_xpby(team, b, -1.0, work);
    const std::span<real_t> v0 = v(0);
    apply_precond(team, precond, work, v0);
    beta = par_norm2(team, v0);
    if (beta <= target) {
      result.converged = true;
      break;
    }
    par_scale(team, 1.0 / beta, v0);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && result.iterations < options.max_iterations; ++j) {
      ++result.iterations;
      const auto ju = static_cast<std::size_t>(j);
      // w = M^{-1} A v_j
      const std::span<real_t> w = v(ju + 1);
      spmv.apply(team, basis[ju], work2);
      apply_precond(team, precond, work2, w);
      // Modified Gram-Schmidt, norm and scale: H(0..j+1, j), v_{j+1}.
      real_t* hj = h.data() + ju * (static_cast<std::size_t>(m) + 1);
      par_mgs(team, std::span(vptr).first(ju + 1), w, {hj, ju + 2});
      if (!givens_step(hj, j, cs, sn, g)) {
        result.breakdown = true;
        break;
      }
      if (std::abs(g[ju + 1]) <= target) {
        ++j;
        break;
      }
    }
    // Solve H y = g over the j kept columns and update x.
    if (!back_substitute(h, m, g, j, y)) {
      result.breakdown = true;
      result.residual_norm = beta;  // x is still the cycle start's
      break;
    }
    for (int i = 0; i < j; ++i) {
      par_axpy(team, y[static_cast<std::size_t>(i)],
               basis[static_cast<std::size_t>(i)], x);
    }
    result.residual_norm = std::abs(g[static_cast<std::size_t>(j)]);
    if (result.breakdown) break;
    if (result.residual_norm <= target) {
      result.converged = true;
      break;
    }
  }
  if (result.converged && result.residual_norm == 0.0) {
    result.residual_norm = beta <= target ? beta : result.residual_norm;
  }
  return result;
}

namespace {

/// Per-column state of the lockstep batched GMRES. Each column keeps its
/// iterate x and its basis v_0..v_m as one block of (m+2)·n values (x
/// first, then m+1 contiguous vectors of n), which the solve touches
/// front to back, owns its Hessenberg data, and walks the exact state
/// machine of the single-RHS driver.
struct GmresColumn {
  enum class Phase { kStart, kArnoldi, kDone };

  /// `block` holds (restart+2)·rows values. x and every basis vector are
  /// written (the initial unpack, the tick's unpack) before they are read,
  /// so its contents need not be initialized.
  GmresColumn(std::span<real_t> block, std::size_t rows, int restart)
      : n(rows),
        m(restart),
        x(block.first(rows)),
        basis(block.subspan(rows)),
        h(static_cast<std::size_t>((restart + 1) * restart), 0.0),
        cs(static_cast<std::size_t>(restart), 0.0),
        sn(static_cast<std::size_t>(restart), 0.0),
        g(static_cast<std::size_t>(restart) + 1, 0.0),
        y(static_cast<std::size_t>(restart), 0.0) {}

  [[nodiscard]] std::span<real_t> v(int i) const {
    return basis.subspan(static_cast<std::size_t>(i) * n, n);
  }
  real_t& H(int row, int step) {
    return h[static_cast<std::size_t>(step * (m + 1) + row)];
  }

  std::size_t n;
  int m;
  Phase phase = Phase::kStart;
  int j = 0;            // current Arnoldi index within the cycle
  real_t beta = 0.0;    // last cycle-start residual norm
  real_t target = 0.0;  // preconditioned-norm convergence target
  std::span<real_t> x;
  std::span<real_t> basis;
  std::vector<real_t> h, cs, sn, g, y;
  KrylovResult res;
};

/// Sequential twins of par_axpy / par_scale: the same per-element
/// operation, so the same bits on any partition.
void axpy(real_t a, std::span<const real_t> x, std::span<real_t> y) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

void scale(real_t a, std::span<real_t> x) {
  for (real_t& v : x) v *= a;
}

/// Cycle start of one column: v0 holds M^{-1}(b - A x).
void gmres_start(GmresColumn& col, int nthreads) {
  const auto v0 = col.v(0);
  col.beta = team_order_norm2(v0, nthreads);
  if (col.beta <= col.target) {
    col.res.converged = true;
    col.phase = GmresColumn::Phase::kDone;
    return;
  }
  scale(1.0 / col.beta, v0);
  std::fill(col.g.begin(), col.g.end(), 0.0);
  col.g[0] = col.beta;
  col.j = 0;
  col.phase = GmresColumn::Phase::kArnoldi;
}

/// Arnoldi step j of one column: v_{j+1} holds M^{-1} A v_j. Ends the
/// cycle (back-substitution, x update, convergence check) when due.
void gmres_arnoldi(GmresColumn& col, int max_iterations, int nthreads) {
  const int j = col.j;
  ++col.res.iterations;
  const auto w = col.v(j + 1);
  real_t* hj = &col.H(0, j);
  // Modified Gram-Schmidt.
  for (int i = 0; i <= j; ++i) {
    const real_t hij = team_order_dot(w, col.v(i), nthreads);
    hj[i] = hij;
    axpy(-hij, col.v(i), w);
  }
  const real_t hnext = team_order_norm2(w, nthreads);
  hj[j + 1] = hnext;
  if (hnext > 0.0) scale(1.0 / hnext, w);

  if (givens_step(hj, j, col.cs, col.sn, col.g)) {
    col.j = j + 1;
    const bool inner_break =
        std::abs(col.g[static_cast<std::size_t>(col.j)]) <= col.target;
    if (!inner_break && col.j < col.m &&
        col.res.iterations < max_iterations) {
      return;
    }
  } else {
    col.res.breakdown = true;
  }

  // End of cycle: back-substitute H y = g over the kept columns, update
  // x, check.
  const int jf = col.j;
  if (!back_substitute(col.h, col.m, col.g, jf, col.y)) {
    col.res.breakdown = true;
    col.res.residual_norm = col.beta;  // x is still the cycle start's
    col.phase = GmresColumn::Phase::kDone;
    return;
  }
  for (int i = 0; i < jf; ++i) {
    axpy(col.y[static_cast<std::size_t>(i)], col.v(i), col.x);
  }
  col.res.residual_norm = std::abs(col.g[static_cast<std::size_t>(jf)]);
  if (col.res.breakdown) {
    col.phase = GmresColumn::Phase::kDone;
  } else if (col.res.residual_norm <= col.target) {
    col.res.converged = true;
    col.phase = GmresColumn::Phase::kDone;
  } else if (col.res.iterations >= max_iterations) {
    col.phase = GmresColumn::Phase::kDone;
  } else {
    col.phase = GmresColumn::Phase::kStart;
  }
}

/// Runs step(c) for every c in `live` in one team region, dealing whole
/// columns to members through a shared cursor. Columns share no state,
/// so which member runs which column changes no result.
template <class Step>
void for_each_column(ThreadTeam& team, std::span<const std::size_t> live,
                     const Step& step) {
  std::atomic<std::size_t> cursor{0};
  team.run([&](int) {
    for (std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
         t < live.size();
         t = cursor.fetch_add(1, std::memory_order_relaxed)) {
      step(live[t]);
    }
  });
}

}  // namespace

std::vector<KrylovResult> gmres_solve(ThreadTeam& team, const CsrMatrix& a,
                                      ConstBatchView b, BatchView x,
                                      Preconditioner* precond,
                                      const KrylovOptions& options) {
  require_restart(options);
  const index_t n = a.rows();
  assert(a.cols() == n);
  assert(b.rows() == n && x.rows() == n);
  assert(b.width() == x.width());
  const index_t k = b.width();
  const auto ks = static_cast<std::size_t>(k);
  const int p = team.size();
  const SpMVKernel spmv = SpMVKernel::bind(a);
  ThreadTeam::ScratchLease lease(team);
  const auto nz = static_cast<std::size_t>(n);
  const BatchView in = take_batch(lease, n, k),
                  mid = take_batch(lease, n, k),
                  out = take_batch(lease, n, k);
  const auto col_len = (static_cast<std::size_t>(options.restart) + 2) * nz;
  std::vector<GmresColumn> cols;
  cols.reserve(ks);
  for (std::size_t c = 0; c < ks; ++c) {
    cols.emplace_back(lease.take(col_len), nz, options.restart);
  }
  // Per-tick column operands: pack sources and unpack destinations (null
  // for an idle column) and the columns the column region runs.
  std::vector<const real_t*> src(ks);
  std::vector<real_t*> dst(ks);
  std::vector<std::size_t> live(ks);
  std::iota(live.begin(), live.end(), std::size_t{0});

  for (std::size_t c = 0; c < ks; ++c) dst[c] = cols[c].x.data();
  par_unpack_columns(team, x, dst);

  // Convergence targets in the preconditioned norm: one batched apply of
  // M^{-1} to all of b, unpacked into each column's v0.
  apply_precond_batch(team, precond, b, out);
  for (std::size_t c = 0; c < ks; ++c) dst[c] = cols[c].v(0).data();
  par_unpack_columns(team, out, dst);
  for_each_column(team, live, [&](std::size_t c) {
    const real_t pb_norm = team_order_norm2(cols[c].v(0), p);
    cols[c].target = options.rtol * (pb_norm > 0.0 ? pb_norm : 1.0);
  });
  // Columns needing no work (max_iterations <= 0) are Done immediately.
  if (options.max_iterations <= 0) {
    for (auto& col : cols) col.phase = GmresColumn::Phase::kDone;
  }

  std::vector<unsigned char> starting(ks);
  const std::vector<real_t> minus_one(ks, -1.0);
  for (;;) {
    live.clear();
    bool any_start = false;
    for (std::size_t c = 0; c < ks; ++c) {
      auto& col = cols[c];
      starting[c] = col.phase == GmresColumn::Phase::kStart;
      src[c] = nullptr;
      dst[c] = nullptr;
      if (col.phase == GmresColumn::Phase::kDone) continue;
      live.push_back(c);
      if (starting[c]) {
        any_start = true;
        src[c] = col.x.data();
        dst[c] = col.v(0).data();
      } else {
        src[c] = col.v(col.j).data();
        dst[c] = col.v(col.j + 1).data();
      }
    }
    if (live.empty()) break;
    // One tick: pack each live column's operand (x for a cycle start,
    // v_j for an Arnoldi step), one batched SpMV, b - A x for the cycle
    // starts, one batched preconditioner apply, unpack into v0 / v_{j+1},
    // then every live column's step on one member each.
    par_pack_columns(team, src, in);
    spmv.apply(team, in, mid);
    if (any_start) {
      par_batch_xpby(team, b, minus_one, mid, starting.data());
    }
    apply_precond_batch(team, precond, mid, out);
    par_unpack_columns(team, out, dst);
    for_each_column(team, live, [&](std::size_t c) {
      auto& col = cols[c];
      if (col.phase == GmresColumn::Phase::kStart) {
        gmres_start(col, p);
      } else {
        gmres_arnoldi(col, options.max_iterations, p);
      }
    });
  }

  for (std::size_t c = 0; c < ks; ++c) src[c] = cols[c].x.data();
  par_pack_columns(team, src, x);

  std::vector<KrylovResult> results(ks);
  for (std::size_t c = 0; c < ks; ++c) {
    auto& col = cols[c];
    if (col.res.converged && col.res.residual_norm == 0.0) {
      col.res.residual_norm =
          col.beta <= col.target ? col.beta : col.res.residual_norm;
    }
    results[c] = col.res;
  }
  return results;
}

}  // namespace rtl
