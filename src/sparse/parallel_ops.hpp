#pragma once

#include <span>

#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/types.hpp"

/// Parallel vector and matrix kernels of the Krylov substrate.
///
/// Appendix II §2.1: the easily-parallelizable procedures — SAXPYs, vector
/// inner products, and sparse matrix-vector products — divide the indices
/// 1..n into p contiguous groups of roughly equal size, group i going to
/// processor i. These kernels follow that static block decomposition
/// (the sparse matrix-vector product is `SpMVKernel`, kernel/spmv_kernel).
///
/// The batched (`par_batch_*`) variants run the same update on every
/// column of a row-major n×k batch in one parallel region, with
/// per-column coefficients and an optional per-column active mask (the
/// lockstep multi-RHS Krylov drivers freeze converged columns). They use
/// the *same* row partition and per-thread accumulation order as the
/// single-vector ops, so each column's result — including the reduced
/// dot products — is bit-for-bit the single-vector op on that column.
namespace rtl {

/// y <- a*x + y over the team.
void par_axpy(ThreadTeam& team, real_t a, std::span<const real_t> x,
              std::span<real_t> y);

/// y <- x + b*y over the team (the "xpby" update used by CG).
void par_xpby(ThreadTeam& team, std::span<const real_t> x, real_t b,
              std::span<real_t> y);

/// dst <- src over the team.
void par_copy(ThreadTeam& team, std::span<const real_t> src,
              std::span<real_t> dst);

/// dst <- value over the team.
void par_fill(ThreadTeam& team, real_t value, std::span<real_t> dst);

/// x <- a*x over the team.
void par_scale(ThreadTeam& team, real_t a, std::span<real_t> x);

/// Returns <x, y>. Per-thread partial sums are padded to a cache line and
/// reduced by the caller thread.
[[nodiscard]] real_t par_dot(ThreadTeam& team, std::span<const real_t> x,
                             std::span<const real_t> y);

/// Returns ||x||_2.
[[nodiscard]] real_t par_norm2(ThreadTeam& team, std::span<const real_t> x);

/// One modified Gram-Schmidt step of Arnoldi index j = v.size() - 1, as
/// ONE team region: for i = 0..j, h[i] <- <w, v[i]> and w <- w - h[i] v[i];
/// then h[j+1] <- ||w||_2 and, when it is positive, w <- w / h[j+1].
/// `v` holds j+1 vectors of `w.size()` values; `h.size() == j + 2`.
///
/// Bit for bit the sequence `par_dot`, `par_axpy` (per projection),
/// `par_norm2`, `par_scale` on this team: each member owns its
/// `block_range` block, publishes one partial per dot into a padded slot
/// and, after one barrier episode (j+2 in all; the slots alternate by
/// parity, so no second barrier guards their reuse), adds the p partials
/// to 0.0 in member order, as `par_dot`'s caller does. Each projection's
/// update is fused into the next dot's pass over the block.
void par_mgs(ThreadTeam& team, std::span<const real_t* const> v,
             std::span<real_t> w, std::span<real_t> h);

/// Returns <x, y> computed by the calling thread alone, bit for bit equal
/// to `par_dot` on a team of `nthreads` members: one partial per
/// `block_range(n, t, nthreads)` block, each summed in ascending order
/// from 0.0, then added to 0.0 in block order. The partials run as
/// interleaved independent chains, so the sequential twin keeps the
/// instruction-level parallelism the blocks allow. It lets one team
/// member compute a whole vector's dot inside a column-parallel region
/// (the lockstep multi-RHS GMRES) with the single-RHS driver's rounding.
[[nodiscard]] real_t team_order_dot(std::span<const real_t> x,
                                    std::span<const real_t> y, int nthreads);

/// Returns sqrt(team_order_dot(x, x, nthreads)) — `par_norm2`'s twin.
[[nodiscard]] real_t team_order_norm2(std::span<const real_t> x, int nthreads);

/// y(:, j) <- a[j]*x(:, j) + y(:, j) for every column j with
/// `active == nullptr || active[j]`.
void par_batch_axpy(ThreadTeam& team, std::span<const real_t> a,
                    ConstBatchView x, BatchView y,
                    const unsigned char* active = nullptr);

/// y(:, j) <- x(:, j) + b[j]*y(:, j) for the active columns.
void par_batch_xpby(ThreadTeam& team, ConstBatchView x,
                    std::span<const real_t> b, BatchView y,
                    const unsigned char* active = nullptr);

/// dst(:, j) <- src(:, j) for the active columns.
void par_batch_copy(ThreadTeam& team, ConstBatchView src, BatchView dst,
                    const unsigned char* active = nullptr);

/// out[j] <- <x(:, j), y(:, j)> for every column (mask-free: the extra
/// dots of frozen columns are cheaper than a masked inner loop, and the
/// caller simply ignores them). Per-thread partials are padded per
/// thread and reduced in thread order, exactly like `par_dot`.
void par_batch_dot(ThreadTeam& team, ConstBatchView x, ConstBatchView y,
                   std::span<real_t> out);

/// out[j] <- ||x(:, j)||_2 for every column.
void par_batch_norm2(ThreadTeam& team, ConstBatchView x,
                     std::span<real_t> out);

/// Row-parallel transposes between k contiguous vectors and a row-major
/// n×k batch. Pack: dst(:, j) <- src[j][0..n) for every j whose pointer
/// is non-null; other columns of dst are left untouched. Unpack:
/// dst[j][0..n) <- src(:, j) likewise. Pure copies, so every value
/// arrives bit for bit.
void par_pack_columns(ThreadTeam& team, std::span<const real_t* const> src,
                      BatchView dst);
void par_unpack_columns(ThreadTeam& team, ConstBatchView src,
                        std::span<real_t* const> dst);

}  // namespace rtl
