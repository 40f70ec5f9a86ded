#pragma once

#include <span>
#include <vector>

#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/csr.hpp"

/// Preconditioned Krylov methods — the PCGPAK-analogue driver (Appendix I
/// §1.1). Given an initial guess x0, these methods pick the approximate
/// solution from the translated Krylov space x0 + span{r0, M r0, ...},
/// minimizing a residual norm. The basic tasks are sparse matrix-vector
/// multiplies, SAXPYs and inner products (block-parallelized, Appendix II
/// §2.1), plus the preconditioner's triangular solves (inspector/executor
/// parallelized, Appendix II §2.2).
namespace rtl {

/// Iteration controls shared by the Krylov methods.
struct KrylovOptions {
  /// Maximum total iterations (across restarts for GMRES).
  int max_iterations = 500;
  /// Relative residual reduction target ||r|| <= rtol * ||b||.
  double rtol = 1e-10;
  /// GMRES restart length m.
  int restart = 30;
};

/// Outcome of a Krylov solve.
struct KrylovResult {
  bool converged = false;
  int iterations = 0;
  /// Final (preconditioned, for GMRES/CG as implemented) residual norm.
  double residual_norm = 0.0;
  /// The solve stopped at a breakdown, not converged: PCG met a zero or
  /// non-finite pᵀAp or ρ (before dividing by it); GMRES met an Arnoldi
  /// step whose rotated pivot is 0 or whose new Hessenberg entries are
  /// not finite, and x was updated with the steps before it only (or not
  /// at all, were that update non-finite). residual_norm belongs to the
  /// returned x.
  bool breakdown = false;
};

/// Preconditioned conjugate gradients for symmetric positive definite A.
/// `precond` may be null (plain CG). x holds the initial guess on entry and
/// the solution on exit.
///
/// Every driver below takes its n- and n×k-sized vectors from `team`'s
/// scratch blocks (`ThreadTeam::ScratchLease`): a repeated solve on the
/// same team reuses the blocks, and their resident pages, that the last
/// one left instead of allocating and zero-filling fresh ones, and the
/// team frees them when it is destroyed. Only the small per-solve arrays
/// (Hessenberg data, rotations, per-column scalars, the results) are
/// allocated per call. A preconditioner may itself solve on `team` from
/// inside `apply`: the nested solve borrows blocks of its own.
KrylovResult pcg_solve(ThreadTeam& team, const CsrMatrix& a,
                       std::span<const real_t> b, std::span<real_t> x,
                       Preconditioner* precond,
                       const KrylovOptions& options = {});

/// Left-preconditioned restarted GMRES(m) for general nonsymmetric A.
/// `precond` may be null. x holds the initial guess / solution. Throws
/// std::invalid_argument, before taking any scratch, unless
/// `options.restart >= 1` (as does the multi-RHS overload). Takes `work`,
/// `work2` and v_0, then v_{j+1} when step j first reaches it, so a solve
/// that converges in a few steps touches a few of the m+1 basis blocks.
///
/// One Arnoldi step is four team regions: the SpMV, the L solve and the
/// U solve of the preconditioner, then `par_mgs` — the whole modified
/// Gram-Schmidt projection, norm and scale in one region with j+2
/// barrier episodes at index j (instead of 2j+4 regions of
/// `par_dot`/`par_axpy`/`par_norm2`/`par_scale`). `par_mgs` reproduces
/// those ops bit for bit, so H, the basis and the iterates are what they
/// were, and the multi-RHS overload still matches this driver exactly.
KrylovResult gmres_solve(ThreadTeam& team, const CsrMatrix& a,
                         std::span<const real_t> b, std::span<real_t> x,
                         Preconditioner* precond,
                         const KrylovOptions& options = {});

/// Multi-RHS drivers: solve A x(:, j) = b(:, j) for every column of a
/// k-wide row-major batch with one shared preconditioner. Columns
/// iterate in *lockstep*: every iteration performs ONE batched SpMV
/// (`SpMVKernel`) and ONE batched preconditioner application
/// (`Preconditioner::apply_batch`, for `IluPreconditioner` the fused
/// `IluApplyKernel` sweep) across all still-active columns, so the
/// per-wavefront synchronization of the triangular solves is paid once
/// for the whole batch. Convergence stays *uncoupled*: a column that
/// meets its own target is frozen while the rest keep iterating, and
/// each column's iterates, iteration count, and result are bit-for-bit
/// identical to running that column through the single-RHS driver alone
/// on the same team (pinned by tests/solver_test.cpp and, under TSan,
/// tests/stress_test.cpp). Returns one KrylovResult per column.
///
/// PCG updates its columns with the masked `par_batch_*` ops, whose
/// per-column results equal the single-vector ops bit for bit.
///
/// GMRES keeps each column's iterate and basis as one contiguous block of
/// (m+2)·n values (x, v_0, ..., v_m) and runs one tick as: a row-parallel
/// transpose (`par_pack_columns`) of every live column's operand — x at a
/// cycle start, v_j in an Arnoldi step — into the SpMV input batch; the batched SpMV (and b - A x for
/// the cycle starts); the batched preconditioner; a transpose back
/// (`par_unpack_columns`) into each column's v_0 or v_{j+1}; and ONE
/// column region in which members take whole columns from a shared
/// cursor and run that column's entire step: normalization at a cycle
/// start, else modified Gram-Schmidt, the Givens rotations and, at cycle
/// end, the back-substitution and x update. The bit-for-bit claim holds
/// because the elementwise updates give the same bits on any partition,
/// and every dot runs as `team_order_dot(.., team.size())`: exactly
/// `par_dot`'s summation order on this team, computed by one member.
std::vector<KrylovResult> pcg_solve(ThreadTeam& team, const CsrMatrix& a,
                                    ConstBatchView b, BatchView x,
                                    Preconditioner* precond,
                                    const KrylovOptions& options = {});

std::vector<KrylovResult> gmres_solve(ThreadTeam& team, const CsrMatrix& a,
                                      ConstBatchView b, BatchView x,
                                      Preconditioner* precond,
                                      const KrylovOptions& options = {});

/// Runtime-context overloads: solve on `rt`'s owned team, whose scratch
/// blocks the solves therefore reuse across calls, as the plans are. Pair
/// with preconditioners built on the same Runtime so their inspector plans
/// come from (and populate) its structure-keyed cache.
inline KrylovResult pcg_solve(Runtime& rt, const CsrMatrix& a,
                              std::span<const real_t> b, std::span<real_t> x,
                              Preconditioner* precond,
                              const KrylovOptions& options = {}) {
  return pcg_solve(rt.team(), a, b, x, precond, options);
}

inline KrylovResult gmres_solve(Runtime& rt, const CsrMatrix& a,
                                std::span<const real_t> b,
                                std::span<real_t> x, Preconditioner* precond,
                                const KrylovOptions& options = {}) {
  return gmres_solve(rt.team(), a, b, x, precond, options);
}

}  // namespace rtl
