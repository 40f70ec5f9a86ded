#pragma once

#include <span>

#include "kernel/batch.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/types.hpp"

/// Abstract preconditioner interface for the Krylov methods.
///
/// PCGPAK applies Q^{-1} = (L U)^{-1} through triangular solves; the
/// Krylov drivers only need "z <- M^{-1} r", so they program against this
/// interface. Production code uses `IluPreconditioner`; benches substitute
/// instrumented variants (e.g. with amplified per-row cost to emulate the
/// paper's machine).
namespace rtl {

/// z <- M^{-1} r applied on a thread team.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Apply the preconditioner. `r` and `z` have the system dimension and
  /// do not overlap. Implementations may take temporaries from `team`'s
  /// scratch stack (`ThreadTeam::ScratchLease`), as the default
  /// `apply_batch` does, or keep internal scratch state (calls are not
  /// required to be reentrant).
  virtual void apply(ThreadTeam& team, std::span<const real_t> r,
                     std::span<real_t> z) = 0;

  /// Batched apply: z(:, j) <- M^{-1} r(:, j) for every column of the
  /// k-wide row-major batch. Named distinctly from `apply` so a subclass
  /// overriding only the single-RHS virtual does not name-hide this one.
  /// The default gathers each column into a vector leased from `team` and
  /// loops single applies — correct for any implementation;
  /// `IluPreconditioner` overrides it with the fused batched kernels (one
  /// synchronization sweep for all k columns).
  virtual void apply_batch(ThreadTeam& team, ConstBatchView r, BatchView z) {
    const auto n = static_cast<std::size_t>(r.rows());
    ThreadTeam::ScratchLease lease(team);
    const std::span<real_t> rj = lease.take(n), zj = lease.take(n);
    for (index_t j = 0; j < r.width(); ++j) {
      r.get_column(j, rj);
      apply(team, rj, zj);
      z.set_column(j, zj);
    }
  }
};

}  // namespace rtl
