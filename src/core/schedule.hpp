#pragma once

#include <span>
#include <vector>

#include "core/partition.hpp"
#include "graph/wavefront.hpp"
#include "runtime/types.hpp"

/// Per-processor execution schedules — the inspector's output.
///
/// A schedule fixes, for each processor, the order in which it performs its
/// assigned loop iterations, and where the wavefront (phase) boundaries
/// fall. The pre-scheduled executor synchronizes globally at each phase
/// boundary; the self-executing executor ignores the boundaries and relies
/// on the ready array.
///
/// Two construction policies from §2.3 / §5.1.5:
///  * global scheduling — topologically sort the whole index set by
///    wavefront and deal the sorted list to processors in a wrapped manner
///    (Figures 9 and 10), evenly splitting every wavefront;
///  * local scheduling — keep a fixed partition and stably reorder each
///    processor's own indices by wavefront number.
///
/// The point-to-point executor deals each wavefront in contiguous chunks
/// instead (`contiguous_schedule`) or walks the block partition
/// (`block_schedule`), and waits through a per-slab list of
/// cross-processor waits derived from any schedule (`slab_waits`).
namespace rtl {

/// Execution order and phase structure for every processor, stored flat
/// (CSR-style). The schedule is the executor's hot-path data structure —
/// the inspector is paid once and this artifact is walked on every one of
/// the (potentially millions of) executions (§5.1.1) — so it is three
/// contiguous arrays instead of a jagged vector-of-vectors tree:
///
///   order     [ p0's iterations | p1's iterations | ... ]        (size n)
///   proc_ptr  [ 0, |p0|, |p0|+|p1|, ..., n ]                 (nproc + 1)
///   phase_ptr one row of num_phases+1 *absolute* offsets into `order`
///             per processor, row p starting at p * (num_phases + 1)
///
/// so `proc(p)` and `phase(p, w)` are zero-copy spans. Row p of phase_ptr
/// begins at proc_ptr[p] and ends at proc_ptr[p+1]; phases with no local
/// work are empty ranges (the processor still joins the barrier).
struct Schedule {
  /// Number of processors the schedule targets.
  int nproc = 0;
  /// Number of loop iterations covered.
  index_t n = 0;
  /// Number of phases (== number of wavefronts).
  index_t num_phases = 0;
  /// All iterations, grouped by processor, each group in execution order.
  std::vector<index_t> order;
  /// nproc+1 offsets into `order`: processor p executes
  /// order[proc_ptr[p] .. proc_ptr[p+1]).
  std::vector<index_t> proc_ptr;
  /// nproc rows of num_phases+1 absolute offsets into `order`: processor
  /// p's phase w spans order[phase_row(p)[w] .. phase_row(p)[w+1]).
  std::vector<index_t> phase_ptr;

  /// Iterations processor p executes, in order (zero-copy).
  [[nodiscard]] std::span<const index_t> proc(int p) const noexcept {
    return {order.data() + proc_ptr[static_cast<std::size_t>(p)],
            order.data() + proc_ptr[static_cast<std::size_t>(p) + 1]};
  }

  /// Processor p's num_phases+1 phase offsets (absolute into `order`).
  [[nodiscard]] std::span<const index_t> phase_row(int p) const noexcept {
    return {phase_ptr.data() +
                static_cast<std::size_t>(p) *
                    (static_cast<std::size_t>(num_phases) + 1),
            static_cast<std::size_t>(num_phases) + 1};
  }

  /// Iterations assigned to processor p during phase w (zero-copy).
  [[nodiscard]] std::span<const index_t> phase(int p, index_t w) const
      noexcept {
    const auto row = phase_row(p);
    return {order.data() + row[static_cast<std::size_t>(w)],
            order.data() + row[static_cast<std::size_t>(w) + 1]};
  }
};

/// Global scheduling: take the wavefront-sorted list L (`wf.order`) and
/// deal it wrapped across processors — L[k] goes to processor k mod nproc —
/// so the work of every wavefront is evenly partitioned.
[[nodiscard]] Schedule global_schedule(const WavefrontInfo& wf, int nproc);

/// Contiguous global scheduling (the point-to-point executor's deal):
/// each wavefront's index-sorted members are split into `nproc`
/// contiguous chunks of near-equal size (the first `m mod nproc`
/// processors take one extra), chunk p going to processor p. Every
/// wavefront stays balanced within one, like the wrapped deal, but
/// neighbouring indices — which in a sparse factor depend on each other —
/// land on the same processor.
[[nodiscard]] Schedule contiguous_schedule(const WavefrontInfo& wf,
                                           int nproc);

/// Local scheduling: keep `part`'s assignment; each processor's indices are
/// stably reordered by increasing wavefront number.
[[nodiscard]] Schedule local_schedule(const WavefrontInfo& wf,
                                      const Partition& part);

/// Local scheduling over the block partition (`SchedulingPolicy::
/// kLocalBlock`), built directly: processor p's `block_range` of the index
/// set, counting-sorted by wavefront. The same arrays as
/// `local_schedule(wf, block_partition(wf.size(), nproc))` without the
/// n-entry owner map and member lists a `Partition` builds.
[[nodiscard]] Schedule block_schedule(const WavefrontInfo& wf, int nproc);

/// Degenerate schedule used by the doacross baseline: original iteration
/// order striped over processors, every iteration its own phase locally
/// (num_phases == 1; the doacross executor never uses phase boundaries).
[[nodiscard]] Schedule original_order_schedule(index_t n, int nproc);

/// One cross-processor wait of the point-to-point executor: before its
/// slab runs, the waiting processor acquire-loads processor `proc`'s
/// progress counter until phase `phase` is published as done.
struct SlabWait {
  index_t proc;
  index_t phase;
};

/// The point-to-point executor's wait lists, flat: slab (p, w) — processor
/// p's phase-w iterations — waits on
/// `waits[ptr[p * num_phases + w] .. ptr[p * num_phases + w + 1])`.
/// Every wait names another processor and a strictly earlier phase, and
/// the list holds, per producer, only the latest phase the slab needs that
/// no earlier slab of the same processor already waited for.
struct SlabWaits {
  index_t num_phases = 0;
  /// nproc * num_phases + 1 offsets into `waits`.
  std::vector<index_t> ptr;
  std::vector<SlabWait> waits;

  /// Processor p's num_phases+1 offsets into `waits`: slab (p, w) waits
  /// on waits[row(p)[w] .. row(p)[w + 1]).
  [[nodiscard]] const index_t* row(int p) const noexcept {
    return ptr.data() +
           static_cast<std::size_t>(p) * static_cast<std::size_t>(num_phases);
  }
  /// Bytes of the two arrays.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return ptr.size() * sizeof(index_t) + waits.size() * sizeof(SlabWait);
  }
};

/// Derive the wait lists of schedule `s` (any validated schedule whose
/// phases are the wavefronts `wf` of `g`): for every dependence i -> d
/// whose producer d runs on another processor q, slab (owner(i), wave(i))
/// must see q's phase wave(d) done. Per slab and producer only the latest
/// needed phase is kept, and it is dropped when an earlier slab of the
/// same processor already waited for that phase or a later one of q.
/// O(n + edges) with an n-entry row -> processor map (one byte per row
/// for teams of up to 256 processors).
[[nodiscard]] SlabWaits slab_waits(const DependenceGraph& g,
                                   const WavefrontInfo& wf,
                                   const Schedule& s);

/// Validation: every index appears exactly once, processor and phase
/// pointers are monotone, consistent with each other and with wavefront
/// numbers. Throws on violation.
void validate_schedule(const Schedule& s, const WavefrontInfo& wf);

}  // namespace rtl
