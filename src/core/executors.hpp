#pragma once

#include <type_traits>

#include "runtime/types.hpp"

/// Executor policy surface: which transformed loop structure (§1, §2.2)
/// a `Plan` compiles down to, and the option block selecting it.
///
/// The executor loops themselves are private, span-driven methods of
/// `rtl::Plan` (core/plan.hpp) — the schedule they walk is the plan's flat
/// CSR artifact, so the loops and the layout evolve together. This header
/// keeps only the support types shared by the plan, the `rtl::Runtime`
/// cache key, and the callers that configure them:
///
///  * pre-scheduled (Figure 5): a global synchronization separates
///    consecutive wavefronts, so the dependence guarantee is positional;
///  * self-executing (Figure 4): each iteration publishes a shared ready
///    flag, and consumers busy-wait on the flags of their dependences —
///    "a doacross loop that executes loop iterations in a modified order";
///  * doacross (§5.1.2 baseline): the self-executing mechanism over the
///    *original* index order;
///  * point-to-point (the default): the pre-scheduled slab walk with each
///    barrier replaced by acquire-waits on the progress counters of only
///    the processors a slab actually depends on (Park, Smelyanskiy,
///    Sundaram and Dubey, "Sparsifying Synchronization for
///    High-Performance Shared-Memory Sparse Triangular Solver", ISC 2014).
namespace rtl {

/// How the index set is reordered (§2.3).
enum class SchedulingPolicy {
  /// Topological sort of the whole index set, dealt wrapped to processors
  /// (Figures 9 and 10); under kPointToPoint each wavefront's index-sorted
  /// members are dealt in contiguous chunks instead. The solver layer asks
  /// `options_for_width` which layout to plan: one-lane point-to-point
  /// work walks a kLocalBlock plan, wider batches the contiguous deal.
  kGlobal,
  /// Fixed wrapped partition; each processor locally sorted by wavefront.
  kLocalWrapped,
  /// Fixed block partition; each processor locally sorted by wavefront.
  kLocalBlock,
};

/// How dependences are enforced during execution (§2.2 + point-to-point).
/// The values are the plan file's stored codes (core/plan_io.hpp); 3-5
/// belonged to executors that no longer exist and are refused on load.
enum class ExecutionPolicy {
  /// Global synchronization between wavefronts (Figure 5).
  kPreScheduled = 0,
  /// Busy-waits on a shared ready array (Figure 4).
  kSelfExecuting = 1,
  /// Original iteration order + ready array (the baseline of §5.1.2).
  kDoAcross = 2,
  /// Point-to-point synchronization (the default): each processor walks
  /// its (processor, phase) slabs like the pre-scheduled loop, but instead
  /// of a barrier it acquire-waits only on the per-processor progress
  /// counters its next slab depends on — a list derived at inspection —
  /// and publishes its own progress with one release store per slab.
  /// Under kGlobal the wavefronts are dealt in contiguous chunks so most
  /// dependences stay on the producing processor.
  kPointToPoint = 6,
};

/// Plan options.
struct DoconsiderOptions {
  SchedulingPolicy scheduling = SchedulingPolicy::kGlobal;
  ExecutionPolicy execution = ExecutionPolicy::kPointToPoint;
  /// kPreScheduled / kSelfExecuting only: run the §5.1.2 rotating
  /// instrumented variant — every processor executes all schedules, so the
  /// run is perfectly load balanced, does P times the work, keeps all
  /// synchronization memory traffic but never actually waits.
  bool instrumented = false;

  /// Field-wise equality (used by the plan cache's disk tier and plan_io
  /// to verify that a restored plan answers exactly the request made).
  bool operator==(const DoconsiderOptions&) const = default;
};

/// Options with the fields that do not apply to `execution` forced to a
/// canonical value, so equivalent requests compare (and cache-key) equal.
[[nodiscard]] constexpr DoconsiderOptions normalized_options(
    DoconsiderOptions o) noexcept {
  if (o.execution != ExecutionPolicy::kPreScheduled &&
      o.execution != ExecutionPolicy::kSelfExecuting) {
    o.instrumented = false;
  }
  // kDoAcross runs the original index order, so the scheduling policy
  // cannot influence execution; canonicalize it so equivalent requests
  // share one cache entry.
  if (o.execution == ExecutionPolicy::kDoAcross) {
    o.scheduling = SchedulingPolicy::kGlobal;
  }
  return o;
}

/// The options the solver layer plans work `width` right-hand sides wide
/// under, when the caller asked for `o`. §2.3 offers two layouts: a
/// global deal of each wavefront, which balances every phase, and a local
/// block partition, which keeps each processor on its own rows. Under
/// point-to-point `kGlobal`, one-lane work (a numeric factor, a single
/// solve) waits less on the block partition (`kLocalBlock`), because most
/// of a row's dependences stay on its own processor, while batched work
/// (width > 1) has rows wide enough that the contiguous deal's balance
/// wins. Every other option set maps to itself, so the paper's executors
/// keep the layout they were asked for.
[[nodiscard]] constexpr DoconsiderOptions options_for_width(
    DoconsiderOptions o, index_t width) noexcept {
  if (width == 1 && o.scheduling == SchedulingPolicy::kGlobal &&
      o.execution == ExecutionPolicy::kPointToPoint) {
    o.scheduling = SchedulingPolicy::kLocalBlock;
  }
  return o;
}

namespace detail {

/// Invoke a loop body as `body(tid, i)` when it accepts the executing
/// thread id (needed e.g. for per-thread factorization workspaces), else
/// as `body(i)`.
template <class Body>
inline void invoke_body(Body& body, int tid, index_t i) {
  if constexpr (std::is_invocable_v<Body&, int, index_t>) {
    body(tid, i);
  } else {
    body(i);
  }
}

}  // namespace detail

}  // namespace rtl
