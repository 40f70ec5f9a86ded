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
///  * self-scheduled / windowed: the fetch-and-add and bounded-skew
///    extensions (§3; Nicol & Saltz [13]);
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
  /// members are dealt in contiguous chunks instead.
  kGlobal,
  /// Fixed wrapped partition; each processor locally sorted by wavefront.
  kLocalWrapped,
  /// Fixed block partition; each processor locally sorted by wavefront.
  kLocalBlock,
};

/// How dependences are enforced during execution (§2.2 + extensions).
enum class ExecutionPolicy {
  /// Global synchronization between wavefronts (Figure 5).
  kPreScheduled,
  /// Busy-waits on a shared ready array (Figure 4).
  kSelfExecuting,
  /// Original iteration order + ready array (the baseline of §5.1.2).
  kDoAcross,
  /// Threads claim wavefront-sorted indices from a shared fetch-and-add
  /// cursor (extension; cf. the self-scheduling schemes discussed in §3).
  kSelfScheduled,
  /// Global barrier every `DoconsiderOptions::window` wavefronts, ready
  /// flags inside each window (extension; cf. Nicol & Saltz [13]).
  kWindowed,
  /// Barrier-free pipelined executor (the §5 fuzzy-barrier idea taken to
  /// its limit): work is decomposed into (row, RHS-panel) tasks whose
  /// readiness is tracked by per-task pending-dependence counters — the
  /// batch-aware generalization of the Figure 4 ready array — and tasks
  /// are claimed from per-worker work-stealing deques, so different
  /// right-hand-side panels occupy different wavefronts simultaneously
  /// and no phase barrier is ever taken.
  kPipelined,
  /// Point-to-point synchronization (the default): each processor walks
  /// its (processor, phase) slabs like the pre-scheduled loop, but instead
  /// of a barrier it acquire-waits only on the per-processor progress
  /// counters its next slab depends on — a list derived at inspection —
  /// and publishes its own progress with one release store per slab.
  /// Under kGlobal the wavefronts are dealt in contiguous chunks so most
  /// dependences stay on the producing processor.
  kPointToPoint,
};

/// Plan options.
struct DoconsiderOptions {
  SchedulingPolicy scheduling = SchedulingPolicy::kGlobal;
  ExecutionPolicy execution = ExecutionPolicy::kPointToPoint;
  /// Run the inspector's wavefront sweep in parallel on the team (§2.3).
  /// Does not change the produced artifact, only how fast it is built.
  bool parallel_inspector = false;
  /// kWindowed only: number of wavefronts between global barriers (>= 1).
  index_t window = 4;
  /// kPipelined only: right-hand-side columns per pipelined panel (>= 1).
  /// A batched execution of width k is decomposed into ceil(k / panel)
  /// independent column panels that flow through the dependence DAG
  /// concurrently; k = 1 (and any non-panel-aware body) always runs as a
  /// single panel. Smaller panels pipeline more aggressively but multiply
  /// the pending-counter working set.
  index_t panel = 4;
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
  if (o.execution == ExecutionPolicy::kWindowed) {
    if (o.window < 1) o.window = 1;
  } else {
    o.window = 0;
  }
  if (o.execution == ExecutionPolicy::kPipelined) {
    if (o.panel < 1) o.panel = 1;
  } else {
    o.panel = 0;
  }
  if (o.execution != ExecutionPolicy::kPreScheduled &&
      o.execution != ExecutionPolicy::kSelfExecuting) {
    o.instrumented = false;
  }
  // kDoAcross runs the original index order and kSelfScheduled consumes
  // only the wavefront-sorted list, so the scheduling policy cannot
  // influence execution; canonicalize it so equivalent requests share one
  // cache entry.
  if (o.execution == ExecutionPolicy::kDoAcross ||
      o.execution == ExecutionPolicy::kSelfScheduled) {
    o.scheduling = SchedulingPolicy::kGlobal;
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

/// Whether a loop body understands column panels — i.e. accepts a
/// half-open RHS-column range `[j0, j1)` after the iteration index. Only
/// panel-aware bodies can be decomposed across panels by the pipelined
/// executor; any other body is run as one full-width panel.
template <class Body>
inline constexpr bool is_panel_body_v =
    std::is_invocable_v<Body&, int, index_t, index_t, index_t> ||
    std::is_invocable_v<Body&, index_t, index_t, index_t>;

/// Invoke a body for iteration `i` restricted to RHS columns `[j0, j1)`.
/// Falls back to the full-sweep `invoke_body` form for bodies without a
/// panel overload (the caller must then use a single panel).
template <class Body>
inline void invoke_panel_body(Body& body, int tid, index_t i, index_t j0,
                              index_t j1) {
  if constexpr (std::is_invocable_v<Body&, int, index_t, index_t, index_t>) {
    body(tid, i, j0, j1);
  } else if constexpr (std::is_invocable_v<Body&, index_t, index_t,
                                           index_t>) {
    body(i, j0, j1);
  } else {
    invoke_body(body, tid, i);
  }
}

}  // namespace detail

}  // namespace rtl
