#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/executors.hpp"
#include "core/partition.hpp"
#include "core/schedule.hpp"
#include "graph/dependence_graph.hpp"
#include "graph/wavefront.hpp"
#include "runtime/barrier.hpp"
#include "runtime/ready_flags.hpp"
#include "runtime/spin_wait.hpp"
#include "runtime/thread_team.hpp"

/// Plan/Runtime API v2 — the inspector artifact and its execution engine.
///
/// The paper's whole economic argument is that the inspector is paid once
/// and amortized over many executor runs (§5.1.1). The v2 API makes that
/// literal: a `Plan` is an immutable compiled artifact (dependence graph +
/// wavefronts + schedule + a deterministic structure fingerprint) whose
/// `execute()` is const and safe to call concurrently from *distinct*
/// thread teams; all per-execution mutable state (the ready array of
/// Figure 4, the point-to-point progress counters) belongs to the
/// executing `ThreadTeam`, which runs one region at a time.
///
/// Because the inspector artifact is the executor's hot-path data
/// structure, it is stored flat: the schedule and wavefront membership are
/// contiguous CSR-style arrays (core/schedule.hpp, graph/wavefront.hpp),
/// and every executor shape — reachable through `Plan::execute` via
/// `ExecutionPolicy`, including the §5.1.2 rotating instrumented variants
/// behind `DoconsiderOptions::instrumented` — is a private, span-driven
/// method of `Plan`, templated on the body (no `std::function` in the
/// loop). `memory_footprint()` / `stats()` expose the artifact's
/// size and shape for CLIs and the bench JSON.
namespace rtl {

class Plan;

namespace detail {
// Deserialization gateway (core/plan_io.cpp): the only caller of Plan's
// inspector-free adoption constructor.
struct PlanRestorer;
}  // namespace detail

/// Summary of a plan's inspector artifact: the shape of the parallelism it
/// found and the bytes the executor walks per run.
struct PlanStats {
  /// Loop iterations covered.
  index_t n = 0;
  /// Dependence edges.
  index_t edges = 0;
  /// Wavefronts (== barrier phases of the pre-scheduled executor).
  index_t phases = 0;
  /// Widest wavefront (the available parallelism ceiling).
  index_t max_wavefront = 0;
  /// Mean wavefront width (n / phases; 0 for an empty plan).
  double avg_wavefront = 0.0;
  /// Cross-processor waits the point-to-point executor performs per run
  /// (0 under every other policy).
  std::size_t waits = 0;
  /// Bytes of the point-to-point wait lists (included in `bytes`).
  std::size_t wait_bytes = 0;
  /// Total bytes of the immutable artifact (== memory_footprint()).
  std::size_t bytes = 0;
};

/// Immutable, shareable inspector artifact: dependence graph + wavefronts
/// + per-processor schedule + structure fingerprint, compiled for a fixed
/// processor count. `execute()` is const; a Plan may be shared (e.g. via
/// `std::shared_ptr<const Plan>` handed out by `rtl::Runtime`) and
/// executed concurrently from distinct thread teams of the same size.
class Plan {
 public:
  /// Run the inspector for `graph` on `team.size()` processors.
  Plan(ThreadTeam& team, DependenceGraph graph, DoconsiderOptions options = {})
      : Plan(team, std::move(graph), options, std::nullopt) {}

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Execute the loop body under the planned order, with `team`'s ready
  /// array or progress counters as the per-execution synchronization
  /// data. `body(i)` (or `body(tid, i)`) must perform the work of
  /// iteration i and may read any value produced by an iteration in
  /// `graph().deps(i)`. Const and safe to call concurrently from distinct
  /// teams; `team` must have the processor count the plan was compiled
  /// for.
  ///
  /// A batched body — one that sweeps all k right-hand sides of iteration
  /// i before returning (kernel/bound_kernel.hpp) — runs through this same
  /// entry point: the synchronization cost is independent of k (one
  /// barrier per phase, one progress store per slab, one ready publish per
  /// iteration), because a published iteration has finished every lane.
  ///
  /// If the body throws, every executor leaves the region and the first
  /// exception reaches the caller; `team` and the plan stay usable.
  template <class Body>
  void execute(ThreadTeam& team, Body&& body) const {
    assert(team.size() == nproc_ &&
           "plan compiled for a different team size");
    switch (options_.execution) {
      case ExecutionPolicy::kPreScheduled:
        if (options_.instrumented) {
          run_rotating_prescheduled(team, body);
        } else {
          run_prescheduled(team, body);
        }
        break;
      case ExecutionPolicy::kSelfExecuting:
        if (options_.instrumented) {
          run_rotating_self(team, body);
        } else {
          run_self(team, body);
        }
        break;
      case ExecutionPolicy::kDoAcross:
        run_doacross(team, body);
        break;
      case ExecutionPolicy::kPointToPoint:
        run_point_to_point(team, body);
        break;
    }
  }

  [[nodiscard]] const DependenceGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const WavefrontInfo& wavefronts() const noexcept {
    return wavefronts_;
  }
  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] const DoconsiderOptions& options() const noexcept {
    return options_;
  }
  /// Number of loop iterations covered.
  [[nodiscard]] index_t size() const noexcept { return graph_.size(); }
  /// Processor count the plan was compiled for.
  [[nodiscard]] int nproc() const noexcept { return nproc_; }
  /// Deterministic fingerprint of the dependence structure (the cache key
  /// component of `rtl::Runtime`). Equal structures hash equal across
  /// processes; distinct structures collide with probability ~2^-64.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// The point-to-point executor's per-slab wait lists (empty under every
  /// other policy). Derived from the schedule at inspection and again on
  /// load, never serialized.
  [[nodiscard]] const SlabWaits& waits() const noexcept { return waits_; }

  /// Bytes of the immutable artifact the executor walks: the dependence
  /// CSR, the wavefront levels + membership CSR, the flat schedule and the
  /// point-to-point wait lists. (Per-execution state belongs to the team.)
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    constexpr std::size_t idx = sizeof(index_t);
    const std::size_t entries =
        graph_.ptr().size() + graph_.adj().size() + wavefronts_.wave.size() +
        wavefronts_.order.size() + wavefronts_.wave_ptr.size() +
        schedule_.order.size() + schedule_.proc_ptr.size() +
        schedule_.phase_ptr.size();
    return entries * idx + waits_.bytes();
  }

  /// Shape-and-size summary (surfaced by inspect_cli and the bench JSON).
  [[nodiscard]] PlanStats stats() const noexcept {
    PlanStats st;
    st.n = graph_.size();
    st.edges = graph_.num_edges();
    st.phases = wavefronts_.num_waves;
    st.max_wavefront = wavefronts_.max_wave_size();
    st.avg_wavefront =
        st.phases > 0
            ? static_cast<double>(st.n) / static_cast<double>(st.phases)
            : 0.0;
    st.waits = waits_.waits.size();
    st.wait_bytes = waits_.bytes();
    st.bytes = memory_footprint();
    return st;
  }

 private:
  // Runtime::plan_for already hashed the graph for its cache key and
  // passes the value through the trusted constructor below.
  friend class Runtime;
  // load_plan (core/plan_io) restores a serialized artifact through the
  // adoption constructor below after validating every invariant.
  friend struct detail::PlanRestorer;

  /// Primary constructor: `fingerprint`, when provided, must equal
  /// `graph.fingerprint()` — callers other than Runtime pass nullopt.
  Plan(ThreadTeam& team, DependenceGraph graph, DoconsiderOptions options,
       std::optional<std::uint64_t> fingerprint)
      : graph_(std::move(graph)),
        options_(normalized_options(options)),
        nproc_(team.size()),
        fingerprint_(fingerprint ? *fingerprint : graph_.fingerprint()) {
    wavefronts_ = compute_wavefronts(graph_);
    switch (options_.scheduling) {
      case SchedulingPolicy::kGlobal:
        // The paper's executors keep the wrapped deal of Figures 9-10 (the
        // §4.2 model and the paper tables assume it); point-to-point
        // synchronization pays per cross-processor dependence, so it deals
        // contiguous chunks.
        schedule_ = options_.execution == ExecutionPolicy::kPointToPoint
                        ? contiguous_schedule(wavefronts_, nproc_)
                        : global_schedule(wavefronts_, nproc_);
        break;
      case SchedulingPolicy::kLocalWrapped:
        schedule_ = local_schedule(wavefronts_,
                                   wrapped_partition(graph_.size(), nproc_));
        break;
      case SchedulingPolicy::kLocalBlock:
        schedule_ = block_schedule(wavefronts_, nproc_);
        break;
    }
    derive_executor_data();
  }

  /// Adoption constructor (plan_io deserialization): take a pre-built,
  /// fully validated artifact without running the inspector. `options`
  /// must already be normalized and `fingerprint` must equal
  /// `graph.fingerprint()` — `load_plan` enforces both before reaching
  /// this point. The point-to-point wait lists are rebuilt here rather
  /// than deserialized: they are a pure function of the dependence CSR and
  /// the (validated) loaded schedule, so rebuilding cannot disagree with
  /// the image.
  Plan(DependenceGraph graph, DoconsiderOptions options, int nproc,
       std::uint64_t fingerprint, WavefrontInfo wavefronts,
       Schedule schedule)
      : graph_(std::move(graph)),
        options_(options),
        nproc_(nproc),
        fingerprint_(fingerprint),
        wavefronts_(std::move(wavefronts)),
        schedule_(std::move(schedule)) {
    derive_executor_data();
  }

  /// The point-to-point executor's per-slab wait lists, derived once from
  /// the graph and the schedule.
  void derive_executor_data() {
    if (options_.execution == ExecutionPolicy::kPointToPoint) {
      waits_ = slab_waits(graph_, wavefronts_, schedule_);
    }
  }

  // -------------------------------------------------------------------
  // The executors: transformed loop structures that carry out the
  // calculations planned by the scheduler (§1, §2.2). All guarantee that
  // `body(i)` runs only after `body(d)` completed for every d in
  // `graph().deps(i)`; they differ in how that guarantee is enforced.
  // Each walks the flat schedule through raw spans — one contiguous
  // `order` array plus row-pointer offsets — so the per-iteration cost is
  // an indexed load, never a pointer chase through nested vectors.
  //
  // Every wait (barrier, ready flag, progress counter) also watches the
  // team's region-abort flag, read only after a first load found the wait
  // unsatisfied: a throwing body breaks the producer chain, so its
  // consumers leave the region and `ThreadTeam::run` rethrows.
  // -------------------------------------------------------------------

  /// Pre-scheduled executor: every processor runs its phase-w indices,
  /// then joins a global barrier, for each phase in turn (Figure 5).
  template <class Body>
  void run_prescheduled(ThreadTeam& team, Body& body) const {
    team.run([&](int tid) {
      SpinBarrier& bar = team.barrier();
      std::uint64_t waits = 0;
      const index_t* ord = schedule_.order.data();
      const auto row = schedule_.phase_row(tid);
      for (index_t w = 0; w < schedule_.num_phases; ++w) {
        for (index_t k = row[static_cast<std::size_t>(w)];
             k < row[static_cast<std::size_t>(w) + 1]; ++k) {
          detail::invoke_body(body, tid, ord[static_cast<std::size_t>(k)]);
        }
        if (!bar.arrive_and_wait()) return;  // a peer threw
        ++waits;
      }
      team.add_exec_counters(0, waits);
    });
  }

  /// Self-executing executor: busy-wait on the ready flags of each
  /// dependence, run the body, publish completion (Figure 4). The team's
  /// ready array is cleared over [0, n) on entry.
  template <class Body>
  void run_self(ThreadTeam& team, Body& body) const {
    ReadyFlags& ready = team.reset_ready(graph_.size());
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (const index_t i : schedule_.proc(tid)) {
        for (const index_t d : graph_.deps(i)) {
          if (!ready.wait(d)) return;  // a peer threw
        }
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Doacross baseline: original iteration order striped over processors,
  /// synchronized through the ready array. Equivalent to `run_self` over
  /// `original_order_schedule` but without any indirection through a
  /// reordered index list (the paper notes the doacross loop "does not
  /// have to perform array references to access the reordered index set").
  template <class Body>
  void run_doacross(ThreadTeam& team, Body& body) const {
    const index_t n = graph_.size();
    ReadyFlags& ready = team.reset_ready(n);
    const int p = team.size();
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (index_t i = tid; i < n; i += p) {
        for (const index_t d : graph_.deps(i)) {
          if (!ready.wait(d)) return;  // a peer threw
        }
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Rotating-processor run of the self-executing code (§5.1.2): every
  /// processor executes the schedules of *all* processors in rotation, so
  /// the run is perfectly load balanced and does P times the work. All
  /// ready-flag reads and writes still occur, but flags are pre-set so no
  /// waiting happens. Time it externally and divide by P. Every row runs P
  /// times without waiting, so the outputs are not defined: timing only.
  template <class Body>
  void run_rotating_self(ThreadTeam& team, Body& body) const {
    // Pre-publish every flag: the wait loops fall through on first read.
    ReadyFlags& ready = team.reset_ready(schedule_.n);
    for (index_t i = 0; i < schedule_.n; ++i) ready.set(i);
    const int p = team.size();
    team.run([&](int tid) {
      for (int shift = 0; shift < p; ++shift) {
        const int owner = (tid + shift) % p;
        for (const index_t i : schedule_.proc(owner)) {
          for (const index_t d : graph_.deps(i)) {
            if (!ready.wait(d)) return;  // never: flags pre-set
          }
          detail::invoke_body(body, tid, i);
          ready.set(i);
        }
      }
    });
  }

  /// Rotating-processor run of the pre-scheduled code (§5.1.2): like
  /// `run_rotating_self` (timing only) but with neither barriers nor
  /// ready-array traffic (the pre-scheduled loop keeps no completion
  /// array).
  template <class Body>
  void run_rotating_prescheduled(ThreadTeam& team, Body& body) const {
    const int p = team.size();
    team.run([&](int tid) {
      for (int shift = 0; shift < p; ++shift) {
        const int owner = (tid + shift) % p;
        for (const index_t i : schedule_.proc(owner)) {
          detail::invoke_body(body, tid, i);
        }
      }
    });
  }

  /// Point-to-point executor: every processor walks its slabs in phase
  /// order like the pre-scheduled loop, but instead of a barrier each slab
  /// first acquire-waits on the progress counters its wait list names —
  /// only the producers it reads, only as far as it reads them — and ends
  /// with one release store of its own progress. Memory ordering: a
  /// producer's body writes precede its release store; the consumer's
  /// acquire load that observes the store precedes the consumer's body
  /// reads, and every later slab of the consumer by program order (which
  /// is why a wait an earlier slab already made can be dropped). No
  /// n-sized state is touched and the per-run reset is O(nproc).
  ///
  /// Deadlock freedom: every wait names a strictly earlier phase of
  /// another processor, and every processor publishes in phase order, so
  /// by induction over phases every slab eventually runs (unless a body
  /// throws; see the abort note above).
  template <class Body>
  void run_point_to_point(ThreadTeam& team, Body& body) const {
    ThreadTeam::Progress* const progress = team.reset_progress();
    team.run([&](int tid) {
      const index_t* ord = schedule_.order.data();
      const index_t* row = schedule_.phase_row(tid).data();
      const index_t* wrow = waits_.row(tid);
      const SlabWait* wl = waits_.waits.data();
      std::atomic<index_t>& mine =
          progress[static_cast<std::size_t>(tid)].phases;
      std::uint64_t pubs = 0;
      for (index_t w = 0; w < schedule_.num_phases; ++w) {
        const auto ws = static_cast<std::size_t>(w);
        if (row[ws] == row[ws + 1]) continue;  // empty slab: nothing to say
        for (index_t k = wrow[ws]; k < wrow[ws + 1]; ++k) {
          const SlabWait& wt = wl[static_cast<std::size_t>(k)];
          if (!await_progress(
                  team, progress[static_cast<std::size_t>(wt.proc)].phases,
                  wt.phase + 1)) {
            return;  // a peer threw; run() rethrows its exception
          }
        }
        for (index_t k = row[ws]; k < row[ws + 1]; ++k) {
          detail::invoke_body(body, tid, ord[static_cast<std::size_t>(k)]);
        }
        mine.store(w + 1, std::memory_order_release);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Acquire-wait until `counter` reaches `target`. The region-abort flag
  /// is read only once a first load found the producer behind, so a
  /// satisfied wait costs one load. False when a team member threw: the
  /// producer may never publish again.
  static bool await_progress(const ThreadTeam& team,
                             const std::atomic<index_t>& counter,
                             index_t target) noexcept {
    if (counter.load(std::memory_order_acquire) >= target) return true;
    SpinWait backoff;
    do {
      if (team.region_aborted()) return false;
      backoff.wait_once();
    } while (counter.load(std::memory_order_acquire) < target);
    return true;
  }

  DependenceGraph graph_;
  DoconsiderOptions options_;
  int nproc_;
  std::uint64_t fingerprint_;
  WavefrontInfo wavefronts_;
  Schedule schedule_;
  // Per-slab cross-processor waits; built only for kPointToPoint.
  SlabWaits waits_;
};

/// One-shot convenience: inspector + a single execution. Prefer building a
/// `Plan` (or asking a `rtl::Runtime` for one) when the loop runs more
/// than once.
template <class Body>
void doconsider(ThreadTeam& team, DependenceGraph graph, Body&& body,
                DoconsiderOptions options = {}) {
  const Plan plan(team, std::move(graph), options);
  plan.execute(team, std::forward<Body>(body));
}

}  // namespace rtl
