#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

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
/// Figure 4, the self-scheduling cursor, the point-to-point progress
/// counters) lives in an `ExecState` that is created — or transparently
/// pooled — at execute() time.
///
/// Because the inspector artifact is the executor's hot-path data
/// structure, it is stored flat: the schedule and wavefront membership are
/// contiguous CSR-style arrays (core/schedule.hpp, graph/wavefront.hpp),
/// and every executor shape — reachable through `Plan::execute` via
/// `ExecutionPolicy`, including the dynamically self-scheduled and
/// windowed-hybrid extensions and the §5.1.2 rotating instrumented
/// variants behind `DoconsiderOptions::instrumented` — is a private,
/// span-driven method of `Plan`, templated on the body (no `std::function`
/// in the loop). `memory_footprint()` / `stats()` expose the artifact's
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

/// Per-execution mutable state: the shared ready array, the
/// self-scheduling cursor, the point-to-point executor's per-processor
/// progress counters, and — for the pipelined executor — the
/// per-(row, panel) pending-dependence counters. One ExecState serves one
/// execution at a time; distinct concurrent executions of the same `Plan`
/// need distinct states (pass none to `Plan::execute` and one is pooled
/// automatically).
class ExecState {
 public:
  /// State sized for `plan` (ready flags and progress counters only when
  /// its policy uses them).
  /// This is the only constructor: a state not sized for a plan would be
  /// out-of-bounds the moment a ready-using policy executes with it.
  explicit ExecState(const Plan& plan);

  ExecState(const ExecState&) = delete;
  ExecState& operator=(const ExecState&) = delete;

  [[nodiscard]] ReadyFlags& ready() noexcept { return ready_; }
  [[nodiscard]] std::atomic<index_t>& cursor() noexcept { return cursor_; }

  /// Declare the batch width of the next execution (>= 1). This makes the
  /// ready flags batch-aware without widening them: with width k, a
  /// published flag i promises that iteration i's results for **all** k
  /// right-hand sides are visible — batched bodies complete the full
  /// k-sweep of an iteration before the executor publishes its flag, so
  /// one flag per iteration (and one barrier per phase) suffices for any
  /// k. Called by `Plan::execute_batch` with the batch width and by plain
  /// `Plan::execute` with 1 — the width is an execution property, never a
  /// sticky leftover, because the pipelined executor derives its panel
  /// decomposition (and its flag-array sizing) from it.
  void prepare_batch(index_t width) noexcept {
    assert(width >= 1);
    batch_width_ = width;
  }
  /// Batch width declared for the current/last execution (1 by default).
  [[nodiscard]] index_t batch_width() const noexcept { return batch_width_; }

  /// Pending-dependence counters for `total` (row, panel) tasks of the
  /// pipelined executor, (re)allocated on demand. Called at the start of
  /// every pipelined execution: the task count depends on the execution's
  /// batch width, so a pooled state alternating between widths (k=1 solve
  /// then k=16 batch on the same plan) must re-validate the sizing each
  /// time rather than trust whatever a previous execution left behind.
  [[nodiscard]] std::atomic<index_t>* pending(std::size_t total) {
    if (pending_.size() < total) {
      pending_ = std::vector<std::atomic<index_t>>(total);
    }
    return pending_.data();
  }

  /// Unfinished-task countdown of the pipelined executor's current run.
  [[nodiscard]] std::atomic<std::int64_t>& remaining() noexcept {
    return remaining_;
  }

  /// One point-to-point progress counter: the number of phases its
  /// processor has published as done in the current run. Padded so a
  /// processor's release stores never share a line with a peer's.
  struct alignas(cache_line_size) Progress {
    std::atomic<index_t> phases{0};
  };
  /// The point-to-point executor's per-processor counters, zeroed for the
  /// next run: O(nproc) stores, never O(n). Must not race with a run.
  [[nodiscard]] Progress* reset_progress() noexcept {
    for (auto& c : progress_) c.phases.store(0, std::memory_order_relaxed);
    return progress_.data();
  }

 private:
  ReadyFlags ready_;
  std::vector<Progress> progress_;
  index_t batch_width_ = 1;
  std::vector<std::atomic<index_t>> pending_;
  alignas(cache_line_size) std::atomic<index_t> cursor_{0};
  alignas(cache_line_size) std::atomic<std::int64_t> remaining_{0};
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

  /// Execute the loop body under the planned order using `state` for the
  /// per-execution synchronization data. `body(i)` (or `body(tid, i)`)
  /// must perform the work of iteration i and may read any value produced
  /// by an iteration in `graph().deps(i)`. Const and safe to call
  /// concurrently from distinct teams with distinct states; `team` must
  /// have the processor count the plan was compiled for.
  template <class Body>
  void execute(ThreadTeam& team, Body&& body, ExecState& state) const {
    // Plain execute is always a width-1 execution: the pipelined executor
    // derives its panel decomposition (and pending-array sizing) from the
    // state's batch width, so a stale width left by an earlier
    // execute_batch on a pooled state must not leak into this run.
    state.prepare_batch(1);
    dispatch(team, body, state);
  }

  /// Execute with a pooled ExecState: acquires a state from the plan's
  /// internal pool (allocating on first use), so concurrent callers never
  /// share synchronization data. The pool is the only mutable member and
  /// is mutex-guarded; the plan stays logically immutable.
  template <class Body>
  void execute(ThreadTeam& team, Body&& body) const {
    const StateLease lease(*this);
    execute(team, std::forward<Body>(body), lease.state());
  }

  /// Batched execution: one run of the planned loop in which `body(i)`
  /// (or `body(tid, i)`) sweeps all `batch` right-hand sides of iteration
  /// i before returning. The synchronization cost is independent of the
  /// batch width — the pre-scheduled executor still pays one barrier per
  /// wavefront phase, the point-to-point executor one progress store per
  /// slab and the flag-based executors one ready publish per iteration,
  /// because `state`'s flags become batch-aware (see
  /// `ExecState::prepare_batch`). The kernel layer
  /// (kernel/bound_kernel.hpp) is the intended caller.
  template <class Body>
  void execute_batch(ThreadTeam& team, index_t batch, Body&& body,
                     ExecState& state) const {
    assert(batch >= 1);
    state.prepare_batch(batch);
    dispatch(team, body, state);
  }

  /// Batched execution with a pooled ExecState.
  template <class Body>
  void execute_batch(ThreadTeam& team, index_t batch, Body&& body) const {
    const StateLease lease(*this);
    execute_batch(team, batch, std::forward<Body>(body), lease.state());
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
  /// Whether executions under this plan's policy use the ready array.
  /// (kPipelined tracks readiness in per-task pending counters instead,
  /// which ExecState allocates lazily per execution width, and
  /// kPointToPoint in per-processor progress counters.)
  [[nodiscard]] bool needs_ready_flags() const noexcept {
    return options_.execution != ExecutionPolicy::kPreScheduled &&
           options_.execution != ExecutionPolicy::kPipelined &&
           options_.execution != ExecutionPolicy::kPointToPoint;
  }

  /// Bytes of the immutable artifact the executor walks: the dependence
  /// CSR, the wavefront levels + membership CSR, the flat schedule and the
  /// point-to-point wait lists. (Excludes per-execution ExecState pools —
  /// those are transient.)
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    constexpr std::size_t idx = sizeof(index_t);
    std::size_t entries = graph_.ptr().size() + graph_.adj().size() +
                          wavefronts_.wave.size() + wavefronts_.order.size() +
                          wavefronts_.wave_ptr.size() +
                          schedule_.order.size() + schedule_.proc_ptr.size() +
                          schedule_.phase_ptr.size();
    if (options_.execution == ExecutionPolicy::kPipelined) {
      // The successor CSR the pipelined executor walks to publish
      // readiness forward.
      entries += successors_.ptr().size() + successors_.adj().size();
    }
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
  friend class ExecState;
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
    wavefronts_ = options_.parallel_inspector
                      ? compute_wavefronts_parallel(graph_, team)
                      : compute_wavefronts(graph_);
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
        schedule_ = local_schedule(wavefronts_,
                                   block_partition(graph_.size(), nproc_));
        break;
    }
    derive_executor_data();
  }

  /// Adoption constructor (plan_io deserialization): take a pre-built,
  /// fully validated artifact without running the inspector. `options`
  /// must already be normalized and `fingerprint` must equal
  /// `graph.fingerprint()` — `load_plan` enforces both before reaching
  /// this point. The successor adjacency of the pipelined executor and the
  /// point-to-point wait lists are rebuilt here rather than deserialized:
  /// they are pure functions of the dependence CSR and the (validated)
  /// loaded schedule, so rebuilding cannot disagree with the image.
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

  /// Executor-specific components derived once from the graph and the
  /// schedule: the pipelined executor publishes readiness forward
  /// (producer -> consumers), so it needs the successor lists the
  /// predecessor CSR cannot give it in O(deg); the point-to-point executor
  /// needs its per-slab wait lists.
  void derive_executor_data() {
    if (options_.execution == ExecutionPolicy::kPipelined) {
      successors_ = graph_.reversed();
    } else if (options_.execution == ExecutionPolicy::kPointToPoint) {
      waits_ = slab_waits(graph_, wavefronts_, schedule_);
    }
  }

  /// Policy dispatch shared by `execute` (width forced to 1) and
  /// `execute_batch` (width set by the caller). Private so every entry
  /// point declares the batch width explicitly before reaching it.
  template <class Body>
  void dispatch(ThreadTeam& team, Body& body, ExecState& state) const {
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
          run_rotating_self(team, state.ready(), body);
        } else {
          run_self(team, state.ready(), body);
        }
        break;
      case ExecutionPolicy::kDoAcross:
        run_doacross(team, state.ready(), body);
        break;
      case ExecutionPolicy::kSelfScheduled:
        run_self_scheduled(team, state.ready(), state.cursor(), body);
        break;
      case ExecutionPolicy::kWindowed:
        run_windowed(team, state.ready(), body);
        break;
      case ExecutionPolicy::kPipelined:
        run_pipelined(team, state, body);
        break;
      case ExecutionPolicy::kPointToPoint:
        run_point_to_point(team, state, body);
        break;
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
  // -------------------------------------------------------------------

  /// Pre-scheduled executor: every processor runs its phase-w indices,
  /// then joins a global barrier, for each phase in turn (Figure 5).
  template <class Body>
  void run_prescheduled(ThreadTeam& team, Body& body) const {
    team.run([&](int tid) {
      BarrierToken bar(team.barrier());
      std::uint64_t waits = 0;
      const index_t* ord = schedule_.order.data();
      const auto row = schedule_.phase_row(tid);
      for (index_t w = 0; w < schedule_.num_phases; ++w) {
        for (index_t k = row[static_cast<std::size_t>(w)];
             k < row[static_cast<std::size_t>(w) + 1]; ++k) {
          detail::invoke_body(body, tid, ord[static_cast<std::size_t>(k)]);
        }
        bar.wait();
        ++waits;
      }
      team.add_exec_counters(0, 0, waits);
    });
  }

  /// Self-executing executor: busy-wait on the ready flags of each
  /// dependence, run the body, publish completion (Figure 4). `ready` is
  /// reset on entry.
  template <class Body>
  void run_self(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    ready.reset();
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (const index_t i : schedule_.proc(tid)) {
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0, 0);
    });
  }

  /// Doacross baseline: original iteration order striped over processors,
  /// synchronized through the ready array. Equivalent to `run_self` over
  /// `original_order_schedule` but without any indirection through a
  /// reordered index list (the paper notes the doacross loop "does not
  /// have to perform array references to access the reordered index set").
  template <class Body>
  void run_doacross(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    ready.reset();
    const index_t n = graph_.size();
    const int p = team.size();
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (index_t i = tid; i < n; i += p) {
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0, 0);
    });
  }

  /// Rotating-processor run of the self-executing code (§5.1.2): every
  /// processor executes the schedules of *all* processors in rotation, so
  /// the run is perfectly load balanced and does P times the work. All
  /// ready-flag reads and writes still occur, but flags are pre-set so no
  /// waiting happens. Time it externally and divide by P.
  template <class Body>
  void run_rotating_self(ThreadTeam& team, ReadyFlags& ready,
                         Body& body) const {
    // Pre-publish every flag: the wait loops fall through on first read.
    ready.reset();
    for (index_t i = 0; i < schedule_.n; ++i) ready.set(i);
    const int p = team.size();
    team.run([&](int tid) {
      for (int shift = 0; shift < p; ++shift) {
        const int owner = (tid + shift) % p;
        for (const index_t i : schedule_.proc(owner)) {
          for (const index_t d : graph_.deps(i)) ready.wait(d);
          detail::invoke_body(body, tid, i);
          ready.set(i);
        }
      }
    });
  }

  /// Rotating-processor run of the pre-scheduled code (§5.1.2): like
  /// `run_rotating_self` but with neither barriers nor ready-array
  /// traffic (the pre-scheduled loop keeps no completion array).
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

  /// Dynamically self-scheduled executor (extension; cf. the
  /// self-scheduling schemes of Lusk/Overbeek and Tang/Yew discussed in
  /// §3): instead of a static index-to-processor assignment, threads claim
  /// consecutive entries of the wavefront-sorted list (`wavefronts().order`,
  /// a dependence-consistent permutation of 0..n-1) from a shared
  /// fetch-and-add cursor; dependences are still enforced through the
  /// ready array. Trades the cursor's contention for automatic load
  /// balance when per-iteration work is irregular.
  template <class Body>
  void run_self_scheduled(ThreadTeam& team, ReadyFlags& ready,
                          std::atomic<index_t>& cursor, Body& body) const {
    ready.reset();
    cursor.store(0, std::memory_order_relaxed);
    const index_t* ord = wavefronts_.order.data();
    const index_t n = static_cast<index_t>(wavefronts_.order.size());
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (;;) {
        const index_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= n) break;
        const index_t i = ord[static_cast<std::size_t>(k)];
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0, 0);
    });
  }

  /// Windowed hybrid executor (extension): global synchronization every
  /// `options().window` wavefronts, ready-array busy-waits *inside* each
  /// window. Interpolates between the paper's two executors — window = 1
  /// is the pre-scheduled loop with (redundant) flag traffic, window >=
  /// num_phases is the self-executing loop with one trailing barrier. The
  /// flags make intra-window cross-processor dependences safe, so any
  /// window size is correct; the barrier bounds how far the wavefront
  /// pipeline can skew, which caps the ready-flag working set. Cf. the
  /// synchronization-rearrangement tradeoff of Nicol & Saltz [13].
  template <class Body>
  void run_windowed(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    const index_t window = options_.window;
    assert(window >= 1);
    ready.reset();
    team.run([&](int tid) {
      BarrierToken bar(team.barrier());
      std::uint64_t pubs = 0;
      std::uint64_t waits = 0;
      const index_t* ord = schedule_.order.data();
      const auto row = schedule_.phase_row(tid);
      for (index_t w0 = 0; w0 < schedule_.num_phases; w0 += window) {
        const index_t w1 = std::min(schedule_.num_phases, w0 + window);
        for (index_t k = row[static_cast<std::size_t>(w0)];
             k < row[static_cast<std::size_t>(w1)]; ++k) {
          const index_t i = ord[static_cast<std::size_t>(k)];
          for (const index_t d : graph_.deps(i)) ready.wait(d);
          detail::invoke_body(body, tid, i);
          ready.set(i);
          ++pubs;
        }
        bar.wait();
        ++waits;
      }
      team.add_exec_counters(pubs, 0, waits);
    });
  }

  /// Pipelined batched executor (tentpole of the barrier-free direction):
  /// work is decomposed into (row, RHS-panel) tasks; a task is ready when
  /// its per-task pending-dependence counter — initialized to the row's
  /// in-degree — reaches zero. The thread that performs the last decrement
  /// pushes the task onto its own work-stealing deque; idle members steal
  /// from peers. There is no per-phase barrier at all: panel p of row i can
  /// run while panel p' of the same row is still wavefronts behind, so
  /// different right-hand sides occupy different wavefronts simultaneously.
  /// The single `bar.wait()` below is the region-entry rendezvous that
  /// separates counter initialization from execution (counted nowhere: it
  /// is not a phase barrier).
  ///
  /// Tasks hold only *ready* work — nothing in a deque ever waits on a
  /// flag — so the scheme cannot deadlock regardless of which thread claims
  /// which task. Termination is a shared countdown of unfinished tasks.
  ///
  /// Memory-ordering chain (data written by a producer row is visible to
  /// every consumer): body writes -> pending fetch_sub(acq_rel) [the last
  /// decrementer's acquire folds earlier decrementers' writes into its
  /// history via the release sequence] -> deque push (release on bottom_)
  /// -> steal/pop (seq_cst loads) -> consumer body reads.
  template <class Body>
  void run_pipelined(ThreadTeam& team, ExecState& state, Body& body) const {
    const index_t n = graph_.size();
    const index_t k = state.batch_width();
    // Only panel-aware bodies can run a sub-range of RHS columns; anything
    // else executes as one full-width panel.
    index_t panel_w = k;
    if constexpr (detail::is_panel_body_v<Body>) {
      panel_w = std::min(std::max<index_t>(options_.panel, 1), k);
    }
    const std::uint64_t num_panels =
        static_cast<std::uint64_t>((k + panel_w - 1) / panel_w);
    const std::int64_t total =
        static_cast<std::int64_t>(n) * static_cast<std::int64_t>(num_panels);
    if (total == 0) return;
    std::atomic<index_t>* const pending =
        state.pending(static_cast<std::size_t>(total));
    std::atomic<std::int64_t>& remaining = state.remaining();
    remaining.store(total, std::memory_order_relaxed);
    const int p = team.size();
    team.run([&](int tid) {
      WorkStealingDeque& mine = team.deque(tid);
      // Before the rendezvous: deque is quiescent (no region is running),
      // so reset is safe; then initialize pending counters for a striped
      // slice of rows.
      mine.reset();
      for (index_t i = tid; i < n; i += p) {
        const auto deg = static_cast<index_t>(graph_.deps(i).size());
        for (std::uint64_t pnl = 0; pnl < num_panels; ++pnl) {
          pending[static_cast<std::uint64_t>(i) * num_panels + pnl].store(
              deg, std::memory_order_relaxed);
        }
      }
      BarrierToken bar(team.barrier());
      bar.wait();
      // Seed: every dependence-free row of this member's schedule slice
      // enters the deque once per panel. Peers may already be stealing —
      // push/steal concurrency is exactly what the deque supports.
      for (const index_t i : schedule_.proc(tid)) {
        if (graph_.deps(i).empty()) {
          for (std::uint64_t pnl = 0; pnl < num_panels; ++pnl) {
            mine.push(static_cast<std::uint64_t>(i) * num_panels + pnl);
          }
        }
      }
      std::uint64_t pubs = 0;
      std::uint64_t steals = 0;
      SpinWait backoff;
      std::uint64_t task = 0;
      while (remaining.load(std::memory_order_acquire) > 0) {
        bool got = mine.pop(task);
        if (!got) {
          for (int shift = 1; shift < p && !got; ++shift) {
            got = team.deque((tid + shift) % p).steal(task);
          }
          if (got) ++steals;
        }
        if (!got) {
          backoff.wait_once();
          continue;
        }
        backoff.reset();
        const auto i = static_cast<index_t>(task / num_panels);
        const std::uint64_t pnl = task % num_panels;
        const index_t j0 = static_cast<index_t>(pnl) * panel_w;
        const index_t j1 = std::min(k, j0 + panel_w);
        detail::invoke_panel_body(body, tid, i, j0, j1);
        ++pubs;
        for (const index_t s : successors_.deps(i)) {
          if (pending[static_cast<std::uint64_t>(s) * num_panels + pnl]
                  .fetch_sub(1, std::memory_order_acq_rel) == 1) {
            mine.push(static_cast<std::uint64_t>(s) * num_panels + pnl);
          }
        }
        remaining.fetch_sub(1, std::memory_order_release);
      }
      team.add_exec_counters(pubs, steals, 0);
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
  /// by induction over phases every slab eventually runs. A throwing body
  /// breaks that induction; the wait loop therefore also watches the
  /// team's region-abort flag (only after a first load found the producer
  /// behind) and leaves the region, after which `ThreadTeam::run`
  /// rethrows the body's exception.
  template <class Body>
  void run_point_to_point(ThreadTeam& team, ExecState& state,
                          Body& body) const {
    ExecState::Progress* const progress = state.reset_progress();
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
      team.add_exec_counters(pubs, 0, 0);
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

  /// RAII lease of a pooled ExecState.
  class StateLease {
   public:
    explicit StateLease(const Plan& plan) : plan_(plan) {
      {
        const std::lock_guard<std::mutex> lock(plan.pool_mutex_);
        if (!plan.pool_.empty()) {
          state_ = std::move(plan.pool_.back());
          plan.pool_.pop_back();
        }
      }
      if (!state_) state_ = std::make_unique<ExecState>(plan);
    }
    ~StateLease() {
      const std::lock_guard<std::mutex> lock(plan_.pool_mutex_);
      plan_.pool_.push_back(std::move(state_));
    }
    StateLease(const StateLease&) = delete;
    StateLease& operator=(const StateLease&) = delete;
    [[nodiscard]] ExecState& state() const noexcept { return *state_; }

   private:
    const Plan& plan_;
    std::unique_ptr<ExecState> state_;
  };

  DependenceGraph graph_;
  DoconsiderOptions options_;
  int nproc_;
  std::uint64_t fingerprint_;
  WavefrontInfo wavefronts_;
  Schedule schedule_;
  // Successor lists (graph_ reversed); built only for kPipelined, empty
  // otherwise.
  DependenceGraph successors_;
  // Per-slab cross-processor waits; built only for kPointToPoint.
  SlabWaits waits_;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<ExecState>> pool_;
};

inline ExecState::ExecState(const Plan& plan)
    : ready_(plan.needs_ready_flags() ? ReadyFlags(plan.size())
                                      : ReadyFlags()),
      progress_(plan.options().execution == ExecutionPolicy::kPointToPoint
                    ? static_cast<std::size_t>(plan.nproc())
                    : 0) {}

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
