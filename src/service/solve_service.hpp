#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/executors.hpp"
#include "core/runtime.hpp"
#include "runtime/latency_histogram.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "workload/stencil.hpp"

/// The solve service core: concurrent sessions multiplexed onto one
/// shared `rtl::Runtime`, with request batching and latency metrics.
///
/// Transport-agnostic — the POSIX-socket layer (service/server) and the
/// in-process tests drive exactly the same object. Layering:
///
///   sessions -> bounded admission queue -> batching aggregator -> Runtime
///
/// **Sessions** own per-client state: matrices registered by id, each
/// carrying an ILU factorization and `IluApplyKernel`s bound once at
/// registration and reused across every subsequent request (the PR 5
/// amortization made a service guarantee). Named workload problems are
/// shared *across* sessions — two clients opening "5pt" hold the same
/// factorization entry, so their requests can coalesce.
///
/// **Admission** is a bounded FIFO: a submission against a full queue
/// throws `ServiceError(kRejected)` immediately (backpressure to the
/// transport, which turns it into a typed error reply) instead of letting
/// a burst grow the backlog without limit.
///
/// **Aggregation**: one solver thread drains the whole queue at a time
/// and groups adjacent solve requests by factorization entry; each group
/// becomes a single `apply_batch` call of width k (panel-pipelined when
/// the configured options say so), so the per-wavefront synchronization
/// is paid once for k concurrent clients — service throughput inherits
/// the measured ~12-15x per-RHS amortization of batched kernels. FIFO
/// processing order is preserved across *control* requests (an upload
/// always completes before a later solve that names it), and within a
/// batch, column j is request j of the group — completions map back to
/// their callbacks exactly once, in group order.
///
/// The single consumer is also the concurrency story: only the solver
/// thread ever touches the Runtime's `ThreadTeam` (whose `run` is not
/// reentrant) or the bound kernels (which own scratch), so no team lock
/// exists to contend. Happens-before for the reply path: a completion
/// callback runs on the solver thread after the batch's team region has
/// fully joined, so it reads the finished solution vector without extra
/// synchronization; the transport's per-session write lock orders it
/// against the session reader's own error replies.
///
/// **Shutdown** (`shutdown()`, also invoked by the destructor): new
/// admissions are refused with `kShuttingDown`, everything already
/// admitted is drained and completed, then the solver thread exits. Plan
/// write-backs to `RTL_PLAN_CACHE_DIR` are synchronous inside
/// `Runtime::plan_for`, so a drained service has by construction flushed
/// every image it will ever write.
namespace rtl {

/// Threads a service front-end occupies besides the solver team: the
/// listener plus roughly one session reader (readers mostly block on
/// recv). Used by the default team sizing below.
inline constexpr int kServiceReservedThreads = 2;

/// Configuration of a `SolveService`.
struct ServiceConfig {
  /// Solver team size; 0 means `default_solver_team_size(
  /// kServiceReservedThreads)` — hardware concurrency minus the transport
  /// threads, overridable via RTL_PROCS.
  int team_size = 0;
  /// Admission-queue bound (requests, all kinds).
  std::size_t queue_capacity = 256;
  /// Widest single `apply_batch`; wider groups are chunked.
  index_t max_batch = 64;
  /// After waking on a non-empty queue, the aggregator waits this long
  /// before draining, letting concurrent submitters coalesce into one
  /// batch. 0 = drain immediately (lowest latency, narrower batches).
  std::chrono::microseconds batch_window{0};
  /// Inspector/executor options for every plan the service builds.
  DoconsiderOptions solve_options;
  /// Plan-cache bounds handed to the owned Runtime (defaults follow
  /// RTL_PLAN_CACHE_CAP / RTL_PLAN_CACHE_DIR).
  std::size_t plan_cache_capacity = Runtime::default_plan_cache_capacity();
  std::string plan_cache_dir = Runtime::default_plan_cache_dir();
  /// Tests only: do not start the solver thread; work sits in the queue
  /// until `drain_once()` is called, making aggregation deterministic.
  bool manual_drain = false;
};

/// Resolve a named workload the service can build on demand: the Appendix
/// I problem set by name (spe1..spe5, 5pt, 9pt, 7pt, l5pt, l9pt, l7pt)
/// plus parametric stencils "5pt:N", "9pt:N" (N x N grid) and "7pt:N"
/// (N x N x N grid) for right-sized test and demo problems. Throws
/// `ServiceError(kUnknownWorkload)` for anything else, and
/// `ServiceError(kBadRequest)` for a parametric grid whose matrix is
/// larger than one upload frame (`kMaxFramePayload`) could carry.
[[nodiscard]] LinearSystem service_workload(const std::string& name);

class SolveService {
 public:
  using SessionId = std::uint64_t;
  /// Completion of a solve: exactly one of `result` (moved-in solution)
  /// or `error` is set. Callbacks run on the solver thread and must not
  /// throw or block for long.
  using SolveCallback =
      std::function<void(std::vector<real_t> result, std::exception_ptr error)>;
  /// Completion of a control request (upload / open-workload): `error` is
  /// null on success.
  using ControlCallback = std::function<void(std::exception_ptr error)>;

  explicit SolveService(ServiceConfig config = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Register a client. Cheap; never rejected.
  [[nodiscard]] SessionId open_session();
  /// Drop a session's matrix registry. Requests still in the queue for it
  /// complete with `kUnknownSession`; factorizations shared with other
  /// sessions (named workloads) stay alive.
  void close_session(SessionId session);

  /// Enqueue: build ILU(level) of `matrix`, bind solve kernels, register
  /// under (session, matrix_id). Completes with kBadRequest on a
  /// duplicate id, kUnknownSession on a closed session. Throws
  /// ServiceError(kRejected / kShuttingDown) if not admitted.
  void upload_matrix(SessionId session, std::uint32_t matrix_id,
                     CsrMatrix matrix, int ilu_level, ControlCallback done);

  /// Enqueue: register the named shared workload under (session,
  /// matrix_id); the factorization is built at most once service-wide per
  /// (name, level). Same admission/completion contract as upload_matrix.
  void open_workload(SessionId session, std::uint32_t matrix_id,
                     std::string name, int ilu_level, ControlCallback done);

  /// Enqueue one right-hand side against a registered matrix; the
  /// aggregator may coalesce it with other requests on the same
  /// factorization. Completes with x = U^-1 L^-1 rhs. Throws
  /// ServiceError(kRejected / kShuttingDown) if not admitted.
  void solve(SessionId session, std::uint32_t matrix_id,
             std::vector<real_t> rhs, SolveCallback done);

  /// Future-returning conveniences over the callback API (used by tests
  /// and simple embedders; the socket transport uses callbacks directly).
  [[nodiscard]] std::future<void> upload_matrix(SessionId session,
                                                std::uint32_t matrix_id,
                                                CsrMatrix matrix,
                                                int ilu_level);
  [[nodiscard]] std::future<void> open_workload(SessionId session,
                                                std::uint32_t matrix_id,
                                                std::string name,
                                                int ilu_level);
  [[nodiscard]] std::future<std::vector<real_t>> solve(
      SessionId session, std::uint32_t matrix_id, std::vector<real_t> rhs);

  /// Consistent point-in-time snapshot of the service counters plus the
  /// Runtime's cache/exec counters.
  [[nodiscard]] ServiceMetrics metrics() const;

  /// The shared Runtime (inspection / tests). Only the solver thread may
  /// execute on its team while the service is running.
  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Stop admitting, drain everything already queued, join the solver
  /// thread. Idempotent. In manual_drain mode, drains inline.
  void shutdown();

  /// manual_drain mode: process the current queue contents on the calling
  /// thread (one aggregation round). Returns the number of requests
  /// processed.
  std::size_t drain_once();

 private:
  struct FactorEntry;
  struct WorkItem;
  struct Session;

  void admit(WorkItem item);
  void solver_loop();
  std::size_t process(std::vector<WorkItem> items);
  void flush_group(FactorEntry* entry, std::vector<WorkItem*>& group);
  std::shared_ptr<FactorEntry> resolve(SessionId session,
                                       std::uint32_t matrix_id);
  void handle_control(WorkItem& item);
  std::shared_ptr<FactorEntry> build_entry(LinearSystem system, int level);

  ServiceConfig config_;
  Runtime runtime_;

  // Admission queue.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool stopping_ = false;  // guarded by queue_mutex_

  // Registry: sessions and the cross-session workload share table.
  mutable std::mutex registry_mutex_;
  std::map<SessionId, Session> sessions_;
  std::map<std::pair<std::string, int>, std::shared_ptr<FactorEntry>>
      workloads_;
  SessionId next_session_ = 1;

  // Metrics (relaxed atomics; snapshotted by metrics()).
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> queue_depth_peak_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> request_errors_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> matrices_uploaded_{0};
  std::atomic<std::uint64_t> workloads_opened_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_width_hist_[kBatchWidthBuckets] = {};
  LatencyHistogram solve_latency_;

  // Aggregator scratch, solver thread only.
  BatchBuffer batch_rhs_;
  BatchBuffer batch_x_;

  std::thread solver_;  // not started in manual_drain mode
};

}  // namespace rtl
