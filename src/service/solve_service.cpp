#include "service/solve_service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "workload/problems.hpp"

namespace rtl {

namespace {

[[noreturn]] void fail(ServiceErrc code, const std::string& what) {
  throw ServiceError(code, "service: " + what + " (" +
                               service_errc_name(code) + ")");
}

/// Parse the "NAME:N" parametric suffix; returns 0 when absent/garbage.
index_t parametric_size(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() + 1 || name.compare(0, prefix.size(), prefix) != 0 ||
      name[prefix.size()] != ':') {
    return 0;
  }
  index_t n = 0;
  for (std::size_t i = prefix.size() + 1; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9' || n > 100000) return 0;
    n = n * 10 + (c - '0');
  }
  return n;
}

/// Refuse a parametric grid whose matrix (n <= nnz rows, nnz entries,
/// computed in 64 bits before anything is generated) one upload frame
/// could not carry: a named workload is held to the same ceiling as an
/// uploaded one. Checking nnz first keeps the byte count from wrapping.
void require_frame_sized(const std::string& name, std::uint64_t n,
                         std::uint64_t nnz) {
  if (nnz > kMaxFramePayload ||
      upload_payload_bytes(n, nnz) > kMaxFramePayload) {
    fail(ServiceErrc::kBadRequest,
         "workload '" + name + "' is larger than one upload frame carries");
  }
}

}  // namespace

LinearSystem service_workload(const std::string& name) {
  if (name == "spe1") return make_spe1().system;
  if (name == "spe2") return make_spe2().system;
  if (name == "spe3") return make_spe3().system;
  if (name == "spe4") return make_spe4().system;
  if (name == "spe5") return make_spe5().system;
  if (name == "5pt") return make_5pt().system;
  if (name == "9pt") return make_9pt().system;
  if (name == "7pt") return make_7pt().system;
  if (name == "l5pt") return make_l5pt().system;
  if (name == "l9pt") return make_l9pt().system;
  if (name == "l7pt") return make_l7pt().system;
  // Entry counts of the N-wide stencils: 5N^2 - 4N, (3N - 2)^2 and
  // 7N^3 - 6N^2 (boundary points lack the neighbours outside the grid).
  if (const index_t n = parametric_size(name, "5pt"); n > 0) {
    const std::uint64_t w = static_cast<std::uint64_t>(n);
    require_frame_sized(name, w * w, 5 * w * w - 4 * w);
    return five_point(n, n);
  }
  if (const index_t n = parametric_size(name, "9pt"); n > 0) {
    const std::uint64_t w = static_cast<std::uint64_t>(n);
    require_frame_sized(name, w * w, (3 * w - 2) * (3 * w - 2));
    return nine_point(n, n);
  }
  if (const index_t n = parametric_size(name, "7pt"); n > 0) {
    const std::uint64_t w = static_cast<std::uint64_t>(n);
    require_frame_sized(name, w * w * w, 7 * w * w * w - 6 * w * w);
    return seven_point(n, n, n);
  }
  fail(ServiceErrc::kUnknownWorkload, "no workload named '" + name + "'");
}

/// A factorization registered in the service: the matrix storage the
/// kernels were bound against plus the preconditioner owning those
/// kernels. Shared by every session that registered it (named workloads)
/// and by every queued request against it.
struct SolveService::FactorEntry {
  CsrMatrix a;
  std::unique_ptr<IluPreconditioner> precond;
  index_t n = 0;
};

struct SolveService::Session {
  std::map<std::uint32_t, std::shared_ptr<FactorEntry>> matrices;
};

struct SolveService::WorkItem {
  enum class Kind { kUpload, kOpenWorkload, kSolve };

  Kind kind = Kind::kSolve;
  SessionId session = 0;
  std::uint32_t matrix_id = 0;
  int level = 0;
  CsrMatrix matrix;          // kUpload
  std::string name;          // kOpenWorkload
  std::vector<real_t> rhs;   // kSolve
  SolveCallback solve_done;
  ControlCallback control_done;
  std::chrono::steady_clock::time_point enqueued;
  std::shared_ptr<FactorEntry> entry;  // resolved by the solver thread
};

SolveService::SolveService(ServiceConfig config)
    : config_(std::move(config)),
      runtime_(config_.team_size > 0
                   ? config_.team_size
                   : default_solver_team_size(kServiceReservedThreads),
               config_.plan_cache_capacity, config_.plan_cache_dir) {
  if (config_.max_batch < 1) config_.max_batch = 1;
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  if (!config_.manual_drain) {
    solver_ = std::thread([this] { solver_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

SolveService::SessionId SolveService::open_session() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const SessionId id = next_session_++;
  sessions_.emplace(id, Session{});
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void SolveService::close_session(SessionId session) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  if (sessions_.erase(session) > 0) {
    sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SolveService::admit(WorkItem item) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      fail(ServiceErrc::kShuttingDown, "service is draining");
    }
    if (queue_.size() >= config_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      fail(ServiceErrc::kRejected,
           "admission queue full (" + std::to_string(queue_.size()) + "/" +
               std::to_string(config_.queue_capacity) + ")");
    }
    queue_.push_back(std::move(item));
    admitted_.fetch_add(1, std::memory_order_relaxed);
    const auto depth = static_cast<std::uint64_t>(queue_.size());
    std::uint64_t peak = queue_depth_peak_.load(std::memory_order_relaxed);
    while (depth > peak && !queue_depth_peak_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
  }
  queue_cv_.notify_one();
}

void SolveService::require_finite(std::span<const real_t> values,
                                  const char* what) {
  // A NaN or ±Inf would come back as a "successful" reply of NaNs, or
  // factor into a preconditioner that answers with meaningless numbers.
  if (std::all_of(values.begin(), values.end(),
                  [](real_t v) { return std::isfinite(v); })) {
    return;
  }
  request_errors_.fetch_add(1, std::memory_order_relaxed);
  fail(ServiceErrc::kBadRequest,
       std::string(what) + " holds a non-finite value");
}

void SolveService::upload_matrix(SessionId session, std::uint32_t matrix_id,
                                 CsrMatrix matrix, int ilu_level,
                                 ControlCallback done) {
  require_finite(matrix.values(), "matrix");
  WorkItem item;
  item.kind = WorkItem::Kind::kUpload;
  item.session = session;
  item.matrix_id = matrix_id;
  item.level = ilu_level;
  item.matrix = std::move(matrix);
  item.control_done = std::move(done);
  item.enqueued = std::chrono::steady_clock::now();
  admit(std::move(item));
}

void SolveService::open_workload(SessionId session, std::uint32_t matrix_id,
                                 std::string name, int ilu_level,
                                 ControlCallback done) {
  WorkItem item;
  item.kind = WorkItem::Kind::kOpenWorkload;
  item.session = session;
  item.matrix_id = matrix_id;
  item.level = ilu_level;
  item.name = std::move(name);
  item.control_done = std::move(done);
  item.enqueued = std::chrono::steady_clock::now();
  admit(std::move(item));
}

void SolveService::solve(SessionId session, std::uint32_t matrix_id,
                         std::vector<real_t> rhs, SolveCallback done) {
  require_finite(rhs, "rhs");
  WorkItem item;
  item.kind = WorkItem::Kind::kSolve;
  item.session = session;
  item.matrix_id = matrix_id;
  item.rhs = std::move(rhs);
  item.solve_done = std::move(done);
  item.enqueued = std::chrono::steady_clock::now();
  admit(std::move(item));
}

std::future<void> SolveService::upload_matrix(SessionId session,
                                              std::uint32_t matrix_id,
                                              CsrMatrix matrix,
                                              int ilu_level) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> f = promise->get_future();
  upload_matrix(session, matrix_id, std::move(matrix), ilu_level,
                [promise](std::exception_ptr error) {
                  if (error) {
                    promise->set_exception(error);
                  } else {
                    promise->set_value();
                  }
                });
  return f;
}

std::future<void> SolveService::open_workload(SessionId session,
                                              std::uint32_t matrix_id,
                                              std::string name,
                                              int ilu_level) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> f = promise->get_future();
  open_workload(session, matrix_id, std::move(name), ilu_level,
                [promise](std::exception_ptr error) {
                  if (error) {
                    promise->set_exception(error);
                  } else {
                    promise->set_value();
                  }
                });
  return f;
}

std::future<std::vector<real_t>> SolveService::solve(SessionId session,
                                                     std::uint32_t matrix_id,
                                                     std::vector<real_t> rhs) {
  auto promise = std::make_shared<std::promise<std::vector<real_t>>>();
  std::future<std::vector<real_t>> f = promise->get_future();
  solve(session, matrix_id, std::move(rhs),
        [promise](std::vector<real_t> x, std::exception_ptr error) {
          if (error) {
            promise->set_exception(error);
          } else {
            promise->set_value(std::move(x));
          }
        });
  return f;
}

void SolveService::solver_loop() {
  for (;;) {
    std::vector<WorkItem> items;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      if (config_.batch_window.count() > 0) {
        // Aggregation window: give concurrent submitters a moment to pile
        // onto the drain we are about to take. Latency cost is bounded by
        // the window; batching gain shows up in the width histogram.
        lock.unlock();
        std::this_thread::sleep_for(config_.batch_window);
        lock.lock();
      }
      items.reserve(queue_.size());
      while (!queue_.empty()) {
        items.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    process(std::move(items));
  }
}

std::size_t SolveService::drain_once() {
  std::vector<WorkItem> items;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    items.reserve(queue_.size());
    while (!queue_.empty()) {
      items.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  return process(std::move(items));
}

std::shared_ptr<SolveService::FactorEntry> SolveService::resolve(
    SessionId session, std::uint32_t matrix_id) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto sit = sessions_.find(session);
  if (sit == sessions_.end()) {
    fail(ServiceErrc::kUnknownSession,
         "session " + std::to_string(session) + " is not open");
  }
  const auto mit = sit->second.matrices.find(matrix_id);
  if (mit == sit->second.matrices.end()) {
    fail(ServiceErrc::kUnknownMatrix,
         "matrix id " + std::to_string(matrix_id) +
             " is not registered in this session");
  }
  return mit->second;
}

std::shared_ptr<SolveService::FactorEntry> SolveService::build_entry(
    LinearSystem system, int level) {
  auto entry = std::make_shared<FactorEntry>();
  entry->a = std::move(system.a);
  entry->n = entry->a.rows();
  try {
    entry->precond = std::make_unique<IluPreconditioner>(
        runtime_, entry->a, level);
    // The aggregator coalesces requests by design, so bind the batched
    // kernels with the matrix: which widths a run happens to coalesce
    // must not decide which plans it builds (or finds on disk after a
    // restart).
    if (config_.max_batch > 1) {
      entry->precond->triangular_solver().bind_batched();
    }
  } catch (const std::invalid_argument& e) {
    fail(ServiceErrc::kBadRequest, e.what());
  }
  try {
    entry->precond->factor(runtime_.team(), entry->a);
  } catch (const std::runtime_error& e) {
    // A zero pivot: the uploaded matrix has no ILU factorization. The
    // executor leaves the region when the row body throws, so the solver
    // thread and its team stay usable for the next request.
    fail(ServiceErrc::kBadRequest, e.what());
  }
  return entry;
}

void SolveService::handle_control(WorkItem& item) {
  std::exception_ptr error;
  try {
    {
      // Pre-checks under the registry lock; the heavy build runs
      // unlocked (only the solver thread mutates the registry, so the
      // checks cannot go stale).
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      const auto sit = sessions_.find(item.session);
      if (sit == sessions_.end()) {
        fail(ServiceErrc::kUnknownSession,
             "session " + std::to_string(item.session) + " is not open");
      }
      if (sit->second.matrices.count(item.matrix_id) > 0) {
        fail(ServiceErrc::kBadRequest,
             "matrix id " + std::to_string(item.matrix_id) +
                 " is already registered");
      }
    }
    std::shared_ptr<FactorEntry> entry;
    if (item.kind == WorkItem::Kind::kUpload) {
      LinearSystem system;
      system.a = std::move(item.matrix);
      entry = build_entry(std::move(system), item.level);
      matrices_uploaded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const auto key = std::make_pair(item.name, item.level);
      const auto wit = workloads_.find(key);
      if (wit != workloads_.end()) {
        entry = wit->second;  // shared across sessions: batchable
      } else {
        entry = build_entry(service_workload(item.name), item.level);
        workloads_.emplace(key, entry);
      }
      workloads_opened_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      const auto sit = sessions_.find(item.session);
      if (sit == sessions_.end()) {
        fail(ServiceErrc::kUnknownSession, "session closed during setup");
      }
      sit->second.matrices.emplace(item.matrix_id, std::move(entry));
    }
  } catch (...) {
    error = std::current_exception();
    request_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!error) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (item.control_done) item.control_done(error);
}

std::size_t SolveService::process(std::vector<WorkItem> items) {
  // Group adjacent solves by factorization entry; a control item is a
  // barrier (flush, then handle) so a session's upload always completes
  // before its later solves are executed.
  std::vector<std::pair<FactorEntry*, std::vector<WorkItem*>>> groups;
  const auto flush_all = [&] {
    for (auto& [entry, group] : groups) flush_group(entry, group);
    groups.clear();
  };
  for (WorkItem& item : items) {
    if (item.kind != WorkItem::Kind::kSolve) {
      flush_all();
      handle_control(item);
      continue;
    }
    try {
      item.entry = resolve(item.session, item.matrix_id);
      if (static_cast<index_t>(item.rhs.size()) != item.entry->n) {
        fail(ServiceErrc::kBadRequest,
             "rhs has " + std::to_string(item.rhs.size()) +
                 " entries; matrix dimension is " +
                 std::to_string(item.entry->n));
      }
    } catch (...) {
      request_errors_.fetch_add(1, std::memory_order_relaxed);
      if (item.solve_done) item.solve_done({}, std::current_exception());
      continue;
    }
    auto git = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first == item.entry.get();
    });
    if (git == groups.end()) {
      groups.emplace_back(item.entry.get(), std::vector<WorkItem*>{});
      git = std::prev(groups.end());
    }
    git->second.push_back(&item);
  }
  flush_all();
  return items.size();
}

void SolveService::flush_group(FactorEntry* entry,
                               std::vector<WorkItem*>& group) {
  ThreadTeam& team = runtime_.team();
  const index_t n = entry->n;
  for (std::size_t base = 0; base < group.size();
       base += static_cast<std::size_t>(config_.max_batch)) {
    const auto k = static_cast<index_t>(
        std::min(group.size() - base,
                 static_cast<std::size_t>(config_.max_batch)));
    std::vector<std::vector<real_t>> results(static_cast<std::size_t>(k));
    std::exception_ptr error;
    try {
      if (k == 1) {
        WorkItem& item = *group[base];
        results[0].resize(static_cast<std::size_t>(n));
        entry->precond->apply(team, item.rhs, results[0]);
      } else {
        ThreadTeam::ScratchLease lease(team);
        const auto len = static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(k);
        const BatchView rhs{lease.take(len).data(), n, k};
        const BatchView x{lease.take(len).data(), n, k};
        for (index_t j = 0; j < k; ++j) {
          rhs.set_column(j, group[base + static_cast<std::size_t>(j)]->rhs);
        }
        entry->precond->apply_batch(team, rhs, x);
        for (index_t j = 0; j < k; ++j) {
          results[static_cast<std::size_t>(j)].resize(
              static_cast<std::size_t>(n));
          x.get_column(j, results[static_cast<std::size_t>(j)]);
        }
      }
    } catch (...) {
      error = std::make_exception_ptr(ServiceError(
          ServiceErrc::kInternal, "service: solve execution failed"));
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_width_hist_[batch_width_bucket(k)].fetch_add(
        1, std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    for (index_t j = 0; j < k; ++j) {
      WorkItem& item = *group[base + static_cast<std::size_t>(j)];
      if (error) {
        request_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        completed_.fetch_add(1, std::memory_order_relaxed);
        solve_latency_.record(
            std::chrono::duration<double, std::milli>(now - item.enqueued)
                .count());
      }
      if (item.solve_done) {
        item.solve_done(std::move(results[static_cast<std::size_t>(j)]),
                        error);
      }
    }
  }
  group.clear();
}

ServiceMetrics SolveService::metrics() const {
  ServiceMetrics m;
  m.admitted = admitted_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    m.queue_depth = static_cast<std::uint64_t>(queue_.size());
  }
  m.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  m.queue_capacity = static_cast<std::uint64_t>(config_.queue_capacity);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.request_errors = request_errors_.load(std::memory_order_relaxed);
  m.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  m.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  m.matrices_uploaded = matrices_uploaded_.load(std::memory_order_relaxed);
  m.workloads_opened = workloads_opened_.load(std::memory_order_relaxed);
  m.batches = batches_.load(std::memory_order_relaxed);
  m.max_batch = static_cast<std::uint64_t>(config_.max_batch);
  for (int b = 0; b < kBatchWidthBuckets; ++b) {
    m.batch_width_hist[b] = batch_width_hist_[b].load(std::memory_order_relaxed);
  }
  m.solve_latency = solve_latency_.snapshot();
  const Runtime::Metrics rm = runtime_.metrics_snapshot();
  m.cache = rm.cache;
  m.exec = rm.exec;
  m.team_size = static_cast<std::uint64_t>(rm.team_size);
  return m;
}

void SolveService::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (solver_.joinable()) {
    solver_.join();
  } else {
    // manual_drain mode: drain inline so shutdown still means "everything
    // admitted has completed".
    while (drain_once() > 0) {
    }
  }
}

}  // namespace rtl
