#include "runtime/thread_team.hpp"

#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "runtime/spin_wait.hpp"

namespace rtl {

namespace {
// How long a worker spins for new work before blocking on the cv.
constexpr int kDispatchSpins = 1 << 14;

// Whether the process has already warned about an oversubscribed team.
std::atomic<bool> g_oversubscription_warned{false};
}  // namespace

bool ThreadTeam::oversubscription_warned() noexcept {
  return g_oversubscription_warned.load(std::memory_order_relaxed);
}

ThreadTeam::ThreadTeam(int num_threads)
    : num_threads_(num_threads), barrier_(num_threads, &abort_) {
  assert(num_threads >= 1);
  // Oversubscription works (workers spin briefly, then block), but the
  // busy-wait synchronization paths serialize through the OS scheduler and
  // parallel timings stop meaning anything — warn once per process so a
  // service log shows why (docs/PERF.md "Oversubscription caveat").
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && static_cast<unsigned>(num_threads) > hw &&
      !g_oversubscription_warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "rtl: warning: ThreadTeam(%d) oversubscribes the %u "
                 "hardware thread(s) of this host; busy-wait "
                 "synchronization will serialize through the OS scheduler "
                 "and parallel timings are not meaningful (see docs/PERF.md)"
                 "\n",
                 num_threads, hw);
  }
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int tid = 1; tid < num_threads; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::run(const std::function<void(int)>& f) {
  if (num_threads_ == 1) {
    f(0);
    return;
  }
  error_ = nullptr;
  abort_.store(false, std::memory_order_relaxed);
  outstanding_.store(num_threads_ - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &f;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();

  try {
    f(0);
  } catch (...) {
    record_error();
  }

  SpinWait backoff;
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    backoff.wait_once();
  }
  job_ = nullptr;
  if (error_) {
    // Members that left a barrier episode on abort left their arrivals
    // counted; the next region's barrier must start clean.
    barrier_.reset();
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadTeam::record_error() {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) {
    error_ = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }
}

void ThreadTeam::parallel_blocks(
    index_t n, const std::function<void(int, index_t, index_t)>& f) {
  run([&](int tid) {
    const BlockRange r = block_range(n, tid, num_threads_);
    f(tid, r.begin, r.end);
  });
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    // Fast path: spin briefly waiting for a new epoch.
    bool got_work = false;
    for (int i = 0; i < kDispatchSpins; ++i) {
      if (epoch_.load(std::memory_order_acquire) != seen) {
        got_work = true;
        break;
      }
      cpu_relax();
    }
    if (!got_work) {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    seen = epoch_.load(std::memory_order_acquire);
    if (shutdown_) return;
    const auto* f = job_;
    if (f != nullptr) {
      try {
        (*f)(tid);
      } catch (...) {
        record_error();
      }
      outstanding_.fetch_sub(1, std::memory_order_release);
    }
  }
}

int default_solver_team_size(int reserved_threads) noexcept {
  if (const char* v = std::getenv("RTL_PROCS"); v != nullptr && *v != '\0') {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(v, &end, 10);
    // Garbage and non-positive values fall through to the derived default
    // rather than silently producing a degenerate team.
    if (errno == 0 && end != nullptr && *end == '\0' && parsed >= 1 &&
        parsed <= 1 << 20) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int available = static_cast<int>(hw) - reserved_threads;
  return available >= 1 ? available : 1;
}

BlockRange block_range(index_t n, int tid, int nthreads) noexcept {
  const index_t chunk = n / nthreads;
  const index_t rem = n % nthreads;
  const index_t begin =
      tid * chunk + (tid < rem ? static_cast<index_t>(tid) : rem);
  const index_t len = chunk + (tid < rem ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace rtl
