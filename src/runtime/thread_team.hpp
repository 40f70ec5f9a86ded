#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/types.hpp"
#include "runtime/work_deque.hpp"

/// Persistent SPMD thread team — the "multiprocessor" substrate.
///
/// The paper's experiments run a single-program-multiple-data decomposition
/// on p processors of an Encore Multimax/320 (§2.2). We reproduce that with
/// a fixed team of p threads that lives across executor invocations, so the
/// per-call dispatch cost plays the role of handing a schedule to already-
/// running processors rather than of thread creation.
///
/// Dispatch is hybrid: workers spin briefly waiting for new work (keeping
/// the per-solve launch overhead in the microsecond range that repeated
/// triangular solves require) and then block on a condition variable so an
/// idle team does not burn a whole socket.
namespace rtl {

/// Synchronization-event counters accumulated across executor runs on a
/// team. These are the noise-immune evidence for scheduler claims on
/// hosts where wall time is dominated by run-to-run jitter (docs/PERF.md):
/// `flag_publishes` and `barrier_waits` are deterministic per execution,
/// `steals` depends on the actual interleaving.
struct ExecCounters {
  /// Per-(row[, panel]) completion publications: `ReadyFlags::set` calls
  /// of the flag-based executors, task completions of the pipelined one.
  std::uint64_t flag_publishes = 0;
  /// Successful work-stealing deque steals (pipelined executor only).
  std::uint64_t steals = 0;
  /// Per-phase barrier arrivals (pre-scheduled / windowed executors; one
  /// count per thread per phase boundary). The pipelined executor's single
  /// region-entry rendezvous is not a phase barrier and is not counted.
  std::uint64_t barrier_waits = 0;
};

/// Fixed-size thread team executing SPMD regions.
///
/// `run(f)` invokes `f(tid)` on every team member (the calling thread
/// participates as tid 0) and returns when all members have finished.
/// A team-wide `SpinBarrier` is available to region bodies via `barrier()`.
class ThreadTeam {
 public:
  /// Spawn a team of `num_threads` members (>= 1). The constructor spawns
  /// `num_threads - 1` workers; the caller of `run` acts as member 0.
  /// A team larger than `std::thread::hardware_concurrency()` still works
  /// but logs a one-time (per process) warning to stderr: oversubscribed
  /// busy-wait synchronization serializes through the OS scheduler and
  /// parallel timings stop being meaningful (docs/PERF.md).
  explicit ThreadTeam(int num_threads);

  /// Whether the oversubscription warning has fired in this process.
  [[nodiscard]] static bool oversubscription_warned() noexcept;

  /// Joins all workers.
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Number of team members (including the caller).
  [[nodiscard]] int size() const noexcept { return num_threads_; }

  /// Team-wide barrier usable inside a region body. Each member must use
  /// its own BarrierToken; see `run` for the canonical pattern.
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

  /// Execute `f(tid)` for tid in [0, size()) in parallel; returns when all
  /// members completed. Not reentrant: `f` must not call `run` on the same
  /// team.
  ///
  /// Exception policy: if any member throws, the first exception is
  /// recorded, the region-abort flag is raised (`region_aborted()`), and
  /// the exception is rethrown on the caller after all members finished;
  /// the next region starts with the flag clear. Whether a throwing loop
  /// body is safe depends on the executor: the point-to-point executor
  /// (the default) and the §5.1.2 rotating variants are abort-safe — the
  /// former's waits watch the flag, the latter never actually wait. The ready
  /// flags of the self-executing, doacross, self-scheduled and windowed
  /// executors, the `SpinBarrier` of the pre-scheduled and windowed ones
  /// and the pipelined executor's task countdown do not watch it, so a
  /// body they run must not throw: its consumers would spin forever.
  void run(const std::function<void(int)>& f);

  /// Whether a member of the current region has thrown. Slow-path wait
  /// loops poll it to leave a region whose producer will never arrive.
  [[nodiscard]] bool region_aborted() const noexcept {
    return abort_.load(std::memory_order_relaxed);
  }

  /// Convenience: statically partition `[0, n)` into contiguous blocks,
  /// one per member, and run `f(tid, begin, end)`.
  void parallel_blocks(index_t n,
                       const std::function<void(int, index_t, index_t)>& f);

  /// Member `tid`'s work-stealing deque. Owned by the team so the buffers
  /// amortize across executions; the ownership contract is the deque's
  /// (push/pop/reset by member `tid` only, steal from anywhere inside a
  /// region).
  [[nodiscard]] WorkStealingDeque& deque(int tid) noexcept {
    return *deques_[static_cast<std::size_t>(tid)];
  }

  /// Accumulate per-thread synchronization-event counts. Executors call
  /// this once per member at region end with locally-accumulated values
  /// (never per event — the counters must not perturb the hot loops).
  void add_exec_counters(std::uint64_t flag_publishes, std::uint64_t steals,
                         std::uint64_t barrier_waits) noexcept {
    flag_publishes_.fetch_add(flag_publishes, std::memory_order_relaxed);
    steals_.fetch_add(steals, std::memory_order_relaxed);
    barrier_waits_.fetch_add(barrier_waits, std::memory_order_relaxed);
  }

  /// Snapshot of the counters accumulated since construction or the last
  /// `reset_exec_counters`. Read between regions for exact values.
  [[nodiscard]] ExecCounters exec_counters() const noexcept {
    return {flag_publishes_.load(std::memory_order_relaxed),
            steals_.load(std::memory_order_relaxed),
            barrier_waits_.load(std::memory_order_relaxed)};
  }

  /// Zero the counters (between regions).
  void reset_exec_counters() noexcept {
    flag_publishes_.store(0, std::memory_order_relaxed);
    steals_.store(0, std::memory_order_relaxed);
    barrier_waits_.store(0, std::memory_order_relaxed);
  }

 private:
  void worker_loop(int tid);
  // Record the exception in flight as the region's first (if it is) and
  // raise the abort flag. Called from a catch handler.
  void record_error();

  const int num_threads_;
  SpinBarrier barrier_;

  // One work-stealing deque per member (unique_ptr: the deque pins its
  // cache-line alignment and is neither movable nor copyable).
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;

  // Synchronization-event counters (see ExecCounters).
  std::atomic<std::uint64_t> flag_publishes_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> barrier_waits_{0};

  std::vector<std::thread> workers_;

  // Dispatch state: epoch bumps announce a new job; workers ack by
  // decrementing `outstanding_`.
  std::mutex mutex_;
  std::condition_variable wake_;
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> outstanding_{0};
  bool shutdown_ = false;

  // First exception thrown by any member during the current region, and
  // the flag raised when it is recorded.
  std::mutex error_mutex_;
  std::exception_ptr error_;
  alignas(cache_line_size) std::atomic<bool> abort_{false};
};

/// Sane default team size for a long-running process that also owns
/// service threads (listener, session readers): the `RTL_PROCS`
/// environment variable when set to a positive integer, else the host's
/// hardware concurrency minus `reserved_threads`, never below 1. This is
/// the sizing the solve service uses so its solver team does not
/// oversubscribe the cores its own transport threads run on (the
/// oversubscription warning above explains why that matters); `RTL_PROCS`
/// stays the explicit override, exactly as in the bench harness.
[[nodiscard]] int default_solver_team_size(int reserved_threads) noexcept;

/// Contiguous block of `[0, n)` assigned to member `tid` of `nthreads`
/// under an even static partition (the paper's "contiguous groups of
/// roughly equal size", Appendix II §2.1). Returns {begin, end}.
struct BlockRange {
  index_t begin;
  index_t end;
};
[[nodiscard]] BlockRange block_range(index_t n, int tid, int nthreads) noexcept;

}  // namespace rtl
