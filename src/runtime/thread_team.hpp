#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/ready_flags.hpp"
#include "runtime/types.hpp"

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
/// `flag_publishes` and `barrier_waits` are deterministic per execution.
struct ExecCounters {
  /// Completion publications: `ReadyFlags::set` calls of the flag-based
  /// executors, progress stores of the point-to-point one.
  std::uint64_t flag_publishes = 0;
  /// Always 0 (no executor steals work); kept because bench/e2e reads it.
  std::uint64_t steals = 0;
  /// Per-phase barrier arrivals of the pre-scheduled executor (one count
  /// per thread per phase boundary).
  std::uint64_t barrier_waits = 0;
};

/// Fixed-size thread team executing SPMD regions.
///
/// `run(f)` invokes `f(tid)` on every team member (the calling thread
/// participates as tid 0) and returns when all members have finished.
/// A team-wide `SpinBarrier` is available to region bodies via `barrier()`.
///
/// The team is the only owner of per-run mutable state: the executors'
/// ready array and progress counters, and the scratch blocks solvers
/// lease. It runs one region at a time, so one copy of each serves every
/// plan and kernel executed on it, and plans and kernels stay immutable.
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

  /// RAII loan of the team's reusable scratch blocks (defined below).
  class ScratchLease;

  /// One progress counter of the point-to-point executor: the number of
  /// phases its member has published as done in the current run. Padded
  /// so a member's release stores never share a line with a peer's.
  struct alignas(cache_line_size) Progress {
    std::atomic<index_t> phases{0};
  };

  /// Number of team members (including the caller).
  [[nodiscard]] int size() const noexcept { return num_threads_; }

  /// Team-wide barrier usable inside a region body. Its waits watch the
  /// region-abort flag: `arrive_and_wait` returns false once a member of
  /// the region threw.
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

  /// Execute `f(tid)` for tid in [0, size()) in parallel; returns when all
  /// members completed. Not reentrant: `f` must not call `run` on the same
  /// team.
  ///
  /// Exception policy: if any member throws, the first exception is
  /// recorded, the region-abort flag is raised (`region_aborted()`), and
  /// the exception is rethrown on the caller after all members finished;
  /// the next region starts with the flag clear and the barrier's
  /// abandoned arrivals forgotten.
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

  /// Accumulate per-thread synchronization-event counts. Executors call
  /// this once per member at region end with locally-accumulated values
  /// (never per event — the counters must not perturb the hot loops).
  void add_exec_counters(std::uint64_t flag_publishes,
                         std::uint64_t barrier_waits) noexcept {
    flag_publishes_.fetch_add(flag_publishes, std::memory_order_relaxed);
    barrier_waits_.fetch_add(barrier_waits, std::memory_order_relaxed);
  }

  /// Snapshot of the counters accumulated since construction or the last
  /// `reset_exec_counters`. Read between regions for exact values.
  [[nodiscard]] ExecCounters exec_counters() const noexcept {
    return {flag_publishes_.load(std::memory_order_relaxed), 0,
            barrier_waits_.load(std::memory_order_relaxed)};
  }

  /// Zero the counters (between regions).
  void reset_exec_counters() noexcept {
    flag_publishes_.store(0, std::memory_order_relaxed);
    barrier_waits_.store(0, std::memory_order_relaxed);
  }

  /// The point-to-point executor's `size()` progress counters, zeroed for
  /// the next run: O(size()) stores, never O(n). Call between regions.
  [[nodiscard]] Progress* reset_progress() noexcept {
    for (int t = 0; t < num_threads_; ++t) {
      progress_[static_cast<std::size_t>(t)].phases.store(
          0, std::memory_order_relaxed);
    }
    return progress_.get();
  }

  /// The flag-based executors' ready array with flags [0, n) clear. The
  /// array grows to the largest n any run needed and only [0, n) is
  /// cleared; its waits watch the region-abort flag. Call between regions.
  [[nodiscard]] ReadyFlags& reset_ready(index_t n) {
    ready_.reset(n);
    return ready_;
  }

 private:
  void worker_loop(int tid);
  // Record the exception in flight as the region's first (if it is) and
  // raise the abort flag. Called from a catch handler.
  void record_error();

  const int num_threads_;
  SpinBarrier barrier_;  // watches abort_ (declared below; address only)

  // Synchronization-event counters (see ExecCounters).
  std::atomic<std::uint64_t> flag_publishes_{0};
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

  // Executor state, reset by each run that uses it.
  std::unique_ptr<Progress[]> progress_;
  ReadyFlags ready_;  // watches abort_

  // The scratch stack: blocks [0, scratch_top_) are held by live leases.
  struct ScratchBlock {
    std::unique_ptr<real_t[]> data;
    std::size_t capacity = 0;
  };
  std::vector<ScratchBlock> scratch_;
  std::size_t scratch_top_ = 0;
};

/// Lends blocks of the team's scratch stack to one solve, so that
/// repeated solves reuse the memory of the first instead of allocating,
/// zero-filling and page-faulting their vectors afresh: the set-up-once,
/// execute-many amortization of §5.1.1 applied to the Krylov drivers'
/// basis and work vectors and to other callers' temporaries.
///
/// A lease records the stack's top when it is made. `take(len)` hands out
/// the next block above it: reused when it holds at least `len` values,
/// else freed and replaced by an uninitialized block of `len`. Contents
/// are unspecified (nothing is zero-filled). Ending the lease, on the
/// normal path or on unwind, restores the top. A lease made while another
/// is live (a preconditioner that solves on its caller's team) takes the
/// blocks above its parent's, so it never aliases them, and a repeated
/// nested solve reuses the blocks the last one took. Leases end in the
/// reverse order they were made, and only the newest live lease may
/// `take` (both asserted in debug builds). The memory held is bounded by
/// the largest blocks taken at each depth, and is freed with the team.
/// Like `run`, leases serve one calling thread at a time per team.
class ThreadTeam::ScratchLease {
 public:
  explicit ScratchLease(ThreadTeam& team) noexcept
      : team_(team), base_(team.scratch_top_), top_(base_) {}
  ~ScratchLease();

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  /// The lease's next block: `len` values, contents unspecified, valid
  /// until the lease ends.
  [[nodiscard]] std::span<real_t> take(std::size_t len);

 private:
  ThreadTeam& team_;
  std::size_t base_;  // the team's top when the lease was made
  std::size_t top_;   // one past this lease's last block
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
