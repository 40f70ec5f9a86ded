#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "runtime/spin_wait.hpp"
#include "runtime/types.hpp"

/// Global synchronization for the pre-scheduled executor.
///
/// The paper's pre-scheduled loop (Figure 5, line 1d) calls a global
/// synchronization at every phase boundary; the cost of that call,
/// T_synch, is one of the quantities the Section 4.2 model reasons about.
/// This is a centralized counting barrier with a generation word: the last
/// arrival resets the count and bumps the generation, releasing the
/// spinners. Unlike a sense-reversing barrier it carries no per-thread
/// state, so it stays correct when successive parallel regions run
/// different numbers of episodes.
namespace rtl {

/// Centralized generation-counting barrier for a fixed-size thread team.
class SpinBarrier {
 public:
  /// Construct a barrier for `num_threads` participants (>= 1). With an
  /// `abort` flag (a `ThreadTeam`'s region-abort flag), a waiter gives up
  /// once the flag is raised: a participant that threw will never arrive.
  explicit SpinBarrier(int num_threads,
                       const std::atomic<bool>* abort = nullptr)
      : num_threads_(num_threads),
        abort_(abort),
        arrived_(0),
        generation_(0) {
    assert(num_threads >= 1);
  }

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block until all `num_threads` participants have arrived. Returns
  /// false, without waiting for the rest, when the abort flag is raised;
  /// the flag is read only once a first load found the barrier closed, so
  /// an episode that completes at once costs no extra load.
  bool arrive_and_wait() noexcept {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) ==
        num_threads_ - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return true;
    }
    SpinWait backoff;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
        return false;
      }
      backoff.wait_once();
    }
    return true;
  }

  /// Forget the arrivals of an episode abandoned on abort. Must not race
  /// with `arrive_and_wait` (call between regions).
  void reset() noexcept { arrived_.store(0, std::memory_order_relaxed); }

  /// Number of participating threads.
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

 private:
  const int num_threads_;
  const std::atomic<bool>* const abort_;
  alignas(cache_line_size) std::atomic<int> arrived_;
  alignas(cache_line_size) std::atomic<std::uint64_t> generation_;
};

}  // namespace rtl
