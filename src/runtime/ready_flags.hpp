#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "runtime/spin_wait.hpp"
#include "runtime/types.hpp"

/// The shared `ready` array of the self-executing executor.
///
/// Figure 4 of the paper keeps one status word per outer-loop index:
/// a consumer busy-waits (line 3a) until the producer marks the index
/// COMPLETED (line 3c). `ReadyFlags` is that array with the required
/// release/acquire pairing so that the produced value is visible to the
/// consumer when the flag is observed set.
namespace rtl {

/// One completion flag per loop index, with publish/consume semantics.
class ReadyFlags {
 public:
  /// `n` flags, all clear. With an `abort` flag (a `ThreadTeam`'s
  /// region-abort flag, as for `SpinBarrier`), a waiter gives up once the
  /// flag is raised: a producer that threw will never publish.
  explicit ReadyFlags(index_t n = 0,
                      const std::atomic<bool>* abort = nullptr)
      : abort_(abort) {
    reset(n);
  }

  /// Number of flags.
  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(flags_.size());
  }

  /// Clear flags [0, n), first growing the array to `n` flags if it holds
  /// fewer; flags from n on are left as they are. Must not race with
  /// concurrent set/wait.
  void reset(index_t n) {
    if (n > size()) {
      flags_ = std::vector<std::atomic<std::uint32_t>>(
          static_cast<std::size_t>(n));
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      flags_[i].store(0, std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Publish index `i`: all writes made by the caller before this call are
  /// visible to any thread that observes the flag via `wait()`/`is_set()`.
  void set(index_t i) noexcept {
    assert(i >= 0 && i < size());
    flags_[static_cast<std::size_t>(i)].store(1, std::memory_order_release);
  }

  /// Non-blocking completion test (acquire).
  [[nodiscard]] bool is_set(index_t i) const noexcept {
    assert(i >= 0 && i < size());
    return flags_[static_cast<std::size_t>(i)].load(
               std::memory_order_acquire) != 0;
  }

  /// Busy-wait until index `i` has been published (Figure 4, line 3a).
  /// False when the abort flag is raised: the producer may never publish.
  /// The abort flag is read only once a first load found the flag clear,
  /// so a satisfied wait costs one load.
  [[nodiscard]] bool wait(index_t i) const noexcept {
    assert(i >= 0 && i < size());
    const auto& flag = flags_[static_cast<std::size_t>(i)];
    if (flag.load(std::memory_order_acquire) != 0) return true;
    SpinWait backoff;
    do {
      if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
        return false;
      }
      backoff.wait_once();
    } while (flag.load(std::memory_order_acquire) == 0);
    return true;
  }

 private:
  const std::atomic<bool>* abort_;
  std::vector<std::atomic<std::uint32_t>> flags_;
};

}  // namespace rtl
