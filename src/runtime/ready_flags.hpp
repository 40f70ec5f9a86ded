#pragma once

#include <atomic>
#include <cassert>
#include <vector>

#include "runtime/spin_wait.hpp"
#include "runtime/thread_team.hpp"
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
  ReadyFlags() = default;

  /// Create `n` flags, all clear.
  explicit ReadyFlags(index_t n) : flags_(static_cast<std::size_t>(n)) {
    for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
  }

  /// Number of flags.
  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(flags_.size());
  }

  /// Clear all flags. Must not race with concurrent set/wait.
  void reset() noexcept {
    for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
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
  /// False when a member of `team`'s current region threw: the producer
  /// may never publish. The abort flag is read only once a first load
  /// found the flag clear, so a satisfied wait costs one load.
  [[nodiscard]] bool wait(index_t i, const ThreadTeam& team) const noexcept {
    assert(i >= 0 && i < size());
    const auto& flag = flags_[static_cast<std::size_t>(i)];
    if (flag.load(std::memory_order_acquire) != 0) return true;
    SpinWait backoff;
    do {
      if (team.region_aborted()) return false;
      backoff.wait_once();
    } while (flag.load(std::memory_order_acquire) == 0);
    return true;
  }

 private:
  std::vector<std::atomic<std::uint32_t>> flags_;
};

}  // namespace rtl
