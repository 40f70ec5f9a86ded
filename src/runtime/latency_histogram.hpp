#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

/// Fixed-bucket latency histogram: percentile estimates with no allocation
/// and no locking on the record path.
///
/// A long-running service wants p50/p99 solve latency without paying for
/// it in the hot path: `record` is one relaxed atomic increment into a
/// fixed array, so it is safe from any thread, never allocates, and never
/// takes a lock. The price is bucketized resolution: buckets are
/// power-of-two-spaced in microseconds (bucket i covers [2^i, 2^{i+1})
/// microseconds, bucket 0 also absorbs sub-microsecond samples), which
/// bounds any percentile estimate to within a factor of two of the true
/// value — plenty for "did warm-start help" and "is the tail growing"
/// questions, and exactly the scheme monitoring systems use to keep
/// recording O(1). 64 buckets cover sub-microsecond through ~584 thousand
/// years, so no clamp is ever observable in practice.
///
/// `snapshot()` copies the counters into a plain `LatencySnapshot` — a
/// POD that can be serialized (the solve service ships it to clients in
/// the metrics reply) and interrogated for percentiles offline. A
/// snapshot taken while recorders are active is a consistent *count*
/// per bucket but not an atomic cut across buckets; for exact totals,
/// snapshot between regions (the same contract as `ExecCounters`).
namespace rtl {

/// Plain copy of a histogram's state; serializable and queryable.
struct LatencySnapshot {
  static constexpr int kBuckets = 64;

  std::array<std::uint64_t, kBuckets> counts{};

  /// Total number of recorded samples.
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }

  /// Upper bound (exclusive) of bucket i in milliseconds: 2^{i+1} us.
  [[nodiscard]] static double bucket_upper_ms(int i) noexcept {
    return static_cast<double>(2.0 * (1ull << i)) / 1000.0;
  }

  /// Conservative percentile estimate in milliseconds: the upper bound of
  /// the bucket containing the p-th percentile sample (p in [0, 100],
  /// e.g. 50 or 99). Returns 0 for an empty histogram. Monotone in p by
  /// construction.
  [[nodiscard]] double percentile_ms(double p) const noexcept {
    const std::uint64_t n = total();
    if (n == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    // 1-based rank of the percentile sample: p99 of 100 samples is the
    // 99th smallest.
    std::uint64_t rank =
        static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(n));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts[static_cast<std::size_t>(i)];
      if (seen >= rank) return bucket_upper_ms(i);
    }
    return bucket_upper_ms(kBuckets - 1);
  }
};

/// Concurrent fixed-bucket recorder. Value type is milliseconds (the
/// unit every timer in this tree reports); storage granularity is
/// microseconds.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = LatencySnapshot::kBuckets;

  /// Bucket index of a latency in milliseconds: floor(log2(us)), clamped
  /// to [0, kBuckets). Sub-microsecond and negative samples land in
  /// bucket 0.
  [[nodiscard]] static int bucket_of_ms(double ms) noexcept {
    const double us = ms * 1000.0;
    if (us < 2.0) return 0;
    // A double at or past 2^64 (or NaN) has no uint64_t value — converting
    // it is undefined — and belongs in the last bucket anyway.
    if (!(us < 0x1p64)) return kBuckets - 1;
    // us >= 2 here, so the subtraction below cannot underflow.
    const auto u = static_cast<std::uint64_t>(us);
    const int b = 63 - std::countl_zero(u);
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Record one sample. Wait-free; callable from any thread.
  void record(double ms) noexcept {
    counts_[static_cast<std::size_t>(bucket_of_ms(ms))].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Copy the current counters out (see class comment for the
  /// concurrent-snapshot contract).
  [[nodiscard]] LatencySnapshot snapshot() const noexcept {
    LatencySnapshot s;
    for (int i = 0; i < kBuckets; ++i) {
      s.counts[static_cast<std::size_t>(i)] =
          counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
    return s;
  }

  /// Zero every bucket (between measurement regions).
  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

}  // namespace rtl
