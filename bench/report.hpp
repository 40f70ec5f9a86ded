#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "runtime/timer.hpp"

/// Machine-tagged JSON benchmark reporting.
///
/// Every bench driver funnels its measurements through a `Reporter`, which
/// stamps the run with the machine identity (hostname, core count,
/// compiler, git SHA) and the pinned knobs (`RTL_PROCS`/`RTL_REPS`/
/// `RTL_AMP`), and writes one JSON document per driver when the
/// `RTL_BENCH_JSON` environment variable names an output path. The printed
/// stdout tables are unchanged; the JSON is the durable perf trajectory
/// that `scripts/bench.sh` collects and `scripts/compare_bench.py` diffs.
/// Schema and workflow: docs/BENCHMARKS.md; regression policy: docs/PERF.md.
namespace rtl::bench {

/// Number of "processors" the paper's tables use (16 on the Multimax/320).
/// Override with the RTL_PROCS environment variable.
int default_procs();

/// Repetitions for timing measurements (override with RTL_REPS).
int default_reps();

/// Per-row work amplification for the triangular-solve benches (override
/// with RTL_AMP); see bench_common.hpp for why amplification exists.
int work_amp();

/// Summary statistics over the wall times of a repeated measurement.
/// Tables print `min` (the conventional noise-robust estimator for short
/// shared-memory kernels); the JSON records the full distribution.
struct Stats {
  int reps = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample stddev (n-1 denominator); 0 when reps < 2.
  double min = 0.0;
  double max = 0.0;
};

/// Summarize a sample set (each sample one repetition, in ms).
[[nodiscard]] Stats stats_from_samples(const std::vector<double>& samples);

/// A Stats wrapping a single already-computed value (derived quantities,
/// counts, efficiencies).
[[nodiscard]] Stats scalar_stat(double value);

/// Run `fn()` `reps` times and return the wall-time distribution in ms.
template <class Fn>
[[nodiscard]] Stats measure_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  if (reps > 0) samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    samples.push_back(t.elapsed_ms());
  }
  return stats_from_samples(samples);
}

/// Machine identity stamped into every report.
struct MachineInfo {
  std::string hostname;
  int hardware_concurrency = 0;
  std::string compiler;
  std::string os;
  std::string git_sha;  ///< RTL_GIT_SHA env, else build-time value, else "unknown".
};
[[nodiscard]] MachineInfo detect_machine();

/// Escape a string for embedding inside a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

/// One measurement: `group` is the row (usually the problem name), `metric`
/// the column, `unit` "ms" for wall times (lower is better, gated by
/// compare_bench.py) or "" / "count" / "eff" for derived values.
struct Record {
  std::string group;
  std::string metric;
  std::string unit;
  Stats stats;
};

/// Collects a driver's records and writes one machine-tagged JSON document
/// to the path in RTL_BENCH_JSON (if set) on flush()/destruction.
class Reporter {
 public:
  explicit Reporter(std::string driver);
  ~Reporter();

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Record a timed metric with its full repetition distribution.
  void add(const std::string& group, const std::string& metric,
           const Stats& stats, const std::string& unit = "ms");

  /// Record a derived single value (efficiency, count, estimate).
  void add_scalar(const std::string& group, const std::string& metric,
                  double value, const std::string& unit = "");

  /// Record a plan's inspector-artifact shape and footprint: phase count,
  /// max/avg wavefront width ("count"), `Plan::memory_footprint()` bytes
  /// and the point-to-point wait lists ("bytes" — exact-gated, they are
  /// deterministic functions of the structure).
  void add_plan_stats(const std::string& group, const PlanStats& stats);

  /// Record `Runtime` plan-cache efficacy (hits/misses/evictions/entries
  /// plus the disk-tier disk_hits/disk_misses/disk_writes/disk_rejects,
  /// all "count") under the `plan_cache` group, so repeated-structure
  /// amortization (§5.1.1) shows up in the JSON trend data.
  void add_plan_cache(const Runtime::CacheCounters& counters);

  /// Attach an extra config entry (beyond the standard RTL_* knobs).
  void add_config(const std::string& key, const std::string& value);

  /// Mark the whole driver as skipped (e.g. a missing optional dependency);
  /// the JSON document still appears in the merged baseline.
  void mark_skipped(const std::string& reason);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

  /// Serialize the full document (schema docs/BENCHMARKS.md).
  [[nodiscard]] std::string to_json() const;

  /// Write to $RTL_BENCH_JSON. Returns true if a file was written.
  bool flush();

 private:
  std::string driver_;
  std::vector<std::pair<std::string, std::string>> extra_config_;
  std::vector<Record> records_;
  std::string skip_reason_;
  bool skipped_ = false;
  bool flushed_ = false;
};

}  // namespace rtl::bench
