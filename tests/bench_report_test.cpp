// Tests for the rtl::bench JSON reporting layer: Stats math, record
// schema, escaping, env knobs, and a round-trip parse through
// scripts/compare_bench.py (the consumer the JSON must stay compatible
// with).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace rtl::bench {
namespace {

TEST(StatsTest, EmptySampleSetIsZeroed) {
  const Stats s = stats_from_samples({});
  EXPECT_EQ(s.reps, 0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(StatsTest, SingleSampleHasZeroStddev) {
  const Stats s = stats_from_samples({3.5});
  EXPECT_EQ(s.reps, 1);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(StatsTest, MeanMinMaxAndSampleStddev) {
  const Stats s = stats_from_samples({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.reps, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  // Sample variance (n-1): (2.25 + 0.25 + 0.25 + 2.25) / 3 = 5/3.
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, ScalarStatWrapsOneValue) {
  const Stats s = scalar_stat(0.75);
  EXPECT_EQ(s.reps, 1);
  EXPECT_DOUBLE_EQ(s.mean, 0.75);
  EXPECT_DOUBLE_EQ(s.min, 0.75);
  EXPECT_DOUBLE_EQ(s.max, 0.75);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(StatsTest, MeasureMsRecordsEveryRep) {
  int calls = 0;
  const Stats s = measure_ms(5, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(s.reps, 5);
  EXPECT_GE(s.min, 0.0);
  EXPECT_GE(s.max, s.min);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
}

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(EnvKnobsTest, KnobsReadEnvironmentWithDefaults) {
  unsetenv("RTL_PROCS");
  EXPECT_EQ(default_procs(), 16);
  setenv("RTL_PROCS", "3", 1);
  EXPECT_EQ(default_procs(), 3);
  setenv("RTL_PROCS", "not-a-number", 1);
  EXPECT_EQ(default_procs(), 16);
  unsetenv("RTL_PROCS");
}

TEST(ReporterTest, DocumentCarriesSchemaMachineAndConfig) {
  setenv("RTL_GIT_SHA", "cafe1234cafe", 1);
  Reporter rep("bench_unit");
  rep.add("P1", "parallel_ms", stats_from_samples({1.0, 2.0}));
  rep.add_scalar("P1", "phases", 42.0, "count");
  rep.add_config("note", "unit-test");
  const std::string json = rep.to_json();
  unsetenv("RTL_GIT_SHA");

  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"driver\": \"bench_unit\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped\": false"), std::string::npos);
  EXPECT_NE(json.find("\"hostname\""), std::string::npos);
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"cafe1234cafe\""), std::string::npos);
  EXPECT_NE(json.find("\"RTL_PROCS\""), std::string::npos);
  EXPECT_NE(json.find("\"RTL_REPS\""), std::string::npos);
  EXPECT_NE(json.find("\"RTL_AMP\""), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"parallel_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"phases\""), std::string::npos);
  ASSERT_EQ(rep.records().size(), 2u);
  EXPECT_EQ(rep.records()[0].stats.reps, 2);
}

TEST(ReporterTest, PlanStatsAndCacheCountersLandInTheRecords) {
  Reporter rep("bench_unit");
  PlanStats st;
  st.n = 100;
  st.edges = 250;
  st.phases = 10;
  st.max_wavefront = 30;
  st.avg_wavefront = 10.0;
  st.waits = 37;
  st.wait_bytes = 700;
  st.bytes = 4096;
  rep.add_plan_stats("P1", st);
  Runtime::CacheCounters cc;
  cc.hits = 7;
  cc.misses = 2;
  cc.evictions = 1;
  cc.entries = 2;
  cc.disk_hits = 3;
  cc.disk_misses = 4;
  cc.disk_writes = 4;
  cc.disk_rejects = 1;
  rep.add_plan_cache(cc);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"metric\": \"plan_phases\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"plan_max_wavefront\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"plan_avg_wavefront\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"plan_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"plan_waits\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"plan_wait_bytes\""),
            std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"group\": \"plan_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"misses\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"evictions\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"entries\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"disk_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"disk_misses\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"disk_writes\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"disk_rejects\""), std::string::npos);
  // Derived units must stay non-gating: nothing here may carry "ms".
  for (const auto& r : rep.records()) EXPECT_NE(r.unit, "ms");
  // 6 plan records (phases, max/avg wavefront, bytes, waits, wait bytes)
  // + 8 cache counters.
  ASSERT_EQ(rep.records().size(), 14u);
}

TEST(ReporterTest, SkippedDriverStillProducesADocument) {
  Reporter rep("bench_missing");
  rep.mark_skipped("dependency absent");
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"skipped\": true"), std::string::npos);
  EXPECT_NE(json.find("\"skip_reason\": \"dependency absent\""),
            std::string::npos);
  EXPECT_NE(json.find("\"records\": []"), std::string::npos);
}

TEST(ReporterTest, NonFiniteValuesSerializeAsNull) {
  Reporter rep("bench_unit");
  rep.add_scalar("P1", "ratio", std::numeric_limits<double>::infinity());
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ReporterTest, FlushWritesToEnvPath) {
  const std::string path =
      testing::TempDir() + "/rtl_bench_report_flush.json";
  setenv("RTL_BENCH_JSON", path.c_str(), 1);
  {
    Reporter rep("bench_unit");
    rep.add("P1", "parallel_ms", stats_from_samples({1.0, 2.0, 3.0}));
    EXPECT_TRUE(rep.flush());
  }
  unsetenv("RTL_BENCH_JSON");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"driver\": \"bench_unit\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReporterTest, FlushWithoutEnvIsANoop) {
  unsetenv("RTL_BENCH_JSON");
  Reporter rep("bench_unit");
  EXPECT_FALSE(rep.flush());
}

// Round trip: the emitted JSON must parse and self-compare cleanly through
// scripts/compare_bench.py, the harness consumer.
TEST(ReporterTest, RoundTripsThroughComparePython) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string path =
      testing::TempDir() + "/rtl_bench_report_roundtrip.json";
  setenv("RTL_BENCH_JSON", path.c_str(), 1);
  {
    Reporter rep("bench_unit");
    rep.add("weird \"name\"\n", "parallel_ms",
            stats_from_samples({0.25, 0.5, 0.75}));
    rep.add_scalar("P1", "efficiency", 0.93, "eff");
    ASSERT_TRUE(rep.flush());
  }
  unsetenv("RTL_BENCH_JSON");

  const std::string script = std::string(RTL_SOURCE_DIR) +
                             "/scripts/compare_bench.py";
  const std::string cmd = "python3 '" + script + "' '" + path + "' '" +
                          path + "' > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "compare_bench.py rejected reporter output";
  std::remove(path.c_str());
}

TEST(ReporterTest, ComparePythonSelfCheckPasses) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string script = std::string(RTL_SOURCE_DIR) +
                             "/scripts/compare_bench.py";
  const std::string cmd =
      "python3 '" + script + "' --self-check > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace rtl::bench
