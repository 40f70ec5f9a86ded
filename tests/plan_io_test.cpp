// Persistent-plan layer (`core/plan_io`): round-trip, corruption, and
// golden-fixture tests.
//
// Three properties pin the serialization format:
//   1. Round trip: for random DAGs swept over every scheduling policy,
//      every execution policy and 1–8 processors, save→load reproduces the
//      plan field for field — fingerprint, dependence CSR, wavefront CSR,
//      schedule, stats, memory footprint — and a loaded plan's executions
//      are bit-for-bit identical to the original's, including batched
//      executions.
//   2. Corruption safety: truncation at any byte, any bit flip, wrong
//      magic, a future format version, a mismatched fingerprint, or
//      non-normalized options always throw a typed `PlanIoError` — never
//      a crash, hang, or a malformed plan. Random instances honor
//      RTL_TEST_SEED (failures print the replay seed).
//   3. Golden fixture: tests/data/golden_plan_v1.rtlplan, produced once
//      from a hand-built 12-node DAG, must keep loading with exactly the
//      recorded statistics and must re-serialize byte-identically, so any
//      accidental layout change is caught against bytes committed to the
//      repository rather than against the code's own round trip.
//
// Format-version bump procedure (see kPlanFormatVersion): a layout change
// must (1) increment kPlanFormatVersion, (2) regenerate the golden file as
// tests/data/golden_plan_v<V>.rtlplan from the same hand-built DAG below
// and update kGoldenFile plus the recorded stats, and (3) extend
// FutureVersionRejected so images stamped with the *previous* version are
// now the ones rejected.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "graph/dependence_graph.hpp"
#include "runtime/thread_team.hpp"
#include "test_rng.hpp"

namespace rtl {
namespace {

using test_rng::seed_trace;
using test_rng::test_seed;

/// Random forward-only DAG (same construction as property_test).
DependenceGraph random_dag(index_t n, int max_deg, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<index_t>> preds(static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<int> deg_dist(0, max_deg);
    const int deg = deg_dist(rng);
    auto& mine = preds[static_cast<std::size_t>(i)];
    std::uniform_int_distribution<index_t> pick(0, i - 1);
    for (int d = 0; d < deg; ++d) mine.push_back(pick(rng));
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  }
  return DependenceGraph::from_lists(preds);
}

/// Batched recurrence whose result is bit-for-bit independent of the
/// execution interleaving (operand order fixed by the sorted dependence
/// list) — the stress_test body, reused here so "loaded plan executes
/// identically" is an exact comparison, not a tolerance check.
struct RecurrenceBody {
  const DependenceGraph* g;
  const real_t* rhs;
  real_t* x;
  index_t k;

  void operator()(index_t i) const {
    const auto deps = g->deps(i);
    const std::size_t w = static_cast<std::size_t>(k);
    const real_t* ri = rhs + static_cast<std::size_t>(i) * w;
    real_t* xi = x + static_cast<std::size_t>(i) * w;
    for (index_t j = 0; j < k; ++j) {
      real_t v = ri[static_cast<std::size_t>(j)];
      for (const index_t d : deps) {
        v += 0.5 * x[static_cast<std::size_t>(d) * w +
                     static_cast<std::size_t>(j)] /
             static_cast<real_t>(deps.size());
      }
      xi[static_cast<std::size_t>(j)] = v;
    }
  }
};

std::vector<real_t> run_batch(const Plan& plan, ThreadTeam& team,
                              const DependenceGraph& g,
                              const std::vector<real_t>& rhs, index_t k) {
  std::vector<real_t> x(rhs.size(), 0.0);
  plan.execute(team, RecurrenceBody{&g, rhs.data(), x.data(), k});
  return x;
}

std::string to_bytes(const Plan& plan) {
  std::ostringstream out(std::ios::binary);
  save_plan(plan, out);
  return out.str();
}

std::shared_ptr<const Plan> from_bytes(const std::string& image) {
  std::istringstream in(image, std::ios::binary);
  return load_plan(in);
}

/// True iff loading `image` throws PlanIoError (any other escape — a
/// different exception type, or success — is a test failure at the call
/// site). Never crashes or hangs by construction of load_plan.
bool load_rejects(const std::string& image) {
  try {
    (void)from_bytes(image);
    return false;
  } catch (const PlanIoError&) {
    return true;
  }
}

/// The PlanIoErrc load_plan reports for `image` (fails the test if the
/// image loads cleanly).
PlanIoErrc load_errc(const std::string& image) {
  try {
    (void)from_bytes(image);
  } catch (const PlanIoError& e) {
    return e.code();
  }
  ADD_FAILURE() << "image unexpectedly loaded";
  return PlanIoErrc::kIoError;
}

/// Recompute the trailer checksum after a deliberate patch, so the test
/// reaches the validation stage *behind* the checksum.
void reseal(std::string& image) {
  ASSERT_GE(image.size(), 8u);
  const std::uint64_t sum = fnv1a64(image.data(), image.size() - 8);
  for (int i = 0; i < 8; ++i) {
    image[image.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(sum >> (8 * i));
  }
}

std::vector<index_t> materialize(std::span<const index_t> s) {
  return {s.begin(), s.end()};
}

/// Field-for-field identity of the whole immutable artifact.
void expect_identical(const Plan& a, const Plan& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.nproc(), b.nproc());
  EXPECT_TRUE(a.options() == b.options());
  EXPECT_EQ(materialize(a.graph().ptr()), materialize(b.graph().ptr()));
  EXPECT_EQ(materialize(a.graph().adj()), materialize(b.graph().adj()));
  EXPECT_EQ(a.wavefronts().wave, b.wavefronts().wave);
  EXPECT_EQ(a.wavefronts().num_waves, b.wavefronts().num_waves);
  EXPECT_EQ(a.wavefronts().order, b.wavefronts().order);
  EXPECT_EQ(a.wavefronts().wave_ptr, b.wavefronts().wave_ptr);
  EXPECT_EQ(a.schedule().nproc, b.schedule().nproc);
  EXPECT_EQ(a.schedule().n, b.schedule().n);
  EXPECT_EQ(a.schedule().num_phases, b.schedule().num_phases);
  EXPECT_EQ(a.schedule().order, b.schedule().order);
  EXPECT_EQ(a.schedule().proc_ptr, b.schedule().proc_ptr);
  EXPECT_EQ(a.schedule().phase_ptr, b.schedule().phase_ptr);
  EXPECT_EQ(a.waits().ptr, b.waits().ptr);
  ASSERT_EQ(a.waits().waits.size(), b.waits().waits.size());
  for (std::size_t k = 0; k < a.waits().waits.size(); ++k) {
    EXPECT_EQ(a.waits().waits[k].proc, b.waits().waits[k].proc);
    EXPECT_EQ(a.waits().waits[k].phase, b.waits().waits[k].phase);
  }
  EXPECT_EQ(a.memory_footprint(), b.memory_footprint());
  const PlanStats sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.n, sb.n);
  EXPECT_EQ(sa.edges, sb.edges);
  EXPECT_EQ(sa.phases, sb.phases);
  EXPECT_EQ(sa.max_wavefront, sb.max_wavefront);
  EXPECT_EQ(sa.avg_wavefront, sb.avg_wavefront);
  EXPECT_EQ(sa.waits, sb.waits);
  EXPECT_EQ(sa.wait_bytes, sb.wait_bytes);
  EXPECT_EQ(sa.bytes, sb.bytes);
}

// ---------------------------------------------------------------------------
// 1. Round trip
// ---------------------------------------------------------------------------

// GoogleTest names each case after the bytes of its parameter, so the struct
// must have no padding: uninitialised padding bytes gave a case a different
// name on every run. `zero` fills the gap in front of `seed`.
struct RoundTripParam {
  int nproc;
  std::int32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RoundTripParam>);

class PlanIoRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(PlanIoRoundTrip, EveryPolicyCombinationSurvivesSaveLoad) {
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const index_t n = 96 + 4 * static_cast<index_t>(param.nproc);
  const auto g = random_dag(n, 3, seed);
  ThreadTeam team(param.nproc);

  std::mt19937_64 rng(seed ^ 0xBEEF);
  std::uniform_real_distribution<real_t> dist(-4.0, 4.0);
  constexpr index_t kWide = 3;
  std::vector<real_t> rhs(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(kWide));
  for (auto& v : rhs) v = dist(rng);
  std::vector<real_t> rhs1(rhs.begin(),
                           rhs.begin() + static_cast<std::ptrdiff_t>(n));

  const SchedulingPolicy scheds[] = {SchedulingPolicy::kGlobal,
                                     SchedulingPolicy::kLocalWrapped,
                                     SchedulingPolicy::kLocalBlock};
  const ExecutionPolicy execs[] = {
      ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
      ExecutionPolicy::kDoAcross, ExecutionPolicy::kPointToPoint};

  for (const SchedulingPolicy sched : scheds) {
    for (const ExecutionPolicy exec : execs) {
      DoconsiderOptions opts;
      opts.scheduling = sched;
      opts.execution = exec;
      SCOPED_TRACE("sched=" + std::to_string(static_cast<int>(sched)) +
                   " exec=" + std::to_string(static_cast<int>(exec)));

      const Plan plan(team, DependenceGraph(g), opts);
      const std::string image = to_bytes(plan);
      const auto loaded = from_bytes(image);
      ASSERT_NE(loaded, nullptr);
      expect_identical(plan, *loaded);

      // Serialization is deterministic: saving the loaded plan reproduces
      // the image byte for byte.
      EXPECT_EQ(to_bytes(*loaded), image);

      // A loaded plan must execute bit-for-bit like the original, width 1
      // and batched (for kPointToPoint through the re-derived wait
      // lists).
      EXPECT_EQ(run_batch(plan, team, g, rhs1, 1),
                run_batch(*loaded, team, g, rhs1, 1));
      EXPECT_EQ(run_batch(plan, team, g, rhs, kWide),
                run_batch(*loaded, team, g, rhs, kWide));
    }
  }
}

TEST(PlanIoPointToPoint, HandEditedScheduleExecutesWithItsOwnWaits) {
  // The wait lists are never serialized: load_plan re-derives them from
  // the schedule it loaded. So an image whose schedule was replaced by a
  // different valid one — here the wrapped deal of Figures 9-10, which
  // puts nearly every dependence on another processor — must load,
  // derive waits for *that* schedule, and still execute exactly.
  const std::uint64_t seed = test_seed(20261016);
  SCOPED_TRACE(seed_trace(seed));
  for (const int nproc : {2, 3, 4}) {
    ThreadTeam team(nproc);
    const auto g = random_dag(150, 3, seed + static_cast<unsigned>(nproc));
    const Plan fresh(team, DependenceGraph(g));
    ASSERT_EQ(fresh.options().execution, ExecutionPolicy::kPointToPoint);
    std::string image = to_bytes(fresh);

    // The schedule arrays are the image's last three, just before the
    // trailer: order (n), proc_ptr (nproc+1), phase_ptr.
    const Schedule wrapped = global_schedule(fresh.wavefronts(), nproc);
    ASSERT_NE(wrapped.order, fresh.schedule().order);
    std::vector<index_t> tail = wrapped.order;
    tail.insert(tail.end(), wrapped.proc_ptr.begin(), wrapped.proc_ptr.end());
    tail.insert(tail.end(), wrapped.phase_ptr.begin(),
                wrapped.phase_ptr.end());
    const std::size_t tail_bytes = tail.size() * sizeof(index_t);
    ASSERT_GT(image.size(), tail_bytes + 8);
    for (std::size_t t = 0; t < tail.size(); ++t) {
      const auto v = static_cast<std::uint32_t>(tail[t]);
      for (int b = 0; b < 4; ++b) {
        image[image.size() - 8 - tail_bytes + t * 4 +
              static_cast<std::size_t>(b)] = static_cast<char>(v >> (8 * b));
      }
    }
    reseal(image);
    const auto loaded = from_bytes(image);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->schedule().order, wrapped.order);
    const SlabWaits expect = slab_waits(g, fresh.wavefronts(), wrapped);
    EXPECT_EQ(loaded->waits().ptr, expect.ptr);
    EXPECT_EQ(loaded->waits().waits.size(), expect.waits.size());

    std::mt19937_64 rng(seed ^ 0x5eed);
    std::uniform_real_distribution<real_t> dist(-2.0, 2.0);
    for (const index_t k : {1, 4}) {
      std::vector<real_t> rhs(static_cast<std::size_t>(g.size()) *
                              static_cast<std::size_t>(k));
      for (auto& v : rhs) v = dist(rng);
      std::vector<real_t> ref(rhs.size(), 0.0);
      RecurrenceBody seq{&g, rhs.data(), ref.data(), k};
      for (index_t i = 0; i < g.size(); ++i) seq(i);
      EXPECT_EQ(run_batch(*loaded, team, g, rhs, k), ref)
          << "nproc=" << nproc << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanIoRoundTrip,
    ::testing::Values(RoundTripParam{.nproc = 1, .seed = 11},
                      RoundTripParam{.nproc = 2, .seed = 22},
                      RoundTripParam{.nproc = 4, .seed = 44},
                      RoundTripParam{.nproc = 8, .seed = 88}));

TEST(PlanIo, EmptyAndSingletonPlansRoundTrip) {
  ThreadTeam team(2);
  for (const index_t n : {index_t{0}, index_t{1}}) {
    const auto g = random_dag(n, 2, 7);
    const Plan plan(team, DependenceGraph(g), {});
    const auto loaded = from_bytes(to_bytes(plan));
    ASSERT_NE(loaded, nullptr);
    expect_identical(plan, *loaded);
  }
}

// ---------------------------------------------------------------------------
// 2. Corruption: truncation, bit flips, targeted header damage
// ---------------------------------------------------------------------------

TEST(PlanIoCorruption, TruncationAtEveryByteIsRejected) {
  ThreadTeam team(3);
  const auto g = random_dag(40, 3, test_seed(1234));
  const Plan plan(team, DependenceGraph(g), {});
  const std::string image = to_bytes(plan);
  ASSERT_GT(image.size(), kPlanHeaderBytes);

  // Every strict prefix — which includes every section boundary of the
  // format: mid-magic, mid-header, each array edge, mid-trailer — must be
  // rejected, and with the dedicated kTruncated code.
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::string prefix = image.substr(0, len);
    ASSERT_TRUE(load_rejects(prefix)) << "prefix length " << len;
    EXPECT_EQ(load_errc(prefix), PlanIoErrc::kTruncated)
        << "prefix length " << len;
  }
}

TEST(PlanIoCorruption, TrailingDataIsRejected) {
  ThreadTeam team(2);
  const auto g = random_dag(16, 2, test_seed(99));
  const Plan plan(team, DependenceGraph(g), {});
  std::string image = to_bytes(plan);
  image.push_back('\0');
  EXPECT_EQ(load_errc(image), PlanIoErrc::kTrailingData);
}

TEST(PlanIoCorruption, EveryBitFlipIsRejected) {
  // Exhaustive single-bit-flip sweep over a small but complete image: no
  // flipped bit anywhere — header, any array, or the trailer itself — may
  // load, because every payload byte is checksummed and the checksum bytes
  // must match the payload.
  ThreadTeam team(2);
  const auto g = random_dag(8, 2, test_seed(4321));
  const Plan plan(team, DependenceGraph(g), {});
  const std::string image = to_bytes(plan);
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = image;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ (1u << bit));
      EXPECT_TRUE(load_rejects(corrupt))
          << "byte " << byte << " bit " << bit << " loaded anyway";
    }
  }
}

TEST(PlanIoCorruption, RandomBitFlipsOnLargerImageAreRejected) {
  const std::uint64_t seed = test_seed(20260808);
  SCOPED_TRACE(seed_trace(seed));
  ThreadTeam team(4);
  const auto g = random_dag(120, 3, seed);
  const Plan plan(team, DependenceGraph(g));
  const std::string image = to_bytes(plan);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, image.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> nflips(1, 3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = image;
    const int flips = nflips(rng);
    for (int f = 0; f < flips; ++f) {
      const std::size_t p = pos(rng);
      corrupt[p] = static_cast<char>(static_cast<unsigned char>(corrupt[p]) ^
                                     (1u << bit(rng)));
    }
    // A multi-flip could in principle cancel itself out; re-check against
    // the pristine image instead of asserting blindly.
    if (corrupt == image) continue;
    EXPECT_TRUE(load_rejects(corrupt)) << "trial " << trial;
  }
}

TEST(PlanIoCorruption, WrongMagicIsRejected) {
  ThreadTeam team(2);
  const auto g = random_dag(16, 2, test_seed(5));
  const Plan plan(team, DependenceGraph(g), {});
  std::string image = to_bytes(plan);
  image[0] = 'X';
  reseal(image);  // even with a coherent checksum, the magic gates first
  EXPECT_EQ(load_errc(image), PlanIoErrc::kBadMagic);
}

TEST(PlanIoCorruption, FutureFormatVersionIsRejected) {
  ThreadTeam team(2);
  const auto g = random_dag(16, 2, test_seed(6));
  const Plan plan(team, DependenceGraph(g), {});
  std::string image = to_bytes(plan);
  image[8] = static_cast<char>(kPlanFormatVersion + 1);  // version u32 LSB
  reseal(image);
  EXPECT_EQ(load_errc(image), PlanIoErrc::kUnsupportedVersion);
}

TEST(PlanIoCorruption, StoredFingerprintMismatchIsRejected) {
  ThreadTeam team(2);
  const auto g = random_dag(16, 2, test_seed(7));
  const Plan plan(team, DependenceGraph(g), {});
  std::string image = to_bytes(plan);
  image[16] = static_cast<char>(static_cast<unsigned char>(image[16]) ^ 0xFF);
  reseal(image);  // checksum now matches the patched bytes again
  EXPECT_EQ(load_errc(image), PlanIoErrc::kFingerprintMismatch);
}

TEST(PlanIoCorruption, NonNormalizedOptionsAreRejected) {
  // None of these header bytes can have come from save_plan: the retired
  // window and panel fields are always 0, execution codes 3-5 belonged to
  // deleted executors, and the default point-to-point policy normalizes
  // `instrumented` to 0.
  ThreadTeam team(2);
  const auto g = random_dag(16, 2, test_seed(8));
  const Plan plan(team, DependenceGraph(g), {});
  const std::string pristine = to_bytes(plan);
  const struct {
    std::size_t offset;
    unsigned char value;
  } patches[] = {
      {64, 5},  // window, u64 LSB at offset 64
      {72, 5},  // panel, u64 LSB at offset 72
      {60, 3},  // execution, u32 LSB at offset 60
      {60, 4},
      {60, 5},
      {80, 1},  // instrumented
  };
  for (const auto& patch : patches) {
    std::string image = pristine;
    image[patch.offset] = static_cast<char>(patch.value);
    reseal(image);
    EXPECT_EQ(load_errc(image), PlanIoErrc::kBadHeader)
        << "offset " << patch.offset << " value " << int{patch.value};
  }
}

TEST(PlanIoCorruption, ErrcNamesAreStable) {
  EXPECT_STREQ(plan_io_errc_name(PlanIoErrc::kBadMagic), "bad_magic");
  EXPECT_STREQ(plan_io_errc_name(PlanIoErrc::kTruncated), "truncated");
  EXPECT_STREQ(plan_io_errc_name(PlanIoErrc::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(plan_io_errc_name(PlanIoErrc::kBadStructure), "bad_structure");
}

// ---------------------------------------------------------------------------
// 3. Golden fixture
// ---------------------------------------------------------------------------

/// The hand-built DAG behind tests/data/golden_plan_v1.rtlplan: 12 nodes,
/// 16 edges, 8 wavefronts of width <= 2. Any change to this function
/// invalidates the fixture — regenerate it (see the bump procedure in the
/// file header) rather than editing the expectations.
DependenceGraph golden_dag() {
  return DependenceGraph::from_lists({{},
                                      {0},
                                      {0},
                                      {1, 2},
                                      {2},
                                      {3, 4},
                                      {0, 5},
                                      {5},
                                      {6, 7},
                                      {8},
                                      {4, 9},
                                      {9}});
}

constexpr const char* kGoldenFile =
    RTL_SOURCE_DIR "/tests/data/golden_plan_v1.rtlplan";

TEST(PlanIoGolden, FixtureLoadsWithRecordedStats) {
  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << kGoldenFile;
  const auto plan = load_plan(in);
  ASSERT_NE(plan, nullptr);

  const PlanStats st = plan->stats();
  EXPECT_EQ(st.n, 12);
  EXPECT_EQ(st.edges, 16);
  EXPECT_EQ(st.phases, 8);
  EXPECT_EQ(st.max_wavefront, 2);
  EXPECT_DOUBLE_EQ(st.avg_wavefront, 1.5);
  EXPECT_EQ(plan->nproc(), 3);
  // The fixture was written under the paper's Figure 4 executor.
  EXPECT_TRUE(plan->options() ==
              normalized_options(
                  {.execution = ExecutionPolicy::kSelfExecuting}));

  // The stored fingerprint must be the fingerprint of the same DAG built
  // fresh by this binary — the cross-process cache-key contract.
  EXPECT_EQ(plan->fingerprint(), golden_dag().fingerprint());

  // And the loaded plan executes: the golden image is a working artifact,
  // not just parseable bytes.
  ThreadTeam team(3);
  const auto g = golden_dag();
  const std::vector<real_t> rhs(12, 1.0);
  std::vector<real_t> ref(12, 0.0);
  RecurrenceBody refbody{&g, rhs.data(), ref.data(), 1};
  for (index_t i = 0; i < 12; ++i) refbody(i);
  std::vector<real_t> x(12, 0.0);
  RecurrenceBody body{&g, rhs.data(), x.data(), 1};
  plan->execute(team, body);
  EXPECT_EQ(x, ref);
}

TEST(PlanIoGolden, FixtureReserializesByteIdentically) {
  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << kGoldenFile;
  const std::string file_bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  const auto plan = from_bytes(file_bytes);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(to_bytes(*plan), file_bytes);
}

TEST(PlanIoGolden, CacheFileNameIsStable) {
  // The disk-cache file name is a cross-process contract: two hosts
  // sharing a cache directory must agree on it byte for byte.
  const DoconsiderOptions opts =
      normalized_options({.execution = ExecutionPolicy::kSelfExecuting});
  EXPECT_EQ(plan_cache_file_name(0x0123456789abcdefull, 12, 16, 3, opts),
            "plan-0123456789abcdef-n12-e16-p3-s0-x1-w0-c0-i0.rtlplan");
}

}  // namespace
}  // namespace rtl
