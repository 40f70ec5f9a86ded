// Tests for the runtime substrate: thread team, barrier, ready flags,
// spin waits, block partitioning, the XXH64 hash — plus the
// `Runtime` plan cache's on-disk tier (lookup order memory LRU → disk →
// inspector, atomic write-back, reject-and-reinspect of invalid images).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_io.hpp"
#include "core/runtime.hpp"
#include "graph/dependence_graph.hpp"
#include "kernel/bound_kernel.hpp"
#include "runtime/barrier.hpp"
#include "runtime/hash.hpp"
#include "runtime/ready_flags.hpp"
#include "runtime/spin_wait.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "sparse/triangular.hpp"

namespace rtl {
namespace {

TEST(BlockRange, CoversWholeRangeWithoutOverlap) {
  const index_t n = 103;
  const int p = 7;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  for (int t = 0; t < p; ++t) {
    const BlockRange r = block_range(n, t, p);
    EXPECT_LE(r.begin, r.end);
    for (index_t i = r.begin; i < r.end; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(BlockRange, BalancedWithinOne) {
  const index_t n = 100;
  const int p = 16;
  index_t min_len = n, max_len = 0;
  for (int t = 0; t < p; ++t) {
    const BlockRange r = block_range(n, t, p);
    min_len = std::min(min_len, r.end - r.begin);
    max_len = std::max(max_len, r.end - r.begin);
  }
  EXPECT_LE(max_len - min_len, 1);
}

TEST(BlockRange, MoreThreadsThanWork) {
  const index_t n = 3;
  const int p = 8;
  index_t covered = 0;
  for (int t = 0; t < p; ++t) {
    const BlockRange r = block_range(n, t, p);
    covered += r.end - r.begin;
  }
  EXPECT_EQ(covered, n);
}

TEST(BlockRange, EmptyRange) {
  const BlockRange r = block_range(0, 0, 4);
  EXPECT_EQ(r.begin, r.end);
}

TEST(ThreadTeam, RunsEveryTidExactlyOnce) {
  ThreadTeam team(8);
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, SingleThreadTeamRunsInline) {
  ThreadTeam team(1);
  int hits = 0;
  team.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadTeam, RepeatedRegionsReuseWorkers) {
  ThreadTeam team(4);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 100; ++rep) {
    team.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadTeam, ParallelBlocksSumsCorrectly) {
  ThreadTeam team(6);
  const index_t n = 10007;
  std::vector<long> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0L);
  std::atomic<long> sum{0};
  team.parallel_blocks(n, [&](int, index_t b, index_t e) {
    long local = 0;
    for (index_t i = b; i < e; ++i) local += data[static_cast<std::size_t>(i)];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

TEST(ThreadTeam, OversubscribedTeamWarnsOnceAndStillFunctions) {
  // A team larger than the physical core count must keep working (the
  // ROADMAP scaling-ceiling caveat) and must log the one-time warning so
  // a service operator can see why parallel timings degraded.
  const unsigned hw = std::thread::hardware_concurrency();
  ASSERT_GT(hw, 0u);
  const int oversubscribed = static_cast<int>(hw) + 4;
  ThreadTeam team(oversubscribed);
  EXPECT_TRUE(ThreadTeam::oversubscription_warned());

  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(oversubscribed));
  for (auto& h : hits) h.store(0);
  for (int rep = 0; rep < 3; ++rep) {
    team.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);

  // Barrier-synchronized phases still work when threads outnumber cores.
  std::atomic<int> phase_sum{0};
  team.run([&](int) {
    phase_sum.fetch_add(1);
    team.barrier().arrive_and_wait();
    EXPECT_EQ(phase_sum.load(), oversubscribed);
  });
}

TEST(ThreadTeam, PropagatesExceptionFromWorker) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // The team must remain usable after an exception.
  std::atomic<int> total{0};
  team.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadTeam, PropagatesExceptionFromCaller) {
  ThreadTeam team(3);
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 0) throw std::logic_error("caller");
  }),
               std::logic_error);
}

TEST(SpinBarrier, SynchronizesCounterPhases) {
  const int p = 8;
  ThreadTeam team(p);
  SpinBarrier& barrier = team.barrier();
  std::vector<std::atomic<int>> counters(100);
  for (auto& c : counters) c.store(0);
  team.run([&](int) {
    for (int phase = 0; phase < 100; ++phase) {
      counters[static_cast<std::size_t>(phase)].fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier, every thread must observe the full count.
      EXPECT_EQ(counters[static_cast<std::size_t>(phase)].load(), p);
      barrier.arrive_and_wait();
    }
  });
}

TEST(SpinBarrier, SingleParticipantNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(barrier.arrive_and_wait());
}

TEST(SpinBarrier, OrdersWritesAcrossPhases) {
  const int p = 4;
  ThreadTeam team(p);
  std::vector<int> values(static_cast<std::size_t>(p), 0);
  team.run([&](int tid) {
    values[static_cast<std::size_t>(tid)] = tid + 1;
    team.barrier().arrive_and_wait();
    int sum = 0;
    for (const int v : values) sum += v;
    EXPECT_EQ(sum, p * (p + 1) / 2);
    team.barrier().arrive_and_wait();
  });
}

TEST(SpinBarrier, WaitersLeaveOnAbortAndNextRegionStartsClean) {
  // Member 0 throws before arriving: the others must give up the episode
  // instead of spinning forever, and their abandoned arrivals must not
  // leak into the next region, whose barrier would then open early.
  const int p = 4;
  ThreadTeam team(p);
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 0) throw std::runtime_error("member 0");
    EXPECT_FALSE(team.barrier().arrive_and_wait());
  }),
               std::runtime_error);
  std::atomic<int> arrived{0};
  team.run([&](int) {
    arrived.fetch_add(1);
    EXPECT_TRUE(team.barrier().arrive_and_wait());
    EXPECT_EQ(arrived.load(), p);
  });
}

TEST(ReadyFlags, SetAndTest) {
  ReadyFlags flags(10);
  EXPECT_EQ(flags.size(), 10);
  EXPECT_FALSE(flags.is_set(3));
  flags.set(3);
  EXPECT_TRUE(flags.is_set(3));
  EXPECT_FALSE(flags.is_set(4));
}

TEST(ReadyFlags, ResetClearsAll) {
  ReadyFlags flags(5);
  for (index_t i = 0; i < 5; ++i) flags.set(i);
  flags.reset();
  for (index_t i = 0; i < 5; ++i) EXPECT_FALSE(flags.is_set(i));
}

TEST(ReadyFlags, WaitReturnsImmediatelyWhenSet) {
  ThreadTeam team(1);
  ReadyFlags flags(2);
  flags.set(1);
  EXPECT_TRUE(flags.wait(1, team));  // must not hang
}

TEST(ReadyFlags, PublishesDataAcrossThreads) {
  // Producer-consumer handoff through a ready flag must make the produced
  // value visible (release/acquire pairing).
  ThreadTeam team(2);
  for (int rep = 0; rep < 50; ++rep) {
    ReadyFlags flags(1);
    int payload = 0;
    team.run([&](int tid) {
      if (tid == 0) {
        payload = 42;
        flags.set(0);
      } else {
        EXPECT_TRUE(flags.wait(0, team));
        EXPECT_EQ(payload, 42);
      }
    });
  }
}

TEST(SpinWaitTest, SpinUntilObservesPredicate) {
  std::atomic<bool> flag{false};
  ThreadTeam team(2);
  team.run([&](int tid) {
    if (tid == 0) {
      flag.store(true, std::memory_order_release);
    } else {
      spin_until([&] { return flag.load(std::memory_order_acquire); });
    }
  });
  EXPECT_TRUE(flag.load());
}

TEST(ThreadTeamCounters, AccumulateAndReset) {
  ThreadTeam team(2);
  team.add_exec_counters(10, 3);
  team.add_exec_counters(5, 1);
  const ExecCounters c = team.exec_counters();
  EXPECT_EQ(c.flag_publishes, 15u);
  EXPECT_EQ(c.steals, 0u);
  EXPECT_EQ(c.barrier_waits, 4u);
  team.reset_exec_counters();
  const ExecCounters z = team.exec_counters();
  EXPECT_EQ(z.flag_publishes, 0u);
  EXPECT_EQ(z.steals, 0u);
  EXPECT_EQ(z.barrier_waits, 0u);
}

TEST(Hash64Test, KnownAnswers) {
  // XXH64, seed 0. The 39-byte input is long enough for the four-lane
  // stripe path.
  const struct {
    const char* input;
    std::uint64_t digest;
  } cases[] = {
      {"", 0xef46db3751d8e999ull},
      {"a", 0xd24ec4f1a98c6e5bull},
      {"abc", 0x44bc2cf5ad770999ull},
      {"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1ull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hash64(c.input, std::strlen(c.input)), c.digest)
        << "\"" << c.input << "\"";
  }
}

std::vector<unsigned char> hash_test_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return bytes;
}

TEST(Hash64Test, StreamingEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> bytes = hash_test_bytes(1000);
  const std::uint64_t one_shot = hash64(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Hash64 h;
    h.update(bytes.data(), split);
    h.update(bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(h.digest(), one_shot) << "split at " << split;
  }
  // Byte by byte, reading the digest midway without disturbing the state.
  Hash64 h;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    h.update(&bytes[i], 1);
    if (i == 500) {
      EXPECT_EQ(h.digest(), hash64(bytes.data(), 501));
    }
  }
  EXPECT_EQ(h.digest(), one_shot);
}

TEST(Hash64Test, EverySingleBitFlipChangesTheDigest) {
  std::vector<unsigned char> bytes = hash_test_bytes(4096);
  const std::uint64_t pristine = hash64(bytes.data(), bytes.size());
  std::set<std::uint64_t> digests{pristine};
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<unsigned char>(1u << bit);
      digests.insert(hash64(bytes.data(), bytes.size()));
      bytes[byte] ^= static_cast<unsigned char>(1u << bit);
    }
  }
  // Every flip gave a digest unlike the pristine one and unlike each other.
  EXPECT_EQ(digests.size(), 1 + bytes.size() * 8);
}

TEST(WallTimerTest, MeasuresNonNegativeDurations) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  EXPECT_GE(t.elapsed_ms(), 0.0);
  EXPECT_GE(t.elapsed_s(), 0.0);
}

TEST(WallTimerTest, MinTimeMsRunsAllRepeats) {
  int count = 0;
  const double ms = min_time_ms(5, [&] { ++count; });
  EXPECT_EQ(count, 5);
  EXPECT_GE(ms, 0.0);
}

// ---------------------------------------------------------------------------
// Runtime plan cache: disk tier
// ---------------------------------------------------------------------------

/// A small deterministic DAG; `variant` perturbs the structure so tests
/// can produce distinct fingerprints on demand.
DependenceGraph test_dag(int variant = 0) {
  std::vector<std::vector<index_t>> preds = {
      {}, {0}, {0}, {1, 2}, {2}, {3, 4}, {5}, {5, 6}, {7}, {6, 8}};
  if (variant == 1) preds[9] = {8};
  if (variant == 2) preds[4] = {1, 2};
  return DependenceGraph::from_lists(preds);
}

/// Fresh empty directory under the gtest temp root.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rtl_plan_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The on-disk image path the disk tier uses for `g` under default
/// options on an `nproc`-wide Runtime.
std::string cache_path_for(const std::string& dir, const DependenceGraph& g,
                           int nproc) {
  return dir + "/" +
         plan_cache_file_name(g.fingerprint(), g.size(), g.num_edges(),
                              nproc, normalized_options({}));
}

TEST(RuntimeDiskCache, ColdMissWritesImageWarmProcessDiskHits) {
  const std::string dir = fresh_cache_dir("cold_warm");
  const auto g = test_dag();
  std::uint64_t fingerprint = 0;
  {
    Runtime rt(2, 8, dir);
    const auto plan = rt.plan_for(test_dag());
    fingerprint = plan->fingerprint();
    const auto c = rt.plan_cache_counters();
    EXPECT_EQ(c.misses, 1u);  // the one inspector run
    EXPECT_EQ(c.disk_misses, 1u);
    EXPECT_EQ(c.disk_writes, 1u);
    EXPECT_EQ(c.disk_hits, 0u);
    EXPECT_EQ(c.disk_rejects, 0u);
    EXPECT_TRUE(std::filesystem::exists(cache_path_for(dir, g, 2)));
    // Second call in the same process: memory hit, disk untouched.
    (void)rt.plan_for(test_dag());
    EXPECT_EQ(rt.plan_cache_counters().hits, 1u);
    EXPECT_EQ(rt.plan_cache_counters().disk_misses, 1u);
  }
  // A second Runtime ("second process"): the memory LRU is empty, so the
  // lookup falls to the disk tier — and must NOT run the inspector.
  Runtime rt2(2, 8, dir);
  const auto plan = rt2.plan_for(test_dag());
  EXPECT_EQ(plan->fingerprint(), fingerprint);
  const auto c = rt2.plan_cache_counters();
  EXPECT_EQ(c.misses, 0u) << "disk hit must skip the inspector";
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.disk_writes, 0u);
  // The disk-loaded plan was promoted into the memory LRU.
  (void)rt2.plan_for(test_dag());
  EXPECT_EQ(rt2.plan_cache_counters().hits, 1u);
  EXPECT_EQ(rt2.plan_cache_counters().disk_hits, 1u);
}

TEST(RuntimeDiskCache, CorruptImageIsRejectedReinspectedAndOverwritten) {
  const std::string dir = fresh_cache_dir("corrupt");
  const auto g = test_dag();
  {
    Runtime rt(2, 8, dir);
    (void)rt.plan_for(test_dag());
  }
  const std::string path = cache_path_for(dir, g, 2);
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    // Truncate the image mid-payload: a classic partial write.
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "RTLPLAN";  // valid-looking prefix, hopelessly short
  }
  Runtime rt(2, 8, dir);
  const auto plan = rt.plan_for(test_dag());
  EXPECT_EQ(plan->fingerprint(), g.fingerprint());
  const auto c = rt.plan_cache_counters();
  EXPECT_EQ(c.disk_rejects, 1u);
  EXPECT_EQ(c.misses, 1u) << "rejected image must fall back to the inspector";
  EXPECT_EQ(c.disk_writes, 1u) << "re-inspected plan must replace the image";
  // The replacement is valid: a third Runtime disk-hits.
  Runtime rt3(2, 8, dir);
  (void)rt3.plan_for(test_dag());
  EXPECT_EQ(rt3.plan_cache_counters().disk_hits, 1u);
  EXPECT_EQ(rt3.plan_cache_counters().misses, 0u);
}

TEST(RuntimeDiskCache, ForeignValidImageUnderWrongNameIsRejected) {
  // A structurally valid image filed under another structure's name (e.g.
  // a bad copy or a hash collision in a hand-managed directory) passes
  // load_plan but must fail the Runtime's key check.
  const std::string dir = fresh_cache_dir("foreign");
  {
    Runtime rt(2, 8, dir);
    (void)rt.plan_for(test_dag(1));  // writes variant 1's image
  }
  const auto g1 = test_dag(1);
  const auto g = test_dag();
  ASSERT_NE(g1.fingerprint(), g.fingerprint());
  std::filesystem::copy_file(cache_path_for(dir, g1, 2),
                             cache_path_for(dir, g, 2));
  Runtime rt(2, 8, dir);
  const auto plan = rt.plan_for(test_dag());
  EXPECT_EQ(plan->fingerprint(), g.fingerprint());
  const auto c = rt.plan_cache_counters();
  EXPECT_EQ(c.disk_rejects, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(RuntimeDiskCache, NoDirectoryMeansPurelyInMemoryBehavior) {
  Runtime rt(2, 8, std::string());
  (void)rt.plan_for(test_dag());
  (void)rt.plan_for(test_dag());
  (void)rt.plan_for(test_dag(1));
  const auto c = rt.plan_cache_counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.disk_hits, 0u);
  EXPECT_EQ(c.disk_misses, 0u);
  EXPECT_EQ(c.disk_writes, 0u);
  EXPECT_EQ(c.disk_rejects, 0u);
}

TEST(RuntimeDiskCache, DefaultDirComesFromEnvironment) {
  const char* saved = std::getenv("RTL_PLAN_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("RTL_PLAN_CACHE_DIR", "/some/cache/dir", 1);
  EXPECT_EQ(Runtime::default_plan_cache_dir(), "/some/cache/dir");
  ::unsetenv("RTL_PLAN_CACHE_DIR");
  EXPECT_EQ(Runtime::default_plan_cache_dir(), "");
  if (saved != nullptr) {
    ::setenv("RTL_PLAN_CACHE_DIR", saved_value.c_str(), 1);
  }
}

TEST(RuntimeDiskCache, UnwritableDirectoryDoesNotFailTheSolve) {
  // A read-only (or otherwise unusable) cache path must degrade to
  // memory-only caching, not break plan_for.
  Runtime rt(2, 8, "/proc/no_such_cache_dir");
  const auto plan = rt.plan_for(test_dag());
  ASSERT_NE(plan, nullptr);
  const auto c = rt.plan_cache_counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.disk_writes, 0u);
}

TEST(RuntimeAdoptPlan, AdoptedPlanServesPlanForWithoutInspector) {
  const std::string dir = fresh_cache_dir("adopt");
  // Produce a serialized plan, as `solver_cli --save-plan` would.
  std::shared_ptr<const Plan> external;
  {
    Runtime rt(2, 8, dir);
    (void)rt.plan_for(test_dag());
  }
  external = load_plan_file(cache_path_for(dir, test_dag(), 2));
  ASSERT_NE(external, nullptr);

  Runtime rt(2, 8, std::string());
  rt.adopt_plan(external);
  const auto plan = rt.plan_for(test_dag());
  EXPECT_EQ(plan.get(), external.get()) << "adopted plan must be returned";
  const auto c = rt.plan_cache_counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 0u);
}

TEST(RuntimeAdoptPlan, RejectsNullAndWrongProcessorCount) {
  Runtime rt2(2, 8, std::string());
  Runtime rt3(3, 8, std::string());
  EXPECT_THROW(rt2.adopt_plan(nullptr), std::invalid_argument);
  const auto plan = rt2.plan_for(test_dag());
  EXPECT_THROW(rt3.adopt_plan(plan), std::invalid_argument);
  // Adoption into a same-width Runtime is fine.
  Runtime other2(2, 8, std::string());
  other2.adopt_plan(plan);
  EXPECT_EQ(other2.plan_for(test_dag()).get(), plan.get());
}

TEST(RuntimeDiskCache, ConcurrentRuntimesSharingOneDirectoryStaySane) {
  // Two Runtimes in one process hammer the same directory over the same
  // three structures. Runs under the TSan CI job: the atomic temp+rename
  // publish and the per-Runtime mutexes must keep every image complete
  // and every returned plan valid, whatever the interleaving.
  const std::string dir = fresh_cache_dir("concurrent");
  auto worker = [&dir] {
    Runtime rt(2, 8, dir);
    for (int rep = 0; rep < 3; ++rep) {
      for (int v = 0; v < 3; ++v) {
        const auto plan = rt.plan_for(test_dag(v));
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->fingerprint(), test_dag(v).fingerprint());
      }
    }
    const auto c = rt.plan_cache_counters();
    // Whatever the race outcome, every lookup was served and nothing was
    // rejected (only complete images are ever visible under the final
    // name).
    EXPECT_EQ(c.disk_rejects, 0u);
    // Every lookup is exactly one of: memory hit, disk hit, inspector run.
    EXPECT_EQ(c.hits + c.misses + c.disk_hits, 9u);
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  // Afterwards the directory serves a fresh Runtime entirely from disk.
  Runtime rt(2, 8, dir);
  for (int v = 0; v < 3; ++v) (void)rt.plan_for(test_dag(v));
  EXPECT_EQ(rt.plan_cache_counters().misses, 0u);
  EXPECT_EQ(rt.plan_cache_counters().disk_hits, 3u);
}

// ---------------------------------------------------------------------------
// Plan cache ↔ bound-kernel lifetime
// ---------------------------------------------------------------------------

/// Unit-lower CSR over `g`'s dependence edges with deterministic values —
/// a bindable forward-substitution matrix for the kernel-lifetime tests.
CsrMatrix lower_for_dag(const DependenceGraph& g) {
  std::vector<index_t> ptr{0};
  std::vector<index_t> col;
  std::vector<real_t> val;
  for (index_t i = 0; i < g.size(); ++i) {
    for (const index_t d : g.deps(i)) {
      col.push_back(d);
      val.push_back(0.25 + 0.5 * static_cast<real_t>((i + d) % 3));
    }
    ptr.push_back(static_cast<index_t>(col.size()));
  }
  return {g.size(), g.size(), std::move(ptr), std::move(col),
          std::move(val)};
}

TEST(RuntimeCacheKernelLifetime, EvictedPlansKeepLiveKernelsSolving) {
  // A BoundKernel co-owns its plan. LRU eviction (capacity 1 here) drops
  // only the cache's reference: a live kernel must keep solving with the
  // same bits — any dangle is a use-after-free the ASan job turns into a
  // hard failure.
  Runtime rt(2, /*plan_cache_capacity=*/1, /*cache_dir=*/"");
  const auto g = test_dag();
  const CsrMatrix lower = lower_for_dag(g);
  auto kernel = BoundKernel::lower(rt.plan_for(test_dag()), lower);

  std::vector<real_t> rhs(static_cast<std::size_t>(g.size()), 1.0);
  std::vector<real_t> before(rhs.size());
  kernel.solve(rt.team(), rhs, before);
  std::vector<real_t> expected(rhs.size());
  solve_lower_unit(lower, rhs, expected);
  EXPECT_EQ(before, expected);

  // Churn the capacity-1 LRU with two other structures: the kernel's
  // plan is evicted (and the second insert evicts the first).
  (void)rt.plan_for(test_dag(1));
  (void)rt.plan_for(test_dag(2));
  EXPECT_GE(rt.plan_cache_counters().evictions, 2u);

  std::vector<real_t> after(rhs.size());
  kernel.solve(rt.team(), rhs, after);
  EXPECT_EQ(after, before);
}

TEST(RuntimeCacheKernelLifetime, DiskReloadedPlanKernelSolvesBitForBit) {
  // Warm start: a second Runtime serves the plan from the disk tier with
  // zero inspector runs, and a kernel bound to the RELOADED plan solves
  // bit-for-bit like the original process's kernel, single-RHS and
  // batched.
  const std::string dir = fresh_cache_dir("kernel_reload");
  const auto g = test_dag();
  const CsrMatrix lower = lower_for_dag(g);
  const index_t n = g.size();
  const index_t k = 4;
  std::vector<real_t> rhs(static_cast<std::size_t>(n), 1.0);
  BatchBuffer brhs(n, k);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> col(rhs.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = 1.0 + 0.25 * static_cast<real_t>((i + 3 * (j + 1)) % 5);
    }
    brhs.set_column(j, col);
  }

  std::vector<real_t> first(rhs.size());
  BatchBuffer bfirst(n, k);
  {
    Runtime rt(2, 8, dir);
    auto kernel = BoundKernel::lower(rt.plan_for(test_dag()), lower);
    kernel.solve(rt.team(), rhs, first);
    kernel.solve(rt.team(), brhs.view(), bfirst.view());
    EXPECT_EQ(rt.plan_cache_counters().misses, 1u);
  }

  Runtime rt2(2, 8, dir);
  auto kernel2 = BoundKernel::lower(rt2.plan_for(test_dag()), lower);
  EXPECT_EQ(rt2.plan_cache_counters().misses, 0u)
      << "disk hit must skip the inspector";
  EXPECT_EQ(rt2.plan_cache_counters().disk_hits, 1u);
  std::vector<real_t> second(rhs.size());
  BatchBuffer bsecond(n, k);
  kernel2.solve(rt2.team(), rhs, second);
  kernel2.solve(rt2.team(), brhs.view(), bsecond.view());
  EXPECT_EQ(second, first);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(bsecond.view().at(i, j), bfirst.view().at(i, j))
          << "col=" << j << " row=" << i;
    }
  }
}

}  // namespace
}  // namespace rtl
