#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/plan.hpp"
#include "runtime/thread_team.hpp"

/// The Runtime execution context of the Plan/Runtime API v2.
///
/// A `Runtime` owns the thread team (the paper's "multiprocessor") and a
/// cache of inspector artifacts keyed by dependence *structure*, so that
/// repeated factorizations / solves with unchanged sparsity pay the
/// inspector exactly once per (structure, options) pair — the paper's
/// amortization argument (§5.1.1) made into a service-level guarantee. The
/// solver components (`ParallelTriangularSolver`, `IluPreconditioner`, the
/// Krylov drivers) are built on it; heavy concurrent traffic can share one
/// Runtime's plans across threads because `Plan::execute` is const (each
/// concurrent execution still needs its own team).
///
/// The cache is bounded (LRU): a long-lived service cycling through many
/// distinct structures evicts the least-recently-used plan instead of
/// growing without limit. Callers holding a `shared_ptr` to an evicted
/// plan keep it alive and executable; only the cache entry is dropped.
///
/// The memory LRU may be backed by an on-disk plan-cache directory
/// (`RTL_PLAN_CACHE_DIR` or the constructor argument): a memory miss first
/// consults the directory for a serialized plan (core/plan_io format) and
/// only runs the inspector when no valid image exists; freshly inspected
/// plans are written back atomically (temp file + rename), so one
/// inspector run serves every process — and every host sharing the
/// directory — that sees the same structure. Lookup order is therefore
/// memory LRU → disk → inspector. Corrupt, truncated, or mismatched
/// images are rejected (counted in `CacheCounters::disk_rejects`) and
/// re-inspected; they are never executed.
namespace rtl {

class Runtime {
 public:
  /// Cache bound used when the constructor is not given one explicitly:
  /// the `RTL_PLAN_CACHE_CAP` environment variable when set to a
  /// non-negative integer, else 64 entries.
  [[nodiscard]] static std::size_t default_plan_cache_capacity();

  /// Disk tier used when the constructor is not given one explicitly: the
  /// `RTL_PLAN_CACHE_DIR` environment variable, else "" (no disk tier —
  /// behavior identical to a purely in-memory cache).
  [[nodiscard]] static std::string default_plan_cache_dir();

  /// Spawn a team of `num_threads` members and an empty plan cache
  /// holding at most `plan_cache_capacity` entries (0 disables caching:
  /// every `plan_for` builds and returns an uncached plan). A non-empty
  /// `plan_cache_dir` enables the on-disk tier (created on first write).
  explicit Runtime(int num_threads)
      : Runtime(num_threads, default_plan_cache_capacity()) {}
  Runtime(int num_threads, std::size_t plan_cache_capacity)
      : Runtime(num_threads, plan_cache_capacity, default_plan_cache_dir()) {}
  Runtime(int num_threads, std::size_t plan_cache_capacity,
          std::string plan_cache_dir)
      : team_(num_threads),
        capacity_(plan_cache_capacity),
        dir_(std::move(plan_cache_dir)) {}

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The owned thread team. `ThreadTeam::run` is not itself concurrent-
  /// safe: at most one execution may use this team at a time (spin up
  /// separate teams for concurrent executions of a shared plan).
  [[nodiscard]] ThreadTeam& team() noexcept { return team_; }

  /// Team size (the processor count every cached plan targets).
  [[nodiscard]] int size() const noexcept { return team_.size(); }

  /// Maximum number of cached plans (0 = caching disabled).
  [[nodiscard]] std::size_t plan_cache_capacity() const noexcept {
    return capacity_;
  }

  /// On-disk plan-cache directory ("" = disk tier disabled).
  [[nodiscard]] const std::string& plan_cache_dir() const noexcept {
    return dir_;
  }

  /// Return the cached plan for `graph`'s structure under `options`, or
  /// run the inspector and cache the result. The key is (structure
  /// fingerprint, vertex count, edge count, normalized options) — the team
  /// size is part of the key implicitly, since a Runtime builds every plan
  /// for its one fixed-size team. On a hit the inspector is skipped
  /// entirely and `graph` is discarded; a hit also refreshes the entry's
  /// LRU position. A memory miss with a disk tier configured consults the
  /// directory next (a valid image also skips the inspector and is
  /// promoted into the LRU); only then does the inspector run, and its
  /// result is written back to the directory atomically. `misses` counts
  /// exactly the inspector runs. A miss that overflows the capacity
  /// evicts the least-recently-used entry. Thread-safe; on concurrent
  /// misses, builds serialize on the cache mutex (the inspector may use
  /// the owned team).
  [[nodiscard]] std::shared_ptr<const Plan> plan_for(
      DependenceGraph graph, DoconsiderOptions options = {});

  /// Insert an externally obtained plan (typically `rtl::load_plan`) into
  /// the in-memory cache, keyed by its own structure and options, so
  /// subsequent `plan_for` calls for that structure hit without ever
  /// running the inspector — the scriptable warm start of
  /// `solver_cli --load-plan`. Throws `std::invalid_argument` when `plan`
  /// is null or was compiled for a different processor count than this
  /// Runtime's team. No-op when caching is disabled (capacity 0).
  void adopt_plan(std::shared_ptr<const Plan> plan);

  /// Cache observability: lifetime counts and current entries. `hits` /
  /// `misses` / `evictions` describe the in-memory LRU (`misses` ==
  /// inspector runs); the `disk_*` counters describe the optional disk
  /// tier — memory misses served from disk (`disk_hits`), consulted but
  /// absent (`disk_misses`), images written back (`disk_writes`), and
  /// invalid images rejected and re-inspected (`disk_rejects`). All zero
  /// when no directory is configured.
  struct CacheCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_rejects = 0;
  };
  [[nodiscard]] CacheCounters plan_cache_counters() const;

  /// One-call observability snapshot for services built on a Runtime:
  /// the plan-cache counters, the team's accumulated synchronization-event
  /// counters, and the team size, read together. `cache.misses` is exactly
  /// the number of inspector runs — the number a warm-started service
  /// reports as zero. Thread-safe; the exec counters follow the relaxed
  /// between-regions contract of `ThreadTeam::exec_counters`.
  struct Metrics {
    CacheCounters cache;
    ExecCounters exec;
    int team_size = 0;
  };
  [[nodiscard]] Metrics metrics_snapshot() const;

  /// Drop every cached plan (shared_ptrs held by callers stay valid).
  /// Does not count as evictions — those are capacity pressure.
  void clear_plan_cache();

 private:
  struct PlanKey {
    std::uint64_t fingerprint;
    index_t n;
    index_t edges;
    SchedulingPolicy scheduling;
    ExecutionPolicy execution;
    bool instrumented;

    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const noexcept;
  };

  /// LRU order: front = most recently used. The map indexes into the list
  /// so hit/refresh/evict are all O(1).
  using LruList = std::list<std::pair<PlanKey, std::shared_ptr<const Plan>>>;

  /// Insert (or refresh) an entry, evicting past capacity. mutex_ held.
  void insert_locked(const PlanKey& key, std::shared_ptr<const Plan> plan);
  /// Disk-tier lookup for `key`. mutex_ held; returns nullptr on miss or
  /// reject (counters updated accordingly).
  std::shared_ptr<const Plan> disk_lookup_locked(const PlanKey& key);
  /// Atomic write-back of a freshly inspected plan. mutex_ held.
  void disk_store_locked(const PlanKey& key, const Plan& plan);

  ThreadTeam team_;
  const std::size_t capacity_;
  const std::string dir_;
  mutable std::mutex mutex_;
  LruList lru_;
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> cache_;
  std::uint64_t hits_ = 0;          // guarded by mutex_
  std::uint64_t misses_ = 0;        // guarded by mutex_
  std::uint64_t evictions_ = 0;     // guarded by mutex_
  std::uint64_t disk_hits_ = 0;     // guarded by mutex_
  std::uint64_t disk_misses_ = 0;   // guarded by mutex_
  std::uint64_t disk_writes_ = 0;   // guarded by mutex_
  std::uint64_t disk_rejects_ = 0;  // guarded by mutex_
};

}  // namespace rtl
