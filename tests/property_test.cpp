// Property-based tests: invariants that must hold for randomly generated
// dependence structures, schedules and executions, swept over parameter
// grids with TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <random>
#include <type_traits>

#include "core/analysis.hpp"
#include "core/plan.hpp"
#include "graph/wavefront.hpp"
#include "kernel/batch.hpp"
#include "kernel/bound_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/triangular.hpp"
#include "test_rng.hpp"
#include "workload/synthetic.hpp"

namespace rtl {
namespace {

using test_rng::seed_trace;
using test_rng::test_seed;

/// Random forward-only DAG: each iteration depends on up to `max_deg`
/// uniformly chosen earlier iterations.
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

// GoogleTest names each case after the bytes of its parameter, so the struct
// must have no padding: uninitialised padding bytes gave a case a different
// name on every run. `zero` fills the gap in front of `seed`.
struct PropertyParam {
  index_t n;
  int max_deg;
  int nproc;
  std::int32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PropertyParam>);

class DagPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(DagPropertyTest, WavefrontIsMinimalLevelAssignment) {
  // wave[i] == 0 iff no deps; otherwise exactly 1 + max(wave[deps]).
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  for (index_t i = 0; i < g.size(); ++i) {
    index_t expect = 0;
    for (const index_t d : g.deps(i)) {
      expect = std::max(expect, wf.wave[static_cast<std::size_t>(d)] + 1);
    }
    EXPECT_EQ(wf.wave[static_cast<std::size_t>(i)], expect);
  }
}

TEST_P(DagPropertyTest, WavefrontCountEqualsLongestPath) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  // Longest dependence chain computed independently by DP.
  std::vector<index_t> depth(static_cast<std::size_t>(g.size()), 0);
  index_t longest = 0;
  for (index_t i = 0; i < g.size(); ++i) {
    for (const index_t d : g.deps(i)) {
      depth[static_cast<std::size_t>(i)] =
          std::max(depth[static_cast<std::size_t>(i)],
                   depth[static_cast<std::size_t>(d)] + 1);
    }
    longest = std::max(longest, depth[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(wf.num_waves, g.size() == 0 ? 0 : longest + 1);
}

TEST_P(DagPropertyTest, SchedulesAreAlwaysValid) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  validate_schedule(global_schedule(wf, p.nproc), wf);
  validate_schedule(contiguous_schedule(wf, p.nproc), wf);
  validate_schedule(local_schedule(wf, wrapped_partition(g.size(), p.nproc)),
                    wf);
  validate_schedule(local_schedule(wf, block_partition(g.size(), p.nproc)),
                    wf);
}

TEST_P(DagPropertyTest, GlobalScheduleBalancesPhasesWithinOne) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  for (const auto& s :
       {global_schedule(wf, p.nproc), contiguous_schedule(wf, p.nproc)}) {
    for (index_t w = 0; w < s.num_phases; ++w) {
      index_t lo = s.n, hi = 0;
      for (int q = 0; q < p.nproc; ++q) {
        const index_t c = static_cast<index_t>(s.phase(q, w).size());
        lo = std::min(lo, c);
        hi = std::max(hi, c);
      }
      EXPECT_LE(hi - lo, 1);
    }
  }
}

TEST_P(DagPropertyTest, ExecutionOrderRespectsDependences) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  ThreadTeam team(p.nproc);
  DoconsiderOptions opts;
  opts.scheduling = SchedulingPolicy::kLocalWrapped;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  const Plan plan(team, DependenceGraph(g), opts);
  std::atomic<long> clock{0};
  std::vector<long> stamp(static_cast<std::size_t>(g.size()), -1);
  plan.execute(team, [&](index_t i) {
    stamp[static_cast<std::size_t>(i)] = clock.fetch_add(1);
  });
  for (index_t i = 0; i < g.size(); ++i) {
    for (const index_t d : g.deps(i)) {
      ASSERT_LT(stamp[static_cast<std::size_t>(d)],
                stamp[static_cast<std::size_t>(i)]);
    }
  }
}

/// Naive jagged reference construction of a schedule: per-processor
/// vector-of-vectors built exactly as the paper describes the policies —
/// global = stable-sort the whole index set by wavefront and deal wrapped;
/// local = fixed wrapped/block assignment, each processor's list stably
/// sorted by wavefront — with *local* per-processor phase offsets. The
/// flat CSR layout must reproduce it iteration-for-iteration. `contiguous`
/// switches the global deal to the point-to-point executor's: each
/// wavefront of the sorted list cut into nproc contiguous chunks, the
/// first (size mod nproc) one longer.
struct JaggedSchedule {
  std::vector<std::vector<index_t>> order;
  std::vector<std::vector<index_t>> phase_ptr;  // local offsets per proc
};

JaggedSchedule jagged_reference(const WavefrontInfo& wf,
                                SchedulingPolicy policy, int nproc,
                                bool contiguous) {
  const index_t n = wf.size();
  JaggedSchedule j;
  j.order.resize(static_cast<std::size_t>(nproc));
  if (policy == SchedulingPolicy::kGlobal) {
    std::vector<index_t> list(static_cast<std::size_t>(n));
    std::iota(list.begin(), list.end(), 0);
    std::stable_sort(list.begin(), list.end(),
                     [&](index_t a, index_t b) {
                       return wf.wave[static_cast<std::size_t>(a)] <
                              wf.wave[static_cast<std::size_t>(b)];
                     });
    if (contiguous) {
      std::size_t begin = 0;
      while (begin < list.size()) {
        const index_t w = wf.wave[static_cast<std::size_t>(list[begin])];
        std::size_t end = begin;
        while (end < list.size() &&
               wf.wave[static_cast<std::size_t>(list[end])] == w) {
          ++end;
        }
        const std::size_t m = end - begin;
        const std::size_t base = m / static_cast<std::size_t>(nproc);
        const std::size_t extra = m % static_cast<std::size_t>(nproc);
        std::size_t k = begin;
        for (int p = 0; p < nproc; ++p) {
          const std::size_t len =
              base + (static_cast<std::size_t>(p) < extra ? 1 : 0);
          for (std::size_t t = 0; t < len; ++t) {
            j.order[static_cast<std::size_t>(p)].push_back(list[k++]);
          }
        }
        begin = end;
      }
    } else {
      for (index_t k = 0; k < n; ++k) {
        j.order[static_cast<std::size_t>(k % nproc)].push_back(
            list[static_cast<std::size_t>(k)]);
      }
    }
  } else {
    std::vector<int> owner(static_cast<std::size_t>(n));
    if (policy == SchedulingPolicy::kLocalWrapped) {
      for (index_t i = 0; i < n; ++i) {
        owner[static_cast<std::size_t>(i)] = static_cast<int>(i % nproc);
      }
    } else {
      for (int p = 0; p < nproc; ++p) {
        const BlockRange r = block_range(n, p, nproc);
        for (index_t i = r.begin; i < r.end; ++i) {
          owner[static_cast<std::size_t>(i)] = p;
        }
      }
    }
    for (index_t i = 0; i < n; ++i) {
      j.order[static_cast<std::size_t>(owner[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
    for (auto& mine : j.order) {
      std::stable_sort(mine.begin(), mine.end(),
                       [&](index_t a, index_t b) {
                         return wf.wave[static_cast<std::size_t>(a)] <
                                wf.wave[static_cast<std::size_t>(b)];
                       });
    }
  }
  j.phase_ptr.assign(static_cast<std::size_t>(nproc),
                     std::vector<index_t>(
                         static_cast<std::size_t>(wf.num_waves) + 1, 0));
  for (int p = 0; p < nproc; ++p) {
    auto& ptr = j.phase_ptr[static_cast<std::size_t>(p)];
    for (const index_t i : j.order[static_cast<std::size_t>(p)]) {
      ++ptr[static_cast<std::size_t>(wf.wave[static_cast<std::size_t>(i)]) +
            1];
    }
    for (std::size_t w = 0; w + 1 < ptr.size(); ++w) ptr[w + 1] += ptr[w];
  }
  return j;
}

TEST_P(DagPropertyTest, FlatScheduleMatchesJaggedReference) {
  // The CSR-layout schedule (one order array + proc_ptr/phase_ptr) must be
  // iteration-for-iteration identical to the naive jagged construction for
  // every scheduling policy — the wrapped and the contiguous global deal
  // included — and processor count.
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  const struct {
    SchedulingPolicy policy;
    bool contiguous;
  } cases[] = {{SchedulingPolicy::kGlobal, false},
               {SchedulingPolicy::kGlobal, true},
               {SchedulingPolicy::kLocalWrapped, false},
               {SchedulingPolicy::kLocalBlock, false}};
  for (const auto& [policy, contiguous] : cases) {
    for (int nproc = 1; nproc <= 8; ++nproc) {
      Schedule s;
      switch (policy) {
        case SchedulingPolicy::kGlobal:
          s = contiguous ? contiguous_schedule(wf, nproc)
                         : global_schedule(wf, nproc);
          break;
        case SchedulingPolicy::kLocalWrapped:
          s = local_schedule(wf, wrapped_partition(g.size(), nproc));
          break;
        case SchedulingPolicy::kLocalBlock:
          s = local_schedule(wf, block_partition(g.size(), nproc));
          break;
      }
      const auto j = jagged_reference(wf, policy, nproc, contiguous);
      ASSERT_EQ(s.nproc, nproc);
      ASSERT_EQ(s.num_phases, wf.num_waves);
      for (int p = 0; p < nproc; ++p) {
        const auto flat = s.proc(p);
        const auto& ref = j.order[static_cast<std::size_t>(p)];
        ASSERT_EQ(std::vector<index_t>(flat.begin(), flat.end()), ref)
            << "policy=" << static_cast<int>(policy)
            << " contiguous=" << contiguous << " nproc=" << nproc
            << " p=" << p;
        const auto row = s.phase_row(p);
        const auto& jptr = j.phase_ptr[static_cast<std::size_t>(p)];
        ASSERT_EQ(row.size(), jptr.size());
        const index_t base = s.proc_ptr[static_cast<std::size_t>(p)];
        for (std::size_t w = 0; w < row.size(); ++w) {
          ASSERT_EQ(row[w] - base, jptr[w])
              << "policy=" << static_cast<int>(policy)
              << " contiguous=" << contiguous << " nproc=" << nproc
              << " p=" << p << " w=" << w;
        }
      }
    }
  }
}

TEST_P(DagPropertyTest, SlabWaitsAreSufficientMinimalAndAcyclic) {
  // The point-to-point wait lists, replayed per processor: every wait
  // names another processor and a strictly earlier phase (deadlock
  // freedom), raises what the processor has already waited for from that
  // producer (no redundant wait), and before each slab runs every
  // cross-processor dependence of its rows is covered. Checked on the
  // contiguous deal and a local partition, and on a 300-processor team
  // (more processors than a one-byte owner map can name).
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  for (const int nproc : {param.nproc, 300}) {
    for (const auto& s :
         {contiguous_schedule(wf, nproc),
          local_schedule(wf, wrapped_partition(g.size(), nproc))}) {
      const SlabWaits waits = slab_waits(g, wf, s);
      const auto phases = static_cast<std::size_t>(s.num_phases);
      ASSERT_EQ(waits.ptr.size(), static_cast<std::size_t>(nproc) * phases + 1);
      ASSERT_EQ(static_cast<std::size_t>(waits.ptr.back()), waits.waits.size());
      std::vector<int> owner(static_cast<std::size_t>(g.size()));
      for (int p = 0; p < nproc; ++p) {
        for (const index_t i : s.proc(p)) {
          owner[static_cast<std::size_t>(i)] = p;
        }
      }
      for (int p = 0; p < nproc; ++p) {
        std::vector<index_t> seen(static_cast<std::size_t>(nproc), -1);
        const index_t* row = waits.row(p);
        for (index_t w = 0; w < s.num_phases; ++w) {
          const auto ws = static_cast<std::size_t>(w);
          ASSERT_LE(row[ws], row[ws + 1]);
          for (index_t k = row[ws]; k < row[ws + 1]; ++k) {
            const SlabWait& wt = waits.waits[static_cast<std::size_t>(k)];
            ASSERT_NE(wt.proc, p);
            ASSERT_GE(wt.proc, 0);
            ASSERT_LT(wt.proc, nproc);
            ASSERT_GE(wt.phase, 0);
            ASSERT_LT(wt.phase, w);
            ASSERT_GT(wt.phase, seen[static_cast<std::size_t>(wt.proc)]);
            seen[static_cast<std::size_t>(wt.proc)] = wt.phase;
          }
          for (const index_t i : s.phase(p, w)) {
            for (const index_t d : g.deps(i)) {
              const int q = owner[static_cast<std::size_t>(d)];
              if (q == p) continue;
              ASSERT_LE(wf.wave[static_cast<std::size_t>(d)],
                        seen[static_cast<std::size_t>(q)])
                  << "nproc=" << nproc << " p=" << p << " w=" << w
                  << " row=" << i << " dep=" << d;
            }
          }
        }
      }
    }
  }
}

TEST_P(DagPropertyTest, RecurrenceResultIndependentOfPolicy) {
  // Evaluate x(i) = 1 + sum over deps of 0.5 x(d) / |deps| under every
  // policy combination; all must equal the sequential result bit-for-bit
  // (same operand order per iteration).
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  ThreadTeam team(p.nproc);

  std::vector<real_t> ref(static_cast<std::size_t>(g.size()));
  for (index_t i = 0; i < g.size(); ++i) {
    real_t v = 1.0;
    const auto deps = g.deps(i);
    for (const index_t d : deps) {
      v += 0.5 * ref[static_cast<std::size_t>(d)] /
           static_cast<real_t>(deps.size());
    }
    ref[static_cast<std::size_t>(i)] = v;
  }

  for (const auto sched :
       {SchedulingPolicy::kGlobal, SchedulingPolicy::kLocalWrapped,
        SchedulingPolicy::kLocalBlock}) {
    for (const auto exec :
         {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
          ExecutionPolicy::kDoAcross, ExecutionPolicy::kPointToPoint}) {
      std::vector<real_t> x(static_cast<std::size_t>(g.size()), 0.0);
      DoconsiderOptions opts;
      opts.scheduling = sched;
      opts.execution = exec;
      DependenceGraph copy = g;
      doconsider(
          team, std::move(copy),
          [&](index_t i) {
            real_t v = 1.0;
            const auto deps = g.deps(i);
            for (const index_t d : deps) {
              v += 0.5 * x[static_cast<std::size_t>(d)] /
                   static_cast<real_t>(deps.size());
            }
            x[static_cast<std::size_t>(i)] = v;
          },
          opts);
      ASSERT_EQ(x, ref);
    }
  }
}

/// Strictly-lower-triangular matrix whose structure realizes the DAG:
/// row i stores an entry (i, d) for every dependence d, with
/// deterministic pseudo-random values. `lower_solve_dependences` of this
/// matrix is exactly the DAG, so a plan built from the DAG binds to it.
CsrMatrix lower_matrix_from_dag(const DependenceGraph& g,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  std::vector<index_t> ptr{0};
  std::vector<index_t> col;
  std::vector<real_t> val;
  for (index_t i = 0; i < g.size(); ++i) {
    for (const index_t d : g.deps(i)) {  // already sorted ascending
      col.push_back(d);
      val.push_back(dist(rng));
    }
    ptr.push_back(static_cast<index_t>(col.size()));
  }
  return {g.size(), g.size(), std::move(ptr), std::move(col),
          std::move(val)};
}

TEST_P(DagPropertyTest, BatchedKernelSolveIsBitForBitKSingleSolves) {
  // The acceptance property of the kernel layer: a batched solve with k
  // right-hand sides equals k single-RHS solves bit-for-bit, and every
  // single solve equals the sequential Figure 8 loop (sparse/triangular),
  // under every executor, the three scheduling policies, every processor
  // count 1..8 and k in {1, 4, 16}. The batched bodies run their lanes under
  // `omp simd` and the single-RHS bodies are scalar, so this is also the
  // SIMD pin: one differing bit means a lane loop reordered arithmetic
  // or an executor ran a row before its dependences.
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  const CsrMatrix lower = lower_matrix_from_dag(g, seed ^ 0xbeef);
  const index_t n = g.size();
  const auto nz = static_cast<std::size_t>(n);
  constexpr index_t kMaxWidth = 16;

  // kMaxWidth right-hand sides and their sequential solutions; a width-k
  // batch holds the first k of them.
  std::mt19937_64 rng(seed ^ 0xfeed);
  std::uniform_real_distribution<real_t> dist(-10.0, 10.0);
  std::vector<std::vector<real_t>> cols(kMaxWidth, std::vector<real_t>(nz));
  std::vector<std::vector<real_t>> refs(kMaxWidth, std::vector<real_t>(nz));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    for (auto& v : cols[j]) v = dist(rng);
    solve_lower_unit(lower, cols[j], refs[j]);
  }

  const struct {
    ExecutionPolicy exec;
    SchedulingPolicy sched;
  } configs[] = {
      {ExecutionPolicy::kSelfExecuting, SchedulingPolicy::kGlobal},
      {ExecutionPolicy::kSelfExecuting, SchedulingPolicy::kLocalWrapped},
      {ExecutionPolicy::kSelfExecuting, SchedulingPolicy::kLocalBlock},
      {ExecutionPolicy::kPreScheduled, SchedulingPolicy::kGlobal},
      {ExecutionPolicy::kDoAcross, SchedulingPolicy::kGlobal},
      {ExecutionPolicy::kPointToPoint, SchedulingPolicy::kGlobal},
  };
  for (int nproc = 1; nproc <= 8; ++nproc) {
    ThreadTeam team(nproc);
    for (const auto& cfg : configs) {
      DoconsiderOptions opts;
      opts.execution = cfg.exec;
      opts.scheduling = cfg.sched;
      auto kernel = BoundKernel::lower(
          std::make_shared<const Plan>(team, DependenceGraph(g), opts),
          lower);

      std::vector<real_t> single(nz);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        kernel.solve(team, cols[j], single);
        for (std::size_t i = 0; i < nz; ++i) {
          ASSERT_EQ(single[i], refs[j][i])
              << "single exec=" << static_cast<int>(cfg.exec)
              << " sched=" << static_cast<int>(cfg.sched)
              << " nproc=" << nproc << " col=" << j << " row=" << i;
        }
      }
      for (const index_t k : {1, 4, 16}) {
        BatchBuffer rhs(n, k), got(n, k);
        for (index_t j = 0; j < k; ++j) {
          rhs.set_column(j, cols[static_cast<std::size_t>(j)]);
        }
        kernel.solve(team, rhs.view(), got.view());
        for (index_t j = 0; j < k; ++j) {
          for (index_t i = 0; i < n; ++i) {
            ASSERT_EQ(got.view().at(i, j),
                      refs[static_cast<std::size_t>(j)]
                          [static_cast<std::size_t>(i)])
                << "exec=" << static_cast<int>(cfg.exec)
                << " sched=" << static_cast<int>(cfg.sched)
                << " nproc=" << nproc << " k=" << k << " col=" << j
                << " row=" << i;
          }
        }
      }
    }
  }
}

TEST_P(DagPropertyTest, MixedPrecisionSolveSatisfiesDocumentedErrorModel) {
  // The mixed-precision pin is tolerance-bounded by construction: scale
  // each row of the random lower factor so its absolute sum is <= 1/2.
  // Float storage with double accumulation makes each row's error at
  // most u_f (1 + |x_i|) plus half the worst upstream error (the row-sum
  // bound), so the recurrence converges geometrically:
  //   e_i <= u_f (1 + max|x|) + e_max / 2   =>   e_max <= 2 u_f (1 + max|x|)
  // Tested at 16x the bound to absorb the rhs's own storage rounding
  // (u_f |b_i|, also covered by the same geometric argument) and the
  // double-accumulation dust.
  const auto param = GetParam();
  const std::uint64_t seed = test_seed(param.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(param.n, param.max_deg, seed);
  CsrMatrix lower = lower_matrix_from_dag(g, seed ^ 0xbeef);
  for (index_t i = 0; i < lower.rows(); ++i) {
    auto vals = lower.row_vals(i);
    real_t sum = 0.0;
    for (const real_t v : vals) sum += std::abs(v);
    if (sum > 0.5) {
      const real_t s = 0.5 / sum;
      for (auto& v : vals) v *= s;
    }
  }
  const index_t n = g.size();
  const index_t k = 4;

  ThreadTeam team(param.nproc);
  auto kernel = BoundKernel::lower(
      std::make_shared<const Plan>(team, DependenceGraph(g)), lower);

  BatchBuffer rd(n, k), xd(n, k);
  BatchBufferF rf(n, k), xf(n, k);
  std::mt19937_64 rng(seed ^ 0xf10a);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  for (index_t j = 0; j < k; ++j) {
    std::vector<real_t> colv(static_cast<std::size_t>(n));
    for (auto& v : colv) v = dist(rng);
    rd.set_column(j, colv);
  }
  // Float-rounded rhs on both sides: the pin isolates the solve's
  // storage precision.
  convert_batch(static_cast<ConstBatchView>(rd.view()), rf.view());
  convert_batch(static_cast<ConstBatchViewF>(rf.view()), rd.view());
  kernel.solve(team, rd.view(), xd.view());
  kernel.solve(team, rf.view(), xf.view());

  real_t xmax = 0.0;
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      xmax = std::max(xmax, std::abs(xd.view().at(i, j)));
    }
  }
  constexpr double uf = 1.0 / 16777216.0;  // 2^-24
  const double bound = 16.0 * (2.0 * uf * (1.0 + xmax));
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(static_cast<double>(xf.view().at(i, j)),
                  xd.view().at(i, j), bound)
          << "col=" << j << " row=" << i << " xmax=" << xmax;
    }
  }
}

TEST_P(DagPropertyTest, SymbolicSelfNeverSlowerThanPreScheduled) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  const auto work = row_substitution_work(g);
  const auto s = global_schedule(wf, p.nproc);
  const auto pre = estimate_prescheduled(s, work);
  const auto self = estimate_self_executing(s, g, work);
  EXPECT_LE(self.parallel_work, pre.parallel_work + 1e-9);
}

TEST_P(DagPropertyTest, MakespanBounds) {
  // Any estimate lies between total/p (perfect speedup) and total work.
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  const auto wf = compute_wavefronts(g);
  const auto work = row_substitution_work(g);
  const double total = std::accumulate(work.begin(), work.end(), 0.0);
  for (const auto& s :
       {global_schedule(wf, p.nproc),
        local_schedule(wf, wrapped_partition(g.size(), p.nproc))}) {
    const auto pre = estimate_prescheduled(s, work);
    const auto self = estimate_self_executing(s, g, work);
    EXPECT_GE(pre.parallel_work + 1e-9, total / p.nproc);
    EXPECT_LE(pre.parallel_work, total + 1e-9);
    EXPECT_GE(self.parallel_work + 1e-9, total / p.nproc);
    EXPECT_LE(self.parallel_work, total + 1e-9);
  }
}

TEST_P(DagPropertyTest, ParallelInspectorMatchesSequential) {
  const auto p = GetParam();
  const std::uint64_t seed = test_seed(p.seed);
  SCOPED_TRACE(seed_trace(seed));
  const auto g = random_dag(p.n, p.max_deg, seed);
  ThreadTeam team(p.nproc);
  const auto seq = compute_wavefronts(g);
  const auto par = compute_wavefronts_parallel(g, team);
  EXPECT_EQ(seq.wave, par.wave);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, DagPropertyTest,
    ::testing::Values(
        PropertyParam{.n = 1, .max_deg = 1, .nproc = 1, .seed = 1},
        PropertyParam{.n = 2, .max_deg = 1, .nproc = 2, .seed = 2},
        PropertyParam{.n = 50, .max_deg = 1, .nproc = 3, .seed = 3},
        PropertyParam{.n = 50, .max_deg = 4, .nproc = 4, .seed = 4},
        PropertyParam{.n = 200, .max_deg = 2, .nproc = 8, .seed = 5},
        PropertyParam{.n = 200, .max_deg = 6, .nproc = 5, .seed = 6},
        PropertyParam{.n = 500, .max_deg = 3, .nproc = 16, .seed = 7},
        PropertyParam{.n = 911, .max_deg = 5, .nproc = 7, .seed = 8},
        PropertyParam{.n = 1024, .max_deg = 8, .nproc = 16, .seed = 9},
        PropertyParam{.n = 333, .max_deg = 1, .nproc = 2, .seed = 10}));

class SyntheticPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(SyntheticPropertyTest, GeneratedWorkloadsAreWellFormed) {
  const auto [mesh, lambda, dist] = GetParam();
  const std::uint64_t seed = test_seed(99);
  SCOPED_TRACE(seed_trace(seed));
  const SyntheticSpec spec{.mesh = static_cast<index_t>(mesh),
                           .lambda = lambda,
                           .mean_dist = dist,
                           .seed = seed};
  const auto g = synthetic_dependences(spec);
  EXPECT_EQ(g.size(), static_cast<index_t>(mesh) * mesh);
  EXPECT_TRUE(g.is_forward_only());
  const auto wf = compute_wavefronts(g);
  EXPECT_GE(wf.num_waves, 1);
  // Dependence edges per index can't exceed what Poisson sampled; just
  // sanity-bound the mean.
  const double mean_deg =
      static_cast<double>(g.num_edges()) / static_cast<double>(g.size());
  EXPECT_LT(mean_deg, lambda + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SyntheticPropertyTest,
    ::testing::Combine(::testing::Values(10, 33, 65),
                       ::testing::Values(1.0, 4.0, 8.0),
                       ::testing::Values(1.5, 3.0, 6.0)));

}  // namespace
}  // namespace rtl
