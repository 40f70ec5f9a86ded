// Microbenchmarks (google-benchmark) for the runtime primitives whose
// costs parameterize the §4.2 model: barrier episodes (T_synch), ready-
// flag set/check (T_inc / T_check), team dispatch, and the core kernels.
//
// A custom main replaces benchmark_main so results also flow through the
// rtl::bench JSON reporter (one record per benchmark, adjusted real time
// in the benchmark's own time unit) next to the usual console table.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "report.hpp"

#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "graph/wavefront.hpp"
#include "runtime/ready_flags.hpp"
#include "runtime/thread_team.hpp"
#include "sparse/ilu.hpp"
#include "sparse/parallel_ops.hpp"
#include "sparse/triangular.hpp"
#include "workload/stencil.hpp"

namespace {

using namespace rtl;

void BM_BarrierEpisode(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  ThreadTeam team(p);
  constexpr int kEpisodesPerIter = 64;
  for (auto _ : state) {
    team.run([&](int) {
      for (int k = 0; k < kEpisodesPerIter; ++k) {
        team.barrier().arrive_and_wait();
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kEpisodesPerIter);
}
BENCHMARK(BM_BarrierEpisode)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ReadyFlagSetCheck(benchmark::State& state) {
  ReadyFlags flags(1024);
  index_t i = 0;
  for (auto _ : state) {
    flags.set(i);
    benchmark::DoNotOptimize(flags.is_set(i));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_ReadyFlagSetCheck);

void BM_TeamDispatch(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  ThreadTeam team(p);
  for (auto _ : state) {
    team.run([](int) {});
  }
}
BENCHMARK(BM_TeamDispatch)->Arg(2)->Arg(8)->Arg(16);

void BM_SequentialLowerSolve(benchmark::State& state) {
  const auto sys = five_point(static_cast<index_t>(state.range(0)),
                              static_cast<index_t>(state.range(0)));
  IluFactorization ilu(sys.a, 0);
  ilu.factor(sys.a);
  std::vector<real_t> y(static_cast<std::size_t>(sys.a.rows()));
  for (auto _ : state) {
    solve_lower_unit(ilu.lower(), sys.rhs, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SequentialLowerSolve)->Arg(63)->Arg(127);

void BM_SelfExecutingLowerSolve(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto sys = five_point(63, 63);
  IluFactorization ilu(sys.a, 0);
  ilu.factor(sys.a);
  ThreadTeam team(p);
  DoconsiderOptions opts;
  opts.execution = ExecutionPolicy::kSelfExecuting;
  const Plan plan(team, lower_solve_dependences(ilu.lower()), opts);
  std::vector<real_t> y(static_cast<std::size_t>(plan.size()));
  const auto& lower = ilu.lower();
  for (auto _ : state) {
    plan.execute(team, [&](index_t i) {
      real_t sum = sys.rhs[static_cast<std::size_t>(i)];
      const auto cs = lower.row_cols(i);
      const auto vs = lower.row_vals(i);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        sum -= vs[k] * y[static_cast<std::size_t>(cs[k])];
      }
      y[static_cast<std::size_t>(i)] = sum;
    });
  }
}
BENCHMARK(BM_SelfExecutingLowerSolve)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_WavefrontSweep(benchmark::State& state) {
  const auto sys = five_point(127, 127);
  IluFactorization ilu(sys.a, 0);
  const auto g = lower_solve_dependences(ilu.lower());
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_wavefronts(g));
  }
}
BENCHMARK(BM_WavefrontSweep);

void BM_ParDot(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  ThreadTeam team(p);
  std::vector<real_t> x(1 << 20, 1.5), y(1 << 20, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(par_dot(team, x, y));
  }
}
BENCHMARK(BM_ParDot)->Arg(1)->Arg(8)->Arg(16);

/// Google Benchmark < 1.8 flags failed runs with `error_occurred`; 1.8
/// replaced the field with a `skipped` state. Detect the old field and
/// treat its absence as "not failed" (our benchmarks never skip).
template <class R>
auto run_errored(const R& r, int) -> decltype(r.error_occurred) {
  return r.error_occurred;
}
template <class R>
bool run_errored(const R&, long) {
  return false;
}

/// Console reporter that additionally collects per-run results keyed by
/// benchmark name, so `--benchmark_repetitions=N` folds into one JSON
/// record with N-rep stats instead of N duplicate (group, metric) keys.
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || run_errored(r, 0)) continue;
      Entry& e = samples_[r.benchmark_name()];
      e.unit = benchmark::GetTimeUnitString(r.time_unit);
      e.values.push_back(r.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void emit(rtl::bench::Reporter& out) const {
    for (const auto& [name, e] : samples_) {
      out.add("micro", name, rtl::bench::stats_from_samples(e.values),
              e.unit);
    }
  }

 private:
  struct Entry {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Entry> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rtl::bench::Reporter report("bench_micro");
  CollectingReporter display;
  benchmark::RunSpecifiedBenchmarks(&display);
  display.emit(report);
  benchmark::Shutdown();
  return 0;
}
