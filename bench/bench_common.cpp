#include "bench_common.hpp"

#include "model/calibration.hpp"

namespace rtl::bench {

namespace {

/// Forward-substitution body over the case's lower factor, writing into y.
/// The row update is recomputed `work_amp()` times behind a compiler
/// barrier to emulate the per-row cost of the paper's machine (see
/// bench_common.hpp).
template <class Exec>
void run_lower(const SolveCase& c, std::vector<real_t>& y, Exec&& exec) {
  const CsrMatrix& lower = c.ilu.lower();
  const auto& rhs = c.system.rhs;
  const int amp = work_amp();
  exec([&, lower_ptr = &lower](index_t i) {
    const CsrMatrix& l = *lower_ptr;
    const auto cs = l.row_cols(i);
    const auto vs = l.row_vals(i);
    real_t sum = 0.0;
    for (int rep = 0; rep < amp; ++rep) {
      sum = rhs[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < cs.size(); ++k) {
        sum -= vs[k] * y[static_cast<std::size_t>(cs[k])];
      }
      do_not_optimize(sum);
    }
    y[static_cast<std::size_t>(i)] = sum;
  });
}

}  // namespace

void do_not_optimize(real_t value) {
  asm volatile("" : : "g"(value) : "memory");
}

SolveCase::SolveCase(TestProblem prob)
    : name(std::move(prob.name)),
      system(std::move(prob.system)),
      ilu(system.a, 0),
      graph(lower_solve_dependences(ilu.lower())),
      wavefronts(compute_wavefronts(graph)),
      work(row_substitution_work(graph)) {
  ilu.factor(system.a);
}

std::vector<SolveCase> table23_cases() {
  std::vector<SolveCase> cases;
  cases.emplace_back(make_spe2());
  cases.emplace_back(make_spe5());
  cases.emplace_back(make_5pt());
  cases.emplace_back(make_9pt());
  cases.emplace_back(make_7pt());
  return cases;
}

Stats time_sequential_lower(const SolveCase& c, int reps) {
  // Same amplified body as the parallel runs, executed in natural row
  // order without any schedule indirection or synchronization traffic —
  // the "optimized sequential version".
  std::vector<real_t> y(static_cast<std::size_t>(c.graph.size()));
  const CsrMatrix& lower = c.ilu.lower();
  const int amp = work_amp();
  return measure_ms(reps, [&] {
    for (index_t i = 0; i < lower.rows(); ++i) {
      const auto cs = lower.row_cols(i);
      const auto vs = lower.row_vals(i);
      real_t sum = 0.0;
      for (int rep = 0; rep < amp; ++rep) {
        sum = c.system.rhs[static_cast<std::size_t>(i)];
        for (std::size_t k = 0; k < cs.size(); ++k) {
          sum -= vs[k] * y[static_cast<std::size_t>(cs[k])];
        }
        do_not_optimize(sum);
      }
      y[static_cast<std::size_t>(i)] = sum;
    }
  });
}

Stats time_lower(ThreadTeam& team, const SolveCase& c, const Plan& plan,
                 int reps) {
  std::vector<real_t> y(static_cast<std::size_t>(c.graph.size()));
  return measure_ms(reps, [&] {
    run_lower(c, y, [&](auto&& body) { plan.execute(team, body); });
  });
}

Stats time_one_pe_parallel(const SolveCase& c, DoconsiderOptions opts,
                           int reps) {
  ThreadTeam solo(1);
  const Plan plan(solo, DependenceGraph(c.graph), opts);
  return time_lower(solo, c, plan, reps);
}

Stats barrier_cost_ms(ThreadTeam& team) {
  constexpr int kEpisodes = 2000;
  constexpr int kReps = 5;
  std::vector<double> per_episode;
  per_episode.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    per_episode.push_back(measure_barrier_ms(team, kEpisodes) / kEpisodes);
  }
  return stats_from_samples(per_episode);
}

}  // namespace rtl::bench
