// Cross-module integration tests: the full inspector/executor pipeline on
// the paper's workloads, end-to-end solver runs, and consistency between
// measured behaviour and the analytic machinery.

#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "graph/wavefront.hpp"
#include "model/performance_model.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "sparse/triangular.hpp"
#include "workload/problems.hpp"
#include "workload/synthetic.hpp"

namespace rtl {
namespace {

TEST(IntegrationTest, FullPipelineOnEveryStandardProblem) {
  // inspector -> schedule -> self-executing triangular solve must equal the
  // sequential solve on all eight Appendix I problems.
  ThreadTeam team(16);
  for (const auto& prob : standard_problem_set()) {
    IluFactorization ilu(prob.system.a, 0);
    ilu.factor(prob.system.a);
    const auto g = lower_solve_dependences(ilu.lower());
    const auto wf = compute_wavefronts(g);
    const auto s = global_schedule(wf, team.size());
    validate_schedule(s, wf);

    const index_t n = ilu.size();
    std::vector<real_t> rhs(prob.system.rhs);
    std::vector<real_t> y_par(static_cast<std::size_t>(n)),
        y_seq(static_cast<std::size_t>(n));
    const auto& lower = ilu.lower();
    DoconsiderOptions opts;
    opts.execution = ExecutionPolicy::kSelfExecuting;
    const Plan plan(team, DependenceGraph(g), opts);
    plan.execute(team, [&](index_t i) {
      real_t sum = rhs[static_cast<std::size_t>(i)];
      const auto cs = lower.row_cols(i);
      const auto vs = lower.row_vals(i);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        sum -= vs[k] * y_par[static_cast<std::size_t>(cs[k])];
      }
      y_par[static_cast<std::size_t>(i)] = sum;
    });
    solve_lower_unit(lower, rhs, y_seq);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y_par[static_cast<std::size_t>(i)],
                  y_seq[static_cast<std::size_t>(i)], 1e-12)
          << prob.name << " row " << i;
    }
  }
}

TEST(IntegrationTest, PhaseCountsAreReasonable) {
  // Wavefront counts for the structured problems follow the grid geometry:
  // a 63x63 5-pt mesh has 125 wavefronts, a 20^3 7-pt grid has 58.
  const auto count_phases = [](const TestProblem& prob) {
    IluFactorization ilu(prob.system.a, 0);
    return compute_wavefronts(lower_solve_dependences(ilu.lower())).num_waves;
  };
  EXPECT_EQ(count_phases(make_5pt()), 63 + 63 - 1);
  EXPECT_EQ(count_phases(make_7pt()), 20 + 20 + 20 - 2);
  // 9-pt box scheme: the (i+1, j-1) corner dependence makes
  // wave(i,j) = i + 2j, so 63x63 gives (63-1) + 2(63-1) + 1 waves.
  EXPECT_EQ(count_phases(make_9pt()), 187);
}

TEST(IntegrationTest, SyntheticWorkloadThroughDoconsider) {
  ThreadTeam team(8);
  const SyntheticSpec spec{.mesh = 65, .lambda = 4.0, .mean_dist = 3.0,
                           .seed = 21};
  const auto sys = synthetic_lower_system(spec);
  const auto g = lower_solve_dependences(sys.a);

  std::vector<real_t> y_seq(static_cast<std::size_t>(sys.a.rows()));
  solve_lower_unit(sys.a, sys.rhs, y_seq);

  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    opts.scheduling = SchedulingPolicy::kLocalWrapped;
    std::vector<real_t> y(static_cast<std::size_t>(sys.a.rows()));
    doconsider(
        team, g,
        [&](index_t i) {
          real_t sum = sys.rhs[static_cast<std::size_t>(i)];
          const auto cs = sys.a.row_cols(i);
          const auto vs = sys.a.row_vals(i);
          for (std::size_t k = 0; k < cs.size(); ++k) {
            sum -= vs[k] * y[static_cast<std::size_t>(cs[k])];
          }
          y[static_cast<std::size_t>(i)] = sum;
        },
        opts);
    for (index_t i = 0; i < sys.a.rows(); ++i) {
      ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                  y_seq[static_cast<std::size_t>(i)], 1e-12);
    }
  }
}

TEST(IntegrationTest, KrylovSolveWithEveryExecutorAgrees) {
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  const auto prob = make_spe5();
  std::vector<std::vector<real_t>> solutions;
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
        ExecutionPolicy::kDoAcross}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    IluPreconditioner precond(rt, prob.system.a, 0, opts);
    precond.factor(team, prob.system.a);
    std::vector<real_t> x(static_cast<std::size_t>(prob.system.a.rows()),
                          0.0);
    KrylovOptions kopt;
    kopt.max_iterations = 400;
    const auto res =
        gmres_solve(team, prob.system.a, prob.system.rhs, x, &precond, kopt);
    EXPECT_TRUE(res.converged);
    solutions.push_back(std::move(x));
  }
  for (std::size_t v = 1; v < solutions.size(); ++v) {
    for (std::size_t i = 0; i < solutions[0].size(); ++i) {
      EXPECT_NEAR(solutions[v][i], solutions[0][i], 1e-6);
    }
  }
}

TEST(IntegrationTest, ModelProblemEfficiencyMatchesScheduleAnalysis) {
  // §4.2 model problem (m x n 5-pt mesh, unit work) computed two ways:
  // closed-form MC(j) sums vs the schedule simulator on the real graph.
  const index_t m = 16, n = 24;
  const auto sys = five_point(m, n);
  IluFactorization ilu(sys.a, 0);
  const auto g = lower_solve_dependences(ilu.lower());
  const auto wf = compute_wavefronts(g);
  std::vector<double> unit(static_cast<std::size_t>(g.size()), 1.0);
  for (const int p : {2, 4, 8}) {
    const auto s = global_schedule(wf, p);
    const auto pre = estimate_prescheduled(s, unit);
    EXPECT_DOUBLE_EQ(pre.parallel_work, prescheduled_parallel_work(m, n, p))
        << "p=" << p;
    const auto self = estimate_self_executing(s, g, unit);
    const double mn = static_cast<double>(m) * n;
    EXPECT_NEAR(self.parallel_work, (mn + p * (p - 1.0)) / p, 1e-9)
        << "p=" << p;
  }
}

TEST(IntegrationTest, RefactorizationAfterValueChangeKeepsSolving) {
  // PCGPAK re-factors when the matrix values change between nonlinear
  // steps; the plans must survive a value update.
  Runtime rt(8, 0, "");
  ThreadTeam& team = rt.team();
  auto prob = make_spe4();
  IluPreconditioner precond(rt, prob.system.a, 0);
  precond.factor(team, prob.system.a);

  std::vector<real_t> x(static_cast<std::size_t>(prob.system.a.rows()), 0.0);
  KrylovOptions kopt;
  kopt.max_iterations = 300;
  auto res =
      gmres_solve(team, prob.system.a, prob.system.rhs, x, &precond, kopt);
  EXPECT_TRUE(res.converged);

  // Scale the matrix values, refactor over the same pattern, re-solve.
  for (auto& v : prob.system.a.values()) v *= 3.0;
  precond.factor(team, prob.system.a);
  std::fill(x.begin(), x.end(), 0.0);
  res = gmres_solve(team, prob.system.a, prob.system.rhs, x, &precond, kopt);
  EXPECT_TRUE(res.converged);
}

TEST(IntegrationTest, UpperSolveWavefrontsMirrorLowerOnSymmetricPattern) {
  const auto sys = five_point(12, 9);
  IluFactorization ilu(sys.a, 0);
  const auto gl = lower_solve_dependences(ilu.lower());
  const auto gu = upper_solve_dependences(ilu.upper());
  const auto wl = compute_wavefronts(gl);
  const auto wu = compute_wavefronts(gu);
  EXPECT_EQ(wl.num_waves, wu.num_waves);
}

}  // namespace
}  // namespace rtl
