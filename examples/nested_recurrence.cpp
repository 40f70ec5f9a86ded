// The paper's Figure 6 nested loop (`forconsider`):
//
//     doconsider i = 1, n
//       temp = f(i)
//       do j = 1, m
//         y(i) = y(i) + temp * y(g(i, j))
//       enddo
//     enddo
//
// Each iteration consumes several earlier iterations through the run-time
// indirection g(i, j). This example builds such a loop from the §4.1
// synthetic workload generator, gives iterations deliberately *irregular*
// work, and compares the three static executors against the dynamically
// self-scheduled extension (shared fetch-and-add cursor), which shines
// exactly when per-iteration work is skewed.

#include <cstdio>
#include <vector>

#include "core/plan.hpp"
#include "graph/wavefront.hpp"
#include "runtime/timer.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtl;

/// Skewed per-iteration work: iteration i spins proportional to
/// (i % 37)^2 — a few iterations are far heavier than the rest.
void burn(index_t i) {
  const int rounds = 200 + 40 * static_cast<int>((i % 37) * (i % 37));
  volatile double sink = 0.0;
  for (int r = 0; r < rounds; ++r) sink = sink + 1e-9 * r;
}

}  // namespace

int main() {
  const SyntheticSpec spec{.mesh = 65, .lambda = 4.0, .mean_dist = 3.0,
                           .seed = 99};
  const auto g = synthetic_dependences(spec);
  const auto wf = compute_wavefronts(g);
  const index_t n = g.size();
  std::printf("nested recurrence: n = %d, edges = %d, wavefronts = %d\n\n",
              n, g.num_edges(), wf.num_waves);

  ThreadTeam team(16);
  std::vector<real_t> y(static_cast<std::size_t>(n));
  const auto body = [&](index_t i) {
    burn(i);
    const real_t temp = 1.0 / (1.0 + static_cast<real_t>(i));  // "f(i)"
    real_t acc = 1.0;
    for (const index_t j : g.deps(i)) {  // "g(i, 1..m)"
      acc += temp * y[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  };

  // Reference result.
  std::vector<real_t> ref;
  {
    for (index_t i = 0; i < n; ++i) body(i);
    ref = y;
  }

  const auto check = [&] {
    for (index_t i = 0; i < n; ++i) {
      if (y[static_cast<std::size_t>(i)] != ref[static_cast<std::size_t>(i)]) {
        return "MISMATCH";
      }
    }
    return "ok";
  };

  std::printf("%-28s %10s %8s\n", "executor", "time (ms)", "result");

  // Every executor shape — the paper's three and the point-to-point
  // default — is one ExecutionPolicy away through the same plan.execute
  // entry point.
  for (const auto exec :
       {ExecutionPolicy::kPreScheduled, ExecutionPolicy::kSelfExecuting,
        ExecutionPolicy::kDoAcross, ExecutionPolicy::kPointToPoint}) {
    DoconsiderOptions opts;
    opts.execution = exec;
    DependenceGraph copy = g;
    const Plan plan(team, std::move(copy), opts);
    std::fill(y.begin(), y.end(), 0.0);
    WallTimer t;
    plan.execute(team, body);
    const double ms = t.elapsed_ms();
    const char* name = exec == ExecutionPolicy::kPreScheduled
                           ? "pre-scheduled (global)"
                           : exec == ExecutionPolicy::kSelfExecuting
                                 ? "self-executing (global)"
                                 : exec == ExecutionPolicy::kDoAcross
                                       ? "doacross"
                                       : "point-to-point (default)";
    std::printf("%-28s %10.2f %8s\n", name, ms, check());
  }
  return 0;
}
