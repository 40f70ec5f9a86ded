// Quickstart: parallelize the paper's Figure 3 loop
//
//     do i = 1, n
//       x(i) = x(i) + b(i) * x(ia(i))
//     end do
//
// where the indirection array `ia` is only known at run time. The
// inspector derives the dependence DAG from `ia`, topologically sorts it
// into wavefronts, and the default point-to-point executor runs the loop
// in parallel while preserving every dependence: each processor runs its
// contiguous chunk of every wavefront and waits only on the progress
// counters of the processors it reads from.

#include <cstdio>
#include <vector>

#include "core/plan.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

int main() {
  using namespace rtl;
  const index_t n = 1 << 20;

  // Run-time data: each iteration i reads x(ia(i)) with ia(i) < i.
  std::vector<index_t> ia(static_cast<std::size_t>(n), 0);
  std::vector<real_t> b(static_cast<std::size_t>(n)),
      x(static_cast<std::size_t>(n));
  std::uint64_t s = 12345;
  for (index_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    ia[static_cast<std::size_t>(i)] =
        i == 0 ? 0 : static_cast<index_t>((s >> 33) % i);
    b[static_cast<std::size_t>(i)] = 0.5;
    x[static_cast<std::size_t>(i)] = 1.0;
  }

  // 1. Describe the dependences (the inspector's input).
  std::vector<std::vector<index_t>> preds(static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i) {
    preds[static_cast<std::size_t>(i)].push_back(
        ia[static_cast<std::size_t>(i)]);
  }
  auto graph = DependenceGraph::from_lists(preds);

  ThreadTeam team(8);

  // 2. Inspector: wavefronts + schedule, paid once.
  WallTimer inspector_timer;
  DoconsiderOptions opts;  // kGlobal scheduling, kPointToPoint execution
  const Plan plan(team, std::move(graph), opts);
  const double inspector_ms = inspector_timer.elapsed_ms();

  // 3. Executor: run the loop body in the planned order (reusable).
  WallTimer executor_timer;
  plan.execute(team, [&](index_t i) {
    if (i > 0) {
      x[static_cast<std::size_t>(i)] +=
          b[static_cast<std::size_t>(i)] *
          x[static_cast<std::size_t>(ia[static_cast<std::size_t>(i)])];
    }
  });
  const double executor_ms = executor_timer.elapsed_ms();

  // 4. Verify against the sequential loop — the parallel run must preserve
  // every dependence, so the results have to match bit-for-bit.
  std::vector<real_t> ref(static_cast<std::size_t>(n), 1.0);
  for (index_t i = 1; i < n; ++i) {
    ref[static_cast<std::size_t>(i)] +=
        b[static_cast<std::size_t>(i)] *
        ref[static_cast<std::size_t>(ia[static_cast<std::size_t>(i)])];
  }
  if (x != ref) {
    std::fprintf(stderr, "FAIL: parallel result differs from sequential\n");
    return 1;
  }

  std::printf("doconsider quickstart: n = %d iterations\n", n);
  std::printf("  executor        : point-to-point (the default)\n");
  std::printf("  wavefronts      : %d\n", plan.wavefronts().num_waves);
  std::printf("  inspector time  : %.2f ms (paid once)\n", inspector_ms);
  std::printf("  executor time   : %.2f ms (per execution)\n", executor_ms);
  std::printf("  x[n-1]          : %.6f (matches sequential)\n",
              static_cast<double>(x[static_cast<std::size_t>(n - 1)]));
  return 0;
}
