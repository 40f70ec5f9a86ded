#include "solver/parallel_triangular.hpp"

#include <utility>

#include "sparse/triangular.hpp"

namespace rtl {

namespace {

/// The forward and backward kernels of `ilu`, on `rt`'s cached plans for
/// `options`. The backward plan is asked for first: the cache's LRU order,
/// and with it which plan a full cache evicts, follows the request order.
IluApplyKernel bind_kernels(Runtime& rt, const IluFactorization& ilu,
                            DoconsiderOptions options) {
  BoundKernel upper = BoundKernel::upper(
      rt.plan_for(upper_solve_dependences(ilu.upper()), options),
      ilu.upper());
  return {BoundKernel::lower(
              rt.plan_for(lower_solve_dependences(ilu.lower()), options),
              ilu.lower()),
          std::move(upper)};
}

}  // namespace

ParallelTriangularSolver::ParallelTriangularSolver(
    Runtime& rt, const IluFactorization& ilu, DoconsiderOptions options)
    : rt_(rt),
      ilu_(ilu),
      options_(options),
      single_(bind_kernels(rt, ilu, options_for_width(options, 1))) {}

IluApplyKernel& ParallelTriangularSolver::kernel_for(index_t k) {
  const DoconsiderOptions wide = options_for_width(options_, k);
  if (wide == options_for_width(options_, 1)) return single_;
  // call_once publishes `batched_` to every caller that returns from it.
  std::call_once(batched_once_, [&] {
    batched_ = std::make_unique<IluApplyKernel>(bind_kernels(rt_, ilu_, wide));
  });
  return *batched_;
}

void ParallelTriangularSolver::solve_lower(ThreadTeam& team,
                                           std::span<const real_t> rhs,
                                           std::span<real_t> y) {
  single_.lower().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve_upper(ThreadTeam& team,
                                           std::span<const real_t> rhs,
                                           std::span<real_t> y) {
  single_.upper().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve(ThreadTeam& team,
                                     std::span<const real_t> rhs,
                                     std::span<real_t> y) {
  single_.apply(team, rhs, y);
}

void ParallelTriangularSolver::solve_lower(ThreadTeam& team,
                                           ConstBatchView rhs, BatchView y) {
  kernel_for(rhs.width()).lower().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve_upper(ThreadTeam& team,
                                           ConstBatchView rhs, BatchView y) {
  kernel_for(rhs.width()).upper().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve(ThreadTeam& team, ConstBatchView rhs,
                                     BatchView y) {
  kernel_for(rhs.width()).apply(team, rhs, y);
}

}  // namespace rtl
