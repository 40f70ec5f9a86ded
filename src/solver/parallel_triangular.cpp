#include "solver/parallel_triangular.hpp"

#include "sparse/triangular.hpp"

namespace rtl {

ParallelTriangularSolver::ParallelTriangularSolver(
    Runtime& rt, const IluFactorization& ilu, DoconsiderOptions options)
    : kernel_(BoundKernel::lower(
                  rt.plan_for(lower_solve_dependences(ilu.lower()), options),
                  ilu.lower()),
              BoundKernel::upper(
                  rt.plan_for(upper_solve_dependences(ilu.upper()), options),
                  ilu.upper())) {}

void ParallelTriangularSolver::solve_lower(ThreadTeam& team,
                                           std::span<const real_t> rhs,
                                           std::span<real_t> y) {
  kernel_.lower().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve_upper(ThreadTeam& team,
                                           std::span<const real_t> rhs,
                                           std::span<real_t> y) {
  kernel_.upper().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve(ThreadTeam& team,
                                     std::span<const real_t> rhs,
                                     std::span<real_t> tmp,
                                     std::span<real_t> y) {
  kernel_.lower().solve(team, rhs, tmp);
  kernel_.upper().solve(team, tmp, y);
}

void ParallelTriangularSolver::solve_lower(ThreadTeam& team,
                                           ConstBatchView rhs, BatchView y) {
  kernel_.lower().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve_upper(ThreadTeam& team,
                                           ConstBatchView rhs, BatchView y) {
  kernel_.upper().solve(team, rhs, y);
}

void ParallelTriangularSolver::solve(ThreadTeam& team, ConstBatchView rhs,
                                     BatchView y) {
  kernel_.apply(team, rhs, y);
}

}  // namespace rtl
