#include "solver/ilu_preconditioner.hpp"

namespace rtl {

namespace {

/// The Figure 13 loop body as a named functor: one row elimination per
/// executor iteration, with the per-thread workspace selected by tid.
struct FactorRowBody {
  IluFactorization* ilu;
  const CsrMatrix* a;
  IluFactorization::Workspace* workspaces;

  void operator()(int tid, index_t i) const {
    ilu->factor_row(*a, i, workspaces[static_cast<std::size_t>(tid)]);
  }
};

}  // namespace

IluPreconditioner::IluPreconditioner(Runtime& rt, const CsrMatrix& a,
                                     int level, DoconsiderOptions options)
    : ilu_(a, level) {
  // One lane per row: the factor walks the single-RHS layout, and its
  // graph is the forward solve's, so the solver below hits this entry.
  factor_plan_ =
      rt.plan_for(ilu_.row_dependences(), options_for_width(options, 1));
  solver_ = std::make_unique<ParallelTriangularSolver>(rt, ilu_, options);
  workspaces_.reserve(static_cast<std::size_t>(rt.size()));
  for (int t = 0; t < rt.size(); ++t) workspaces_.emplace_back(ilu_.size());
}

void IluPreconditioner::factor(ThreadTeam& team, const CsrMatrix& a) {
  factor_plan_->execute(team, FactorRowBody{&ilu_, &a, workspaces_.data()});
}

void IluPreconditioner::apply(ThreadTeam& team, std::span<const real_t> r,
                              std::span<real_t> z) {
  solver_->solve(team, r, z);
}

void IluPreconditioner::apply_batch(ThreadTeam& team, ConstBatchView r,
                                    BatchView z) {
  solver_->solve(team, r, z);
}

}  // namespace rtl
