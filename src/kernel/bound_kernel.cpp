#include "kernel/bound_kernel.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "kernel/simd.hpp"

namespace rtl {

namespace {

[[noreturn]] void bind_fail(const char* kind, const std::string& what) {
  std::ostringstream os;
  os << "BoundKernel::" << kind << ": " << what;
  throw std::invalid_argument(os.str());
}

// ---------------------------------------------------------------------
// The fused loop bodies. Named aggregate functors, not lambdas: binding
// resolves every pointer once, `Plan::execute` instantiates its executor
// loops directly on these types, and the per-iteration work is indexed
// loads/stores only. The batched variants keep the exact per-lane
// operation order of the single-RHS bodies (initialize from rhs, subtract
// matrix entries in storage order, divide by the diagonal last), so a
// k-wide solve is bit-for-bit identical to k independent solves.
// ---------------------------------------------------------------------

/// Row i of forward substitution: x(i) = rhs(i) - sum_j L(i,j) x(j).
struct LowerSolveBody {
  const index_t* row_ptr;
  const index_t* col;
  const real_t* val;
  const real_t* rhs;
  real_t* x;

  void operator()(index_t i) const {
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    real_t sum = rhs[static_cast<std::size_t>(i)];
    for (std::size_t t = b; t < e; ++t) {
      sum -= val[t] * x[static_cast<std::size_t>(col[t])];
    }
    x[static_cast<std::size_t>(i)] = sum;
  }
};

/// Executor iteration `it` of backward substitution handles row n-1-it
/// (the baked-in row permutation); the diagonal is stored first.
struct UpperSolveBody {
  const index_t* row_ptr;
  const index_t* col;
  const real_t* val;
  const real_t* rhs;
  real_t* x;
  index_t n;

  void operator()(index_t it) const {
    const index_t i = n - 1 - it;
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    real_t sum = rhs[static_cast<std::size_t>(i)];
    for (std::size_t t = b + 1; t < e; ++t) {
      sum -= val[t] * x[static_cast<std::size_t>(col[t])];
    }
    x[static_cast<std::size_t>(i)] = sum / val[b];
  }
};

// The batched bodies process each row's lanes in fixed-size chunks of
// double accumulators so the float32-storage path accumulates in double
// with the *same* unit-stride inner loops as the double path. For
// T = real_t the chunked form performs, per lane, exactly the operation
// sequence of the single-RHS body (initialize from rhs, subtract matrix
// entries in storage order, divide by the diagonal last) — each step is
// the identically-rounded double op — so batched results stay
// bit-for-bit equal to k single solves whether the accumulator lives in
// a register chunk or in x itself.
inline constexpr std::size_t kLaneChunk = 32;

// One inner lane loop over a chunk of m lanes. `omp simd` (when compiled
// in, kernel/simd.hpp) asserts only lane independence — true by
// construction: lanes are distinct batch columns — and never reassociates
// within a lane, so each lane keeps the single-RHS body's rounded-op
// sequence.
#define RTL_LANE_LOOP(...)                                      \
  RTL_SIMD_LOOP                                                 \
  for (std::size_t jj = 0; jj < m; ++jj) { __VA_ARGS__; }

/// Batched forward substitution: the k-sweep is the unit-stride inner
/// loop over the row's contiguous strip; the matrix row is read once for
/// all k right-hand sides.
template <typename T>
struct LowerSolveBatchBody {
  const index_t* row_ptr;
  const index_t* col;
  const real_t* val;
  const T* rhs;
  T* x;
  index_t k;

  void operator()(index_t i) const {
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    const std::size_t w = static_cast<std::size_t>(k);
    T* xi = x + static_cast<std::size_t>(i) * w;
    const T* ri = rhs + static_cast<std::size_t>(i) * w;
    real_t acc[kLaneChunk];
    for (std::size_t c = 0; c < w; c += kLaneChunk) {
      const std::size_t m = std::min(kLaneChunk, w - c);
      RTL_LANE_LOOP(acc[jj] = static_cast<real_t>(ri[c + jj]))
      for (std::size_t t = b; t < e; ++t) {
        const real_t v = val[t];
        const T* xd = x + static_cast<std::size_t>(col[t]) * w + c;
        RTL_LANE_LOOP(acc[jj] -= v * static_cast<real_t>(xd[jj]))
      }
      RTL_LANE_LOOP(xi[c + jj] = static_cast<T>(acc[jj]))
    }
  }
};

template <typename T>
struct UpperSolveBatchBody {
  const index_t* row_ptr;
  const index_t* col;
  const real_t* val;
  const T* rhs;
  T* x;
  index_t n;
  index_t k;

  void operator()(index_t it) const {
    const index_t i = n - 1 - it;
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    const std::size_t w = static_cast<std::size_t>(k);
    T* xi = x + static_cast<std::size_t>(i) * w;
    const T* ri = rhs + static_cast<std::size_t>(i) * w;
    const real_t d = val[b];
    real_t acc[kLaneChunk];
    for (std::size_t c = 0; c < w; c += kLaneChunk) {
      const std::size_t m = std::min(kLaneChunk, w - c);
      RTL_LANE_LOOP(acc[jj] = static_cast<real_t>(ri[c + jj]))
      for (std::size_t t = b + 1; t < e; ++t) {
        const real_t v = val[t];
        const T* xd = x + static_cast<std::size_t>(col[t]) * w + c;
        RTL_LANE_LOOP(acc[jj] -= v * static_cast<real_t>(xd[jj]))
      }
      RTL_LANE_LOOP(xi[c + jj] = static_cast<T>(acc[jj] / d))
    }
  }
};

#undef RTL_LANE_LOOP

}  // namespace

BoundKernel BoundKernel::lower(std::shared_ptr<const Plan> plan,
                               const CsrMatrix& strict_lower) {
  if (!plan) bind_fail("lower", "null plan");
  if (strict_lower.rows() != strict_lower.cols()) {
    bind_fail("lower", "matrix is not square (" +
                           std::to_string(strict_lower.rows()) + " x " +
                           std::to_string(strict_lower.cols()) + ")");
  }
  if (plan->size() != strict_lower.rows()) {
    bind_fail("lower", "plan covers " + std::to_string(plan->size()) +
                           " iterations but the matrix has " +
                           std::to_string(strict_lower.rows()) + " rows");
  }
  for (index_t i = 0; i < strict_lower.rows(); ++i) {
    for (const index_t j : strict_lower.row_cols(i)) {
      if (j >= i) {
        bind_fail("lower", "entry (" + std::to_string(i) + ", " +
                               std::to_string(j) +
                               ") is not strictly lower triangular");
      }
    }
  }
  // A forward-substitution dependence graph has exactly one edge per
  // stored entry; a plan with any other edge count was built for a
  // different structure and its order guarantees do not apply here.
  if (plan->graph().num_edges() != strict_lower.nnz()) {
    bind_fail("lower",
              "plan has " + std::to_string(plan->graph().num_edges()) +
                  " dependence edges but the matrix stores " +
                  std::to_string(strict_lower.nnz()) +
                  " entries (plan built for a different structure?)");
  }
  return BoundKernel(std::move(plan), strict_lower, KernelKind::kLowerSolve);
}

BoundKernel BoundKernel::upper(std::shared_ptr<const Plan> plan,
                               const CsrMatrix& upper_m) {
  if (!plan) bind_fail("upper", "null plan");
  if (upper_m.rows() != upper_m.cols()) {
    bind_fail("upper", "matrix is not square (" +
                           std::to_string(upper_m.rows()) + " x " +
                           std::to_string(upper_m.cols()) + ")");
  }
  if (plan->size() != upper_m.rows()) {
    bind_fail("upper", "plan covers " + std::to_string(plan->size()) +
                           " iterations but the matrix has " +
                           std::to_string(upper_m.rows()) + " rows");
  }
  for (index_t i = 0; i < upper_m.rows(); ++i) {
    const auto cs = upper_m.row_cols(i);
    if (cs.empty() || cs[0] != i) {
      bind_fail("upper", "row " + std::to_string(i) +
                             " does not store its diagonal first");
    }
    for (std::size_t t = 1; t < cs.size(); ++t) {
      if (cs[t] <= i) {
        bind_fail("upper", "entry (" + std::to_string(i) + ", " +
                               std::to_string(cs[t]) +
                               ") is not upper triangular");
      }
    }
  }
  // One dependence edge per strictly-upper entry (the diagonals are the
  // iterations themselves).
  if (plan->graph().num_edges() != upper_m.nnz() - upper_m.rows()) {
    bind_fail("upper",
              "plan has " + std::to_string(plan->graph().num_edges()) +
                  " dependence edges but the matrix stores " +
                  std::to_string(upper_m.nnz() - upper_m.rows()) +
                  " off-diagonal entries (plan built for a different "
                  "structure?)");
  }
  return BoundKernel(std::move(plan), upper_m, KernelKind::kUpperSolve);
}

BoundKernel::BoundKernel(std::shared_ptr<const Plan> plan,
                         const CsrMatrix& matrix, KernelKind kind)
    : plan_(std::move(plan)),
      row_ptr_(matrix.row_ptr().data()),
      col_(matrix.col_idx().data()),
      val_(matrix.values().data()),
      n_(matrix.rows()),
      nnz_(matrix.nnz()),
      kind_(kind) {}

void BoundKernel::solve(ThreadTeam& team, std::span<const real_t> rhs,
                        std::span<real_t> x) {
  assert(static_cast<index_t>(rhs.size()) == n_);
  assert(static_cast<index_t>(x.size()) == n_);
  // Per-execution state is leased from the plan's pool, so concurrent
  // solves from distinct teams never share synchronization data.
  if (kind_ == KernelKind::kLowerSolve) {
    plan_->execute(team, LowerSolveBody{row_ptr_, col_, val_, rhs.data(),
                                        x.data()});
  } else {
    plan_->execute(team, UpperSolveBody{row_ptr_, col_, val_, rhs.data(),
                                        x.data(), n_});
  }
}

template <typename T>
void BoundKernel::solve_batch_impl(ThreadTeam& team,
                                   BasicConstBatchView<T> rhs,
                                   BasicBatchView<T> x) {
  assert(rhs.rows() == n_ && x.rows() == n_);
  assert(rhs.width() == x.width());
  const index_t k = rhs.width();
  if (kind_ == KernelKind::kLowerSolve) {
    plan_->execute(team, LowerSolveBatchBody<T>{row_ptr_, col_, val_,
                                                rhs.data(), x.data(), k});
  } else {
    plan_->execute(team, UpperSolveBatchBody<T>{row_ptr_, col_, val_,
                                                rhs.data(), x.data(), n_, k});
  }
}

void BoundKernel::solve(ThreadTeam& team, ConstBatchView rhs, BatchView x) {
  if (rhs.width() == 1) {  // skip the k-strip arithmetic on the classic shape
    solve(team, {rhs.data(), static_cast<std::size_t>(n_)},
          {x.data(), static_cast<std::size_t>(n_)});
    return;
  }
  solve_batch_impl<real_t>(team, rhs, x);
}

void BoundKernel::solve(ThreadTeam& team, ConstBatchViewF rhs, BatchViewF x) {
  // No float single-RHS special case: width-1 float batches run the
  // batched body (the chunked double accumulator IS the mixed path).
  solve_batch_impl<float>(team, rhs, x);
}

IluApplyKernel::IluApplyKernel(BoundKernel lower_solve,
                               BoundKernel upper_solve)
    : lower_(std::move(lower_solve)), upper_(std::move(upper_solve)) {
  if (lower_.kind() != KernelKind::kLowerSolve ||
      upper_.kind() != KernelKind::kUpperSolve) {
    throw std::invalid_argument(
        "IluApplyKernel: expects a lower-solve and an upper-solve kernel");
  }
  if (lower_.size() != upper_.size()) {
    throw std::invalid_argument(
        "IluApplyKernel: lower kernel dimension " +
        std::to_string(lower_.size()) + " != upper kernel dimension " +
        std::to_string(upper_.size()));
  }
  tmp_.resize(lower_.size(), 1);
}

void IluApplyKernel::apply(ThreadTeam& team, std::span<const real_t> r,
                           std::span<real_t> z) {
  // The buffer always holds at least size() contiguous scratch elements.
  std::span<real_t> tmp{tmp_.view().data(),
                        static_cast<std::size_t>(size())};
  lower_.solve(team, r, tmp);
  upper_.solve(team, tmp, z);
}

void IluApplyKernel::apply(ThreadTeam& team, ConstBatchView r, BatchView z) {
  assert(r.width() == z.width());
  if (tmp_.rows() != size() || tmp_.width() < r.width()) {
    tmp_.resize(size(), r.width());
  }
  BatchView tmp{tmp_.view().data(), size(), r.width()};
  lower_.solve(team, r, tmp);
  upper_.solve(team, tmp, z);
}

void IluApplyKernel::apply(ThreadTeam& team, ConstBatchViewF r,
                           BatchViewF z) {
  assert(r.width() == z.width());
  if (tmpf_.rows() != size() || tmpf_.width() < r.width()) {
    tmpf_.resize(size(), r.width());
  }
  BatchViewF tmp{tmpf_.view().data(), size(), r.width()};
  lower_.solve(team, r, tmp);
  upper_.solve(team, tmp, z);
}

}  // namespace rtl
