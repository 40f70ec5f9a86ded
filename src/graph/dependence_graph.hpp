#pragma once

#include <span>
#include <vector>

#include "runtime/types.hpp"

/// Run-time dependence structure of a `doconsider` loop.
///
/// A value of the outer loop index i1 depends on another value i2 if the
/// computation of x(i1) requires x(i2) (§2.2). At inspector time this is a
/// directed acyclic graph over the index set; we store, for each iteration,
/// its *predecessor* list (the iterations whose results it consumes) in CSR
/// layout — exactly the `ia`/`ija` indirection arrays of Figures 3 and 8.
namespace rtl {

/// Immutable predecessor-list DAG over loop indices `[0, n)`.
///
/// Edges point from a consumer iteration to the producer iterations it
/// reads. A well-formed `doconsider` dependence graph only has edges to
/// *earlier* iterations of the sequential order (producers with a smaller
/// index), which makes acyclicity structural; `is_forward_only()` checks it.
class DependenceGraph {
 public:
  DependenceGraph() = default;

  /// Build from CSR arrays: `deps_of(i) == adj[ptr[i] .. ptr[i+1])`.
  /// Requires ptr.size() == n+1, ptr non-decreasing, entries in [0, n).
  DependenceGraph(index_t n, std::vector<index_t> ptr,
                  std::vector<index_t> adj);

  /// Build from per-iteration predecessor lists.
  static DependenceGraph from_lists(
      const std::vector<std::vector<index_t>>& preds);

  /// Number of loop iterations (graph vertices).
  [[nodiscard]] index_t size() const noexcept { return n_; }

  /// Total number of dependence edges.
  [[nodiscard]] index_t num_edges() const noexcept {
    return static_cast<index_t>(adj_.size());
  }

  /// Producer iterations consumed by iteration `i`.
  [[nodiscard]] std::span<const index_t> deps(index_t i) const noexcept {
    return {adj_.data() + ptr_[static_cast<std::size_t>(i)],
            adj_.data() + ptr_[static_cast<std::size_t>(i) + 1]};
  }

  /// Raw CSR row-pointer array (size n+1).
  [[nodiscard]] std::span<const index_t> ptr() const noexcept { return ptr_; }

  /// Raw CSR adjacency array.
  [[nodiscard]] std::span<const index_t> adj() const noexcept { return adj_; }

  /// True iff every edge points to a strictly smaller index — the
  /// start-time-schedulable shape produced by a sequential source loop.
  [[nodiscard]] bool is_forward_only() const noexcept;

  /// Deterministic 64-bit structure fingerprint: XXH64 (runtime/hash.hpp)
  /// of the 8 little-endian bytes of n, then `ptr` and `adj` as 4-byte
  /// little-endian elements. Stable across processes and platforms; the
  /// `rtl::Runtime` plan cache keys on it together with the vertex and
  /// edge counts.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Reverse the graph: successor lists instead of predecessor lists.
  [[nodiscard]] DependenceGraph reversed() const;

 private:
  index_t n_ = 0;
  std::vector<index_t> ptr_{0};
  std::vector<index_t> adj_;
};

}  // namespace rtl
