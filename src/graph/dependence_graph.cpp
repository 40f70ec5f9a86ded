#include "graph/dependence_graph.hpp"

#include <cassert>
#include <stdexcept>

namespace rtl {

DependenceGraph::DependenceGraph(index_t n, std::vector<index_t> ptr,
                                 std::vector<index_t> adj)
    : n_(n), ptr_(std::move(ptr)), adj_(std::move(adj)) {
  if (n < 0) throw std::invalid_argument("DependenceGraph: negative size");
  if (ptr_.size() != static_cast<std::size_t>(n) + 1) {
    throw std::invalid_argument("DependenceGraph: ptr must have n+1 entries");
  }
  if (ptr_.front() != 0 ||
      ptr_.back() != static_cast<index_t>(adj_.size())) {
    throw std::invalid_argument("DependenceGraph: ptr bounds mismatch");
  }
  for (std::size_t i = 0; i + 1 < ptr_.size(); ++i) {
    if (ptr_[i] > ptr_[i + 1]) {
      throw std::invalid_argument("DependenceGraph: ptr not monotone");
    }
  }
  for (const index_t v : adj_) {
    if (v < 0 || v >= n) {
      throw std::invalid_argument("DependenceGraph: edge target out of range");
    }
  }
}

DependenceGraph DependenceGraph::from_lists(
    const std::vector<std::vector<index_t>>& preds) {
  const index_t n = static_cast<index_t>(preds.size());
  std::vector<index_t> ptr(static_cast<std::size_t>(n) + 1, 0);
  std::size_t nnz = 0;
  for (index_t i = 0; i < n; ++i) {
    nnz += preds[static_cast<std::size_t>(i)].size();
    ptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(nnz);
  }
  std::vector<index_t> adj;
  adj.reserve(nnz);
  for (const auto& row : preds) adj.insert(adj.end(), row.begin(), row.end());
  return DependenceGraph(n, std::move(ptr), std::move(adj));
}

namespace {

/// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// kFnvPrime^4 (mod 2^64): four FNV-1a steps over zero bytes, since
/// xoring in a zero byte leaves h unchanged and only the multiply remains.
constexpr std::uint64_t kFnvPrime4 =
    kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

/// FNV-1a over the eight little-endian bytes of `v` zero-extended to 64
/// bits: the four low bytes one at a time, the four zero high bytes as one
/// multiply by p^4. Bit-identical to the byte-wise loop for every index
/// the graph holds (all are non-negative).
std::uint64_t fnv1a(std::uint64_t h, index_t v) noexcept {
  const auto word = static_cast<std::uint32_t>(v);
  for (int byte = 0; byte < 4; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h * kFnvPrime4;
}

}  // namespace

std::uint64_t DependenceGraph::fingerprint() const noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, n_);
  // ptr_ is fully determined by n_ and the per-row degree deltas the adj_
  // walk reflects, but hashing it keeps the fingerprint sensitive to empty
  // rows at either end and costs one pass.
  for (const index_t v : ptr_) h = fnv1a(h, v);
  for (const index_t v : adj_) h = fnv1a(h, v);
  return h;
}

bool DependenceGraph::is_forward_only() const noexcept {
  for (index_t i = 0; i < n_; ++i) {
    for (const index_t d : deps(i)) {
      if (d >= i) return false;
    }
  }
  return true;
}

DependenceGraph DependenceGraph::reversed() const {
  std::vector<index_t> ptr(static_cast<std::size_t>(n_) + 1, 0);
  for (const index_t d : adj_) ++ptr[static_cast<std::size_t>(d) + 1];
  for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) {
    ptr[i + 1] += ptr[i];
  }
  std::vector<index_t> adj(adj_.size());
  std::vector<index_t> cursor(ptr.begin(), ptr.end() - 1);
  for (index_t i = 0; i < n_; ++i) {
    for (const index_t d : deps(i)) {
      adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(d)]++)] = i;
    }
  }
  return DependenceGraph(n_, std::move(ptr), std::move(adj));
}

}  // namespace rtl
