#include "graph/dependence_graph.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "runtime/hash.hpp"

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

/// Feed `v` to `h` as 4-byte little-endian elements.
void hash_indices(Hash64& h, std::span<const index_t> v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    h.update(v.data(), v.size_bytes());
  } else {
    for (const index_t x : v) {
      const auto u = static_cast<std::uint32_t>(x);
      const unsigned char b[4] = {
          static_cast<unsigned char>(u), static_cast<unsigned char>(u >> 8),
          static_cast<unsigned char>(u >> 16),
          static_cast<unsigned char>(u >> 24)};
      h.update(b, 4);
    }
  }
}

}  // namespace

std::uint64_t DependenceGraph::fingerprint() const noexcept {
  Hash64 h;
  unsigned char n_bytes[8];
  for (int i = 0; i < 8; ++i) {
    n_bytes[i] = static_cast<unsigned char>(static_cast<std::uint64_t>(n_) >>
                                            (8 * i));
  }
  h.update(n_bytes, 8);
  // ptr_ is fully determined by n_ and the per-row degree deltas the adj_
  // walk reflects, but hashing it keeps the fingerprint sensitive to empty
  // rows at either end and costs one pass.
  hash_indices(h, ptr_);
  hash_indices(h, adj_);
  return h.digest();
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
