#include "core/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <stdexcept>

namespace rtl {

namespace {

/// Size phase_ptr for `nproc` rows of `num_phases`+1 entries each.
void init_phase_ptr(Schedule& s) {
  s.phase_ptr.assign(static_cast<std::size_t>(s.nproc) *
                         (static_cast<std::size_t>(s.num_phases) + 1),
                     0);
}

/// Mutable view of processor p's phase-offset row.
index_t* phase_row_mut(Schedule& s, int p) {
  return s.phase_ptr.data() +
         static_cast<std::size_t>(p) *
             (static_cast<std::size_t>(s.num_phases) + 1);
}

/// proc_ptr for the wrapped deal: processor p receives entries p, p+nproc,
/// ... of an n-element list, i.e. ceil((n - p) / nproc) of them.
std::vector<index_t> wrapped_deal_ptr(index_t n, int nproc) {
  std::vector<index_t> ptr(static_cast<std::size_t>(nproc) + 1, 0);
  for (int p = 0; p < nproc; ++p) {
    const index_t mine = n > p ? (n - p + nproc - 1) / nproc : 0;
    ptr[static_cast<std::size_t>(p) + 1] =
        ptr[static_cast<std::size_t>(p)] + mine;
  }
  return ptr;
}

}  // namespace

Schedule global_schedule(const WavefrontInfo& wf, int nproc) {
  if (nproc <= 0) {
    throw std::invalid_argument("global_schedule: nproc must be >= 1");
  }
  if (wf.order.size() != wf.wave.size()) {
    throw std::invalid_argument(
        "global_schedule: wavefront membership CSR not populated (build "
        "WavefrontInfo via compute_wavefronts*)");
  }
  const index_t n = wf.size();
  Schedule s;
  s.nproc = nproc;
  s.n = n;
  s.num_phases = wf.num_waves;

  // Wrapped deal of the sorted list L = wf.order: processor p receives
  // L[p], L[p+nproc], ...
  s.proc_ptr = wrapped_deal_ptr(n, nproc);

  // One pass over L fills the flat order (the deal preserves L's
  // wavefront-then-index order within each processor) and counts each
  // processor's per-wavefront populations into its phase row.
  s.order.resize(static_cast<std::size_t>(n));
  init_phase_ptr(s);
  std::vector<index_t> cursor(s.proc_ptr.begin(), s.proc_ptr.end() - 1);
  for (index_t k = 0; k < n; ++k) {
    const int p = static_cast<int>(k % nproc);
    const index_t i = wf.order[static_cast<std::size_t>(k)];
    s.order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(p)]++)] = i;
    ++phase_row_mut(s, p)[static_cast<std::size_t>(
                              wf.wave[static_cast<std::size_t>(i)]) +
                          1];
  }
  // Per-row exclusive scan turns counts into absolute offsets.
  for (int p = 0; p < nproc; ++p) {
    index_t* row = phase_row_mut(s, p);
    row[0] = s.proc_ptr[static_cast<std::size_t>(p)];
    for (index_t w = 0; w < s.num_phases; ++w) {
      row[static_cast<std::size_t>(w) + 1] +=
          row[static_cast<std::size_t>(w)];
    }
  }
  return s;
}

Schedule contiguous_schedule(const WavefrontInfo& wf, int nproc) {
  if (nproc <= 0) {
    throw std::invalid_argument("contiguous_schedule: nproc must be >= 1");
  }
  if (wf.order.size() != wf.wave.size() ||
      wf.wave_ptr.size() != static_cast<std::size_t>(wf.num_waves) + 1) {
    throw std::invalid_argument(
        "contiguous_schedule: wavefront membership CSR not populated (build "
        "WavefrontInfo via compute_wavefronts*)");
  }
  const index_t n = wf.size();
  Schedule s;
  s.nproc = nproc;
  s.n = n;
  s.num_phases = wf.num_waves;
  s.order.resize(static_cast<std::size_t>(n));
  init_phase_ptr(s);
  s.proc_ptr.assign(static_cast<std::size_t>(nproc) + 1, 0);

  // Processor p's slab of phase w is chunk p of wavefront w, appended to
  // p's slice of the flat order in phase order.
  for (int p = 0; p < nproc; ++p) {
    index_t* row = phase_row_mut(s, p);
    row[0] = s.proc_ptr[static_cast<std::size_t>(p)];
    for (index_t w = 0; w < s.num_phases; ++w) {
      const auto ws = static_cast<std::size_t>(w);
      const index_t b = wf.wave_ptr[ws];
      const BlockRange r = block_range(wf.wave_ptr[ws + 1] - b, p, nproc);
      std::copy(wf.order.begin() + b + r.begin, wf.order.begin() + b + r.end,
                s.order.begin() + row[ws]);
      row[ws + 1] = row[ws] + (r.end - r.begin);
    }
    s.proc_ptr[static_cast<std::size_t>(p) + 1] =
        row[static_cast<std::size_t>(s.num_phases)];
  }
  return s;
}

namespace {

/// Processor p's slice of `s`, which starts at proc_ptr[p]: its indices
/// `mine` (increasing) stably counting-sorted by wavefront — the local
/// reorder that "simply rearranges the local ordering of those indices"
/// (§1) — and its phase row.
template <class Indices>
void sort_local_by_wave(Schedule& s, const WavefrontInfo& wf, int p,
                        const Indices& mine) {
  // Counts land one slot right (row[w + 1] counts phase w) and the scan
  // turns row[w] into phase w's start, so the fill can use row[w] as its
  // cursor: afterwards row[w] holds phase w's end, i.e. row[w + 1]'s value
  // before the fill, and one shift right restores the offsets.
  index_t* row = phase_row_mut(s, p);
  const auto phases = static_cast<std::size_t>(s.num_phases);
  const index_t* wave = wf.wave.data();
  for (const index_t i : mine) ++row[static_cast<std::size_t>(wave[i]) + 1];
  row[0] = s.proc_ptr[static_cast<std::size_t>(p)];
  for (std::size_t w = 0; w < phases; ++w) row[w + 1] += row[w];
  for (const index_t i : mine) {
    index_t& cursor = row[static_cast<std::size_t>(wave[i])];
    s.order[static_cast<std::size_t>(cursor++)] = i;
  }
  std::copy_backward(row, row + phases, row + phases + 1);
  row[0] = s.proc_ptr[static_cast<std::size_t>(p)];
}

/// A schedule of `nproc` processors over `wf` with proc_ptr still zero.
Schedule empty_schedule(const WavefrontInfo& wf, int nproc) {
  Schedule s;
  s.nproc = nproc;
  s.n = wf.size();
  s.num_phases = wf.num_waves;
  s.proc_ptr.assign(static_cast<std::size_t>(nproc) + 1, 0);
  s.order.resize(static_cast<std::size_t>(s.n));
  init_phase_ptr(s);
  return s;
}

}  // namespace

Schedule local_schedule(const WavefrontInfo& wf, const Partition& part) {
  if (part.size() != wf.size()) {
    throw std::invalid_argument("local_schedule: partition size mismatch");
  }
  Schedule s = empty_schedule(wf, part.nproc());
  for (int p = 0; p < s.nproc; ++p) {
    s.proc_ptr[static_cast<std::size_t>(p) + 1] =
        s.proc_ptr[static_cast<std::size_t>(p)] +
        static_cast<index_t>(part.members(p).size());
  }
  for (int p = 0; p < s.nproc; ++p) {
    sort_local_by_wave(s, wf, p, part.members(p));
  }
  return s;
}

Schedule block_schedule(const WavefrontInfo& wf, int nproc) {
  if (nproc <= 0) {
    throw std::invalid_argument("block_schedule: nproc must be >= 1");
  }
  Schedule s = empty_schedule(wf, nproc);
  for (int p = 0; p < nproc; ++p) {
    const BlockRange r = block_range(s.n, p, nproc);
    s.proc_ptr[static_cast<std::size_t>(p) + 1] = r.end;
    sort_local_by_wave(s, wf, p, std::views::iota(r.begin, r.end));
  }
  return s;
}

Schedule original_order_schedule(index_t n, int nproc) {
  if (nproc <= 0) {
    throw std::invalid_argument("original_order_schedule: nproc must be >= 1");
  }
  Schedule s;
  s.nproc = nproc;
  s.n = n;
  s.num_phases = 1;
  s.proc_ptr = wrapped_deal_ptr(n, nproc);
  s.order.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(s.proc_ptr.begin(), s.proc_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    s.order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(i % nproc)]++)] = i;
  }
  init_phase_ptr(s);
  for (int p = 0; p < nproc; ++p) {
    index_t* row = phase_row_mut(s, p);
    row[0] = s.proc_ptr[static_cast<std::size_t>(p)];
    row[1] = s.proc_ptr[static_cast<std::size_t>(p) + 1];
  }
  return s;
}

namespace {

/// The body of `slab_waits`, with the row -> processor map stored as
/// `Owner`.
template <typename Owner>
void derive_slab_waits(const DependenceGraph& g, const WavefrontInfo& wf,
                       const Schedule& s, SlabWaits& out) {
  const int nproc = s.nproc;
  const index_t num_phases = s.num_phases;
  std::vector<Owner> owner(static_cast<std::size_t>(s.n));
  for (int p = 0; p < nproc; ++p) {
    for (const index_t i : s.proc(p)) {
      owner[static_cast<std::size_t>(i)] = static_cast<Owner>(p);
    }
  }
  // need[q]: latest phase of q the current slab reads (-1: none yet);
  // waited[q]: latest phase of q this processor already waited for.
  std::vector<index_t> need(static_cast<std::size_t>(nproc), -1);
  std::vector<index_t> waited(static_cast<std::size_t>(nproc));
  std::vector<int> touched;
  touched.reserve(static_cast<std::size_t>(nproc));
  const index_t* wave = wf.wave.data();
  std::size_t slab = 0;
  for (int p = 0; p < nproc; ++p) {
    std::fill(waited.begin(), waited.end(), -1);
    for (index_t w = 0; w < num_phases; ++w, ++slab) {
      for (const index_t i : s.phase(p, w)) {
        for (const index_t d : g.deps(i)) {
          const int q = owner[static_cast<std::size_t>(d)];
          const index_t wd = wave[d];
          if (q == p || wd <= waited[static_cast<std::size_t>(q)]) continue;
          index_t& nq = need[static_cast<std::size_t>(q)];
          if (nq < 0) touched.push_back(q);
          nq = std::max(nq, wd);
        }
      }
      for (const int q : touched) {
        index_t& nq = need[static_cast<std::size_t>(q)];
        out.waits.push_back({q, nq});
        waited[static_cast<std::size_t>(q)] = nq;
        nq = -1;
      }
      touched.clear();
      out.ptr[slab + 1] = static_cast<index_t>(out.waits.size());
    }
  }
}

}  // namespace

SlabWaits slab_waits(const DependenceGraph& g, const WavefrontInfo& wf,
                     const Schedule& s) {
  SlabWaits out;
  out.num_phases = s.num_phases;
  out.ptr.assign(static_cast<std::size_t>(s.nproc) *
                         static_cast<std::size_t>(s.num_phases) +
                     1,
                 0);
  if (s.nproc == 1) return out;  // nobody to wait for
  // One allocation for the usual case: at most one wait per slab on
  // average, and never more waits than dependence edges.
  out.waits.reserve(std::min(out.ptr.size(),
                             static_cast<std::size_t>(g.num_edges())));
  // The owner map is the derivation's one n-sized temporary (every plan
  // build and every plan load pays it): one byte per row for any team of
  // up to 256 processors keeps it a quarter of an index-wide map.
  if (s.nproc <= 256) {
    derive_slab_waits<std::uint8_t>(g, wf, s, out);
  } else {
    derive_slab_waits<int>(g, wf, s, out);
  }
  return out;
}

void validate_schedule(const Schedule& s, const WavefrontInfo& wf) {
  if (wf.size() != s.n) {
    throw std::invalid_argument("validate_schedule: size mismatch");
  }
  if (s.proc_ptr.size() != static_cast<std::size_t>(s.nproc) + 1 ||
      s.proc_ptr.front() != 0 ||
      s.proc_ptr.back() != static_cast<index_t>(s.order.size()) ||
      static_cast<index_t>(s.order.size()) != s.n) {
    throw std::invalid_argument("validate_schedule: bad processor pointers");
  }
  if (s.phase_ptr.size() != static_cast<std::size_t>(s.nproc) *
                                (static_cast<std::size_t>(s.num_phases) + 1)) {
    throw std::invalid_argument("validate_schedule: bad phase pointers");
  }
  std::vector<char> seen(static_cast<std::size_t>(s.n), 0);
  for (int p = 0; p < s.nproc; ++p) {
    if (s.proc_ptr[static_cast<std::size_t>(p)] >
        s.proc_ptr[static_cast<std::size_t>(p) + 1]) {
      throw std::invalid_argument(
          "validate_schedule: processor pointers not monotone");
    }
    const auto row = s.phase_row(p);
    if (row.front() != s.proc_ptr[static_cast<std::size_t>(p)] ||
        row.back() != s.proc_ptr[static_cast<std::size_t>(p) + 1]) {
      throw std::invalid_argument("validate_schedule: bad phase pointers");
    }
    for (index_t w = 0; w < s.num_phases; ++w) {
      if (row[static_cast<std::size_t>(w)] >
          row[static_cast<std::size_t>(w) + 1]) {
        throw std::invalid_argument(
            "validate_schedule: phase pointers not monotone");
      }
      for (const index_t i : s.phase(p, w)) {
        if (i < 0 || i >= s.n) {
          throw std::invalid_argument("validate_schedule: index out of range");
        }
        if (seen[static_cast<std::size_t>(i)]++) {
          throw std::invalid_argument("validate_schedule: duplicate index");
        }
        // Phase structure must respect wavefronts unless the schedule is
        // the single-phase doacross order.
        if (s.num_phases == wf.num_waves &&
            wf.wave[static_cast<std::size_t>(i)] != w) {
          throw std::invalid_argument(
              "validate_schedule: index scheduled in wrong phase");
        }
      }
    }
  }
  for (const char c : seen) {
    if (!c) throw std::invalid_argument("validate_schedule: missing index");
  }
}

}  // namespace rtl
