#include "workload/stencil.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

#include "sparse/coo_builder.hpp"
#include "workload/rng.hpp"

namespace rtl {

namespace {

/// rhs <- A u_exact for a manufactured solution that vanishes on the
/// domain boundary (true for every Appendix I problem), so no boundary
/// correction terms are needed.
std::vector<real_t> manufactured_rhs(const CsrMatrix& a,
                                     const std::vector<real_t>& u_exact) {
  std::vector<real_t> rhs(u_exact.size());
  a.spmv(u_exact, rhs);
  return rhs;
}

[[noreturn]] void throw_grid_too_large(const char* what) {
  throw std::invalid_argument(std::string(what) +
                              ": grid has more rows than index_t holds");
}

/// a * b for positive grid extents; a product past index_t throws
/// instead of overflowing.
index_t checked_rows(index_t a, index_t b, const char* what) {
  if (a > std::numeric_limits<index_t>::max() / b) throw_grid_too_large(what);
  return a * b;
}

}  // namespace

LinearSystem five_point(index_t nx, index_t ny) {
  if (nx < 1 || ny < 1) throw std::invalid_argument("five_point: empty grid");
  const index_t n = checked_rows(nx, ny, "five_point");
  const real_t hx = 1.0 / (nx + 1);
  const real_t hy = 1.0 / (ny + 1);
  const auto x_of = [&](index_t i) { return (i + 1) * hx; };
  const auto y_of = [&](index_t j) { return (j + 1) * hy; };
  const auto idx = [&](index_t i, index_t j) { return j * nx + i; };
  const auto ax = [](real_t x, real_t y) { return std::exp(x * y); };
  const auto ay = [](real_t x, real_t y) { return std::exp(-x * y); };

  CooBuilder coo(n, n);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const real_t x = x_of(i);
      const real_t y = y_of(j);
      const index_t row = idx(i, j);
      // Diffusion in flux form with midpoint coefficients.
      const real_t aw = ax(x - 0.5 * hx, y) / (hx * hx);
      const real_t ae = ax(x + 0.5 * hx, y) / (hx * hx);
      const real_t as = ay(x, y - 0.5 * hy) / (hy * hy);
      const real_t an = ay(x, y + 0.5 * hy) / (hy * hy);
      // Central-difference convection 2(x+y)(u_x + u_y).
      const real_t c = 2.0 * (x + y);
      const real_t cw = -c / (2.0 * hx);
      const real_t ce = +c / (2.0 * hx);
      const real_t cs = -c / (2.0 * hy);
      const real_t cn = +c / (2.0 * hy);
      const real_t react = 1.0 / (1.0 + x + y);

      coo.add(row, row, aw + ae + as + an + react);
      if (i > 0) coo.add(row, idx(i - 1, j), -aw + cw);
      if (i + 1 < nx) coo.add(row, idx(i + 1, j), -ae + ce);
      if (j > 0) coo.add(row, idx(i, j - 1), -as + cs);
      if (j + 1 < ny) coo.add(row, idx(i, j + 1), -an + cn);
    }
  }
  CsrMatrix a = coo.build();

  std::vector<real_t> u(static_cast<std::size_t>(n));
  constexpr real_t pi = std::numbers::pi_v<real_t>;
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const real_t x = x_of(i);
      const real_t y = y_of(j);
      u[static_cast<std::size_t>(idx(i, j))] =
          x * std::exp(x * y) * std::sin(pi * x) * std::sin(pi * y);
    }
  }
  std::vector<real_t> rhs = manufactured_rhs(a, u);
  return {std::move(a), std::move(rhs)};
}

LinearSystem nine_point(index_t nx, index_t ny) {
  if (nx < 1 || ny < 1) throw std::invalid_argument("nine_point: empty grid");
  const index_t n = checked_rows(nx, ny, "nine_point");
  const real_t h = 1.0 / (nx + 1);  // box scheme assumes hx == hy
  if (ny != nx) {
    // The paper only uses square grids (63x63, 127x127); keep the compact
    // scheme restricted to them.
    throw std::invalid_argument("nine_point: grid must be square");
  }
  const auto idx = [&](index_t i, index_t j) { return j * nx + i; };

  CooBuilder coo(n, n);
  const real_t d0 = 20.0 / (6.0 * h * h);
  const real_t dside = -4.0 / (6.0 * h * h);
  const real_t dcorner = -1.0 / (6.0 * h * h);
  const real_t conv = 2.0 / (2.0 * h);  // coefficient of u_x and u_y
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx(i, j);
      coo.add(row, row, d0);
      const bool w = i > 0, e = i + 1 < nx, s = j > 0, nn = j + 1 < ny;
      if (w) coo.add(row, idx(i - 1, j), dside - conv);
      if (e) coo.add(row, idx(i + 1, j), dside + conv);
      if (s) coo.add(row, idx(i, j - 1), dside - conv);
      if (nn) coo.add(row, idx(i, j + 1), dside + conv);
      if (w && s) coo.add(row, idx(i - 1, j - 1), dcorner);
      if (e && s) coo.add(row, idx(i + 1, j - 1), dcorner);
      if (w && nn) coo.add(row, idx(i - 1, j + 1), dcorner);
      if (e && nn) coo.add(row, idx(i + 1, j + 1), dcorner);
    }
  }
  CsrMatrix a = coo.build();

  std::vector<real_t> u(static_cast<std::size_t>(n));
  constexpr real_t pi = std::numbers::pi_v<real_t>;
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const real_t x = (i + 1) * h;
      const real_t y = (j + 1) * h;
      u[static_cast<std::size_t>(idx(i, j))] =
          x * std::exp(x * y) * std::sin(pi * x) * std::sin(pi * y);
    }
  }
  std::vector<real_t> rhs = manufactured_rhs(a, u);
  return {std::move(a), std::move(rhs)};
}

LinearSystem seven_point(index_t nx, index_t ny, index_t nz) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("seven_point: empty grid");
  }
  const index_t n =
      checked_rows(checked_rows(nx, ny, "seven_point"), nz, "seven_point");
  const real_t hx = 1.0 / (nx + 1);
  const real_t hy = 1.0 / (ny + 1);
  const real_t hz = 1.0 / (nz + 1);
  const auto idx = [&](index_t i, index_t j, index_t k) {
    return (k * ny + j) * nx + i;
  };
  // Diffusion coefficient e^{xy} in all three directions (Appendix I,
  // Problem 8).
  const auto dc = [](real_t x, real_t y, real_t) { return std::exp(x * y); };

  CooBuilder coo(n, n);
  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const real_t x = (i + 1) * hx;
        const real_t y = (j + 1) * hy;
        const real_t z = (k + 1) * hz;
        const index_t row = idx(i, j, k);
        const real_t aw = dc(x - 0.5 * hx, y, z) / (hx * hx);
        const real_t ae = dc(x + 0.5 * hx, y, z) / (hx * hx);
        const real_t as = dc(x, y - 0.5 * hy, z) / (hy * hy);
        const real_t an = dc(x, y + 0.5 * hy, z) / (hy * hy);
        const real_t ab = dc(x, y, z - 0.5 * hz) / (hz * hz);
        const real_t at = dc(x, y, z + 0.5 * hz) / (hz * hz);
        // Convection 80(x+y+z) u_x, central differences.
        const real_t c = 80.0 * (x + y + z);
        const real_t cw = -c / (2.0 * hx);
        const real_t ce = +c / (2.0 * hx);
        const real_t react = 40.0 + 1.0 / (1.0 + x + y + z);

        coo.add(row, row, aw + ae + as + an + ab + at + react);
        if (i > 0) coo.add(row, idx(i - 1, j, k), -aw + cw);
        if (i + 1 < nx) coo.add(row, idx(i + 1, j, k), -ae + ce);
        if (j > 0) coo.add(row, idx(i, j - 1, k), -as);
        if (j + 1 < ny) coo.add(row, idx(i, j + 1, k), -an);
        if (k > 0) coo.add(row, idx(i, j, k - 1), -ab);
        if (k + 1 < nz) coo.add(row, idx(i, j, k + 1), -at);
      }
    }
  }
  CsrMatrix a = coo.build();

  std::vector<real_t> u(static_cast<std::size_t>(n));
  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const real_t x = (i + 1) * hx;
        const real_t y = (j + 1) * hy;
        const real_t z = (k + 1) * hz;
        u[static_cast<std::size_t>(idx(i, j, k))] =
            (1 - x) * (1 - y) * (1 - z) * (1 - std::exp(-x)) *
            (1 - std::exp(-y)) * (1 - std::exp(-z));
      }
    }
  }
  std::vector<real_t> rhs = manufactured_rhs(a, u);
  return {std::move(a), std::move(rhs)};
}

LinearSystem block_seven_point(index_t nx, index_t ny, index_t nz,
                               index_t block, std::uint64_t seed) {
  if (nx < 1 || ny < 1 || nz < 1 || block < 1) {
    throw std::invalid_argument("block_seven_point: bad dimensions");
  }
  const index_t cells = checked_rows(
      checked_rows(nx, ny, "block_seven_point"), nz, "block_seven_point");
  const index_t n = checked_rows(cells, block, "block_seven_point");
  const auto cell = [&](index_t i, index_t j, index_t k) {
    return (k * ny + j) * nx + i;
  };
  WorkloadRng rng(seed);

  CooBuilder coo(n, n);
  // Per-scalar-row accumulated off-diagonal magnitude, used to make the
  // diagonal strongly dominant afterwards.
  std::vector<real_t> offdiag_sum(static_cast<std::size_t>(n), 0.0);

  const auto add_block = [&](index_t crow, index_t ccol, bool diagonal) {
    for (index_t bi = 0; bi < block; ++bi) {
      for (index_t bj = 0; bj < block; ++bj) {
        const index_t r = crow * block + bi;
        const index_t c = ccol * block + bj;
        if (diagonal && bi == bj) continue;  // diagonal entries added last
        const real_t v = rng.uniform_real(-1.0, -0.1);
        coo.add(r, c, v);
        offdiag_sum[static_cast<std::size_t>(r)] += std::abs(v);
      }
    }
  };

  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const index_t c = cell(i, j, k);
        add_block(c, c, /*diagonal=*/true);
        if (i > 0) add_block(c, cell(i - 1, j, k), false);
        if (i + 1 < nx) add_block(c, cell(i + 1, j, k), false);
        if (j > 0) add_block(c, cell(i, j - 1, k), false);
        if (j + 1 < ny) add_block(c, cell(i, j + 1, k), false);
        if (k > 0) add_block(c, cell(i, j, k - 1), false);
        if (k + 1 < nz) add_block(c, cell(i, j, k + 1), false);
      }
    }
  }
  for (index_t r = 0; r < n; ++r) {
    coo.add(r, r, offdiag_sum[static_cast<std::size_t>(r)] + 1.0);
  }
  CsrMatrix a = coo.build();

  // Manufactured solution u = 1 gives rhs = row sums.
  std::vector<real_t> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<real_t> rhs = manufactured_rhs(a, ones);
  return {std::move(a), std::move(rhs)};
}

}  // namespace rtl
