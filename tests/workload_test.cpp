// Tests for the Appendix I problem generators and the §4.1 synthetic
// workload generator.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/wavefront.hpp"
#include "workload/problems.hpp"
#include "workload/stencil.hpp"
#include "workload/synthetic.hpp"

namespace rtl {
namespace {

TEST(StencilTest, FivePointDimensionsAndPattern) {
  const auto sys = five_point(63, 63);
  EXPECT_EQ(sys.a.rows(), 3969);
  EXPECT_EQ(sys.a.cols(), 3969);
  // Interior rows have 5 entries; every row between 3 and 5.
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    const auto c = sys.a.row_cols(i).size();
    EXPECT_GE(c, 3u);
    EXPECT_LE(c, 5u);
  }
}

TEST(StencilTest, FivePointRowsAreDiagonallyDominantEnough) {
  // The operator need not be strictly dominant everywhere, but diagonals
  // must be positive and comparable to the off-diagonal mass.
  const auto sys = five_point(20, 20);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    EXPECT_GT(sys.a.at(i, i), 0.0);
  }
}

TEST(StencilTest, NinePointDimensionsAndPattern) {
  const auto sys = nine_point(63, 63);
  EXPECT_EQ(sys.a.rows(), 3969);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    EXPECT_LE(sys.a.row_cols(i).size(), 9u);
  }
  // Center point of the grid must have the full 9-point stencil.
  const index_t mid = 31 * 63 + 31;
  EXPECT_EQ(sys.a.row_cols(mid).size(), 9u);
}

TEST(StencilTest, NinePointRejectsNonSquare) {
  EXPECT_THROW(nine_point(4, 5), std::invalid_argument);
}

TEST(StencilTest, GridSizeProductOverflowThrows) {
  // n = nx*ny[*nz] must fit index_t; these products used to overflow it
  // (signed-overflow UB) before a single row was generated.
  EXPECT_THROW((void)five_point(50000, 50000), std::invalid_argument);
  EXPECT_THROW((void)nine_point(1000009, 1000009), std::invalid_argument);
  EXPECT_THROW((void)seven_point(2000, 2000, 2000), std::invalid_argument);
  EXPECT_THROW((void)block_seven_point(1000, 1000, 1000, 6),
               std::invalid_argument);
}

TEST(StencilTest, SevenPointDimensionsAndPattern) {
  const auto sys = seven_point(20, 20, 20);
  EXPECT_EQ(sys.a.rows(), 8000);
  const index_t mid = (10 * 20 + 10) * 20 + 10;
  EXPECT_EQ(sys.a.row_cols(mid).size(), 7u);
}

TEST(StencilTest, RhsMatchesManufacturedSolution) {
  // rhs was built as A u_exact, so residual of u_exact must vanish.
  const auto sys = five_point(9, 9);
  std::vector<real_t> u(static_cast<std::size_t>(sys.a.rows()));
  constexpr real_t pi = 3.14159265358979323846;
  const real_t h = 1.0 / 10.0;
  for (index_t j = 0; j < 9; ++j) {
    for (index_t i = 0; i < 9; ++i) {
      const real_t x = (i + 1) * h, y = (j + 1) * h;
      u[static_cast<std::size_t>(j * 9 + i)] =
          x * std::exp(x * y) * std::sin(pi * x) * std::sin(pi * y);
    }
  }
  std::vector<real_t> au(u.size());
  sys.a.spmv(u, au);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(au[i], sys.rhs[i], 1e-12);
  }
}

TEST(StencilTest, BlockSevenPointDimensions) {
  const auto sys = block_seven_point(6, 6, 5, 6);
  EXPECT_EQ(sys.a.rows(), 6 * 6 * 5 * 6);
}

TEST(StencilTest, BlockSevenPointDiagonallyDominant) {
  const auto sys = block_seven_point(4, 4, 3, 3, 9);
  for (index_t i = 0; i < sys.a.rows(); ++i) {
    real_t offsum = 0.0;
    const auto cs = sys.a.row_cols(i);
    const auto vs = sys.a.row_vals(i);
    real_t diag = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] == i) {
        diag = vs[k];
      } else {
        offsum += std::abs(vs[k]);
      }
    }
    EXPECT_GE(diag, offsum + 0.999) << "row " << i;
  }
}

TEST(StencilTest, BlockSevenPointDeterministicInSeed) {
  const auto a = block_seven_point(3, 3, 2, 2, 77);
  const auto b = block_seven_point(3, 3, 2, 2, 77);
  ASSERT_EQ(a.a.nnz(), b.a.nnz());
  for (index_t i = 0; i < a.a.nnz(); ++i) {
    EXPECT_EQ(a.a.values()[static_cast<std::size_t>(i)],
              b.a.values()[static_cast<std::size_t>(i)]);
  }
}

TEST(ProblemsTest, SizesMatchAppendixOne) {
  EXPECT_EQ(make_spe1().system.a.rows(), 1000);
  EXPECT_EQ(make_spe2().system.a.rows(), 1080);
  EXPECT_EQ(make_spe3().system.a.rows(), 5005);
  EXPECT_EQ(make_spe4().system.a.rows(), 1104);
  EXPECT_EQ(make_spe5().system.a.rows(), 3312);
  EXPECT_EQ(make_5pt().system.a.rows(), 3969);
  EXPECT_EQ(make_9pt().system.a.rows(), 3969);
  EXPECT_EQ(make_7pt().system.a.rows(), 8000);
}

TEST(ProblemsTest, LargeVariantsMatchAppendixOne) {
  EXPECT_EQ(make_l5pt().system.a.rows(), 40000);
  EXPECT_EQ(make_l9pt().system.a.rows(), 16129);
  EXPECT_EQ(make_l7pt().system.a.rows(), 27000);
}

TEST(ProblemsTest, StandardSetHasEightNamedProblems) {
  const auto set = standard_problem_set();
  ASSERT_EQ(set.size(), 8u);
  EXPECT_EQ(set[0].name, "SPE1");
  EXPECT_EQ(set[7].name, "7-PT");
}

TEST(SyntheticTest, NameFormatsLikeThePaper) {
  const SyntheticSpec spec{.mesh = 65, .lambda = 4.0, .mean_dist = 3.0};
  EXPECT_EQ(spec.name(), "65-4-3");
}

TEST(SyntheticTest, GraphIsForwardOnlyDag) {
  const SyntheticSpec spec{.mesh = 30, .lambda = 4.0, .mean_dist = 3.0,
                           .seed = 1};
  const auto g = synthetic_dependences(spec);
  EXPECT_EQ(g.size(), 900);
  EXPECT_TRUE(g.is_forward_only());
}

TEST(SyntheticTest, MeanDegreeTracksLambda) {
  // With enough indices the average in-degree approaches lambda (slightly
  // below: early indices lack eligible predecessors, duplicates merge).
  const SyntheticSpec spec{.mesh = 65, .lambda = 4.0, .mean_dist = 3.0,
                           .seed = 2};
  const auto g = synthetic_dependences(spec);
  const double mean =
      static_cast<double>(g.num_edges()) / static_cast<double>(g.size());
  EXPECT_GT(mean, 2.5);
  EXPECT_LT(mean, 4.5);
}

TEST(SyntheticTest, LinksRespectManhattanLocality) {
  // Short mean distance must produce a shorter average link than a long
  // one.
  const auto avg_dist = [](const SyntheticSpec& spec) {
    const auto g = synthetic_dependences(spec);
    double sum = 0.0;
    index_t count = 0;
    const index_t m = spec.mesh;
    for (index_t i = 0; i < g.size(); ++i) {
      for (const index_t d : g.deps(i)) {
        sum += std::abs(i % m - d % m) + std::abs(i / m - d / m);
        ++count;
      }
    }
    return count == 0 ? 0.0 : sum / count;
  };
  const double short_links = avg_dist(
      {.mesh = 40, .lambda = 4.0, .mean_dist = 1.5, .seed = 3});
  const double long_links = avg_dist(
      {.mesh = 40, .lambda = 4.0, .mean_dist = 5.0, .seed = 3});
  EXPECT_LT(short_links, long_links);
}

TEST(SyntheticTest, DeterministicInSeed) {
  const SyntheticSpec spec{.mesh = 25, .lambda = 3.0, .mean_dist = 2.0,
                           .seed = 11};
  const auto a = synthetic_dependences(spec);
  const auto b = synthetic_dependences(spec);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (index_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.deps(i).size(), b.deps(i).size());
    for (std::size_t k = 0; k < a.deps(i).size(); ++k) {
      EXPECT_EQ(a.deps(i)[k], b.deps(i)[k]);
    }
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  const SyntheticSpec a{.mesh = 25, .lambda = 3.0, .mean_dist = 2.0,
                        .seed = 1};
  const SyntheticSpec b{.mesh = 25, .lambda = 3.0, .mean_dist = 2.0,
                        .seed = 2};
  EXPECT_NE(synthetic_dependences(a).num_edges(),
            synthetic_dependences(b).num_edges());
}

TEST(SyntheticTest, LowerSystemSolvesToOnes) {
  const SyntheticSpec spec{.mesh = 20, .lambda = 4.0, .mean_dist = 2.0,
                           .seed = 4};
  const auto sys = synthetic_lower_system(spec);
  // Forward substitution with unit diagonal must recover y = 1.
  const index_t n = sys.a.rows();
  std::vector<real_t> y(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    real_t sum = sys.rhs[static_cast<std::size_t>(i)];
    const auto cs = sys.a.row_cols(i);
    const auto vs = sys.a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      sum -= vs[k] * y[static_cast<std::size_t>(cs[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], 1.0, 1e-12);
  }
}

TEST(SyntheticTest, WavefrontCountGrowsWithLocality) {
  // Long-distance links reach farther back, shortening chains... actually
  // short links to immediate neighbours build long dependence chains
  // (nearest-neighbour meshes have ~2m wavefronts). Just check both are
  // nontrivial and the structures differ.
  const auto g1 = synthetic_dependences(
      {.mesh = 30, .lambda = 4.0, .mean_dist = 1.5, .seed = 5});
  const auto g2 = synthetic_dependences(
      {.mesh = 30, .lambda = 4.0, .mean_dist = 6.0, .seed = 5});
  const auto w1 = compute_wavefronts(g1);
  const auto w2 = compute_wavefronts(g2);
  EXPECT_GT(w1.num_waves, 1);
  EXPECT_GT(w2.num_waves, 1);
}

}  // namespace
}  // namespace rtl
