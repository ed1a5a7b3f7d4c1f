// Spanning-tree DPP via transfer currents (src/planar/transfer_current):
// projection-kernel structure, matrix-tree counts, and marginals against
// brute-force tree enumeration; the uniform-spanning-tree law through
// the session layer (plain and distilled) against enumeration with the
// usual chi-square/TV harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "planar/grid.h"
#include "planar/transfer_current.h"
#include "sampling/session.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::chi_square_quantile;
using testing::chi_square_subsets;
using testing::ExactDistribution;

PlanarGraph triangle_graph() {
  PlanarGraph g({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  return g;
}

// Uniform law over the enumerated spanning trees, as an exact
// distribution over (|V|-1)-subsets of edge indices.
ExactDistribution uniform_tree_distribution(const PlanarGraph& g) {
  const auto trees = enumerate_spanning_trees(g);
  std::set<std::vector<int>> tree_set(trees.begin(), trees.end());
  return testing::exact_distribution(
      static_cast<int>(g.num_edges()),
      static_cast<int>(g.num_vertices() - 1),
      [&](std::span<const int> s) {
        return tree_set.count(std::vector<int>(s.begin(), s.end())) != 0
                   ? 0.0
                   : kNegInf;
      });
}

TEST(TransferCurrentTest, ProjectionStructureAndMatrixTreeCounts) {
  struct Case {
    PlanarGraph graph;
    std::size_t trees;
  };
  const Case cases[] = {{triangle_graph(), 3},
                        {grid_graph(2, 3), 15},
                        {grid_graph(3, 3), 192}};
  for (const auto& [g, expected_trees] : cases) {
    const Matrix t = transfer_current_matrix(g);
    ASSERT_EQ(t.rows(), g.num_edges());
    // Projection of rank |V|-1: symmetric, idempotent, trace = rank.
    const Matrix t2 = multiply_transposed_b(t, t);  // T Tᵀ = T² for sym T
    double trace = 0.0;
    for (std::size_t i = 0; i < t.rows(); ++i) {
      trace += t(i, i);
      for (std::size_t j = 0; j < t.cols(); ++j) {
        EXPECT_NEAR(t(i, j), t(j, i), 1e-12);
        EXPECT_NEAR(t2(i, j), t(i, j), 1e-10);
      }
    }
    EXPECT_NEAR(trace, static_cast<double>(g.num_vertices() - 1), 1e-10);

    const auto trees = enumerate_spanning_trees(g);
    EXPECT_EQ(trees.size(), expected_trees);
    EXPECT_NEAR(std::exp(log_spanning_tree_count(g)),
                static_cast<double>(expected_trees),
                1e-8 * static_cast<double>(expected_trees));
  }
}

TEST(TransferCurrentTest, MarginalsMatchEnumerationAndEffectiveResistance) {
  for (const PlanarGraph& g : {triangle_graph(), grid_graph(2, 3)}) {
    const auto trees = enumerate_spanning_trees(g);
    std::vector<double> freq(g.num_edges(), 0.0);
    for (const auto& tree : trees)
      for (const int e : tree) freq[static_cast<std::size_t>(e)] += 1.0;
    for (double& f : freq) f /= static_cast<double>(trees.size());

    const FeatureKdppOracle oracle = spanning_tree_oracle(g);
    const Matrix t = transfer_current_matrix(g);
    const auto marginals = oracle.marginals();
    ASSERT_EQ(marginals.size(), g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      EXPECT_NEAR(marginals[e], freq[e], 1e-10);  // P[e ∈ tree]
      EXPECT_NEAR(t(e, e), freq[e], 1e-10);       // = effective resistance
    }
  }
}

TEST(TransferCurrentTest, RejectsDisconnectedAndTrivialGraphs) {
  PlanarGraph disconnected({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  disconnected.add_edge(0, 1);  // vertex 2 isolated
  EXPECT_THROW((void)transfer_current_features(disconnected),
               InvalidArgument);
  const PlanarGraph single({{0.0, 0.0}});
  EXPECT_THROW((void)log_spanning_tree_count(single), InvalidArgument);
}

// Session draws (plain and distilled, both distillation proposal modes)
// against the uniform law over the 15 spanning trees of the 2x3 grid:
// chi-square/TV on the commit path AND the condition() reference, plus
// the pool-size bit-identity sweep.
//
// Unlike the gaussian-feature distillation tests, commit-vs-reference
// *bit*-identity is not asserted here: the transfer-current Gram is
// exactly the identity (every eigenvalue 1), so the eigenbasis behind
// the two-stage marginal draw is non-unique, and the two algebraic
// paths legitimately resolve the degeneracy differently — identical
// output law (checked below for both), different sequences. The
// bit-identity contract is defined by the per-family protocols on
// simple spectra, which the existing fuzz suites pin.
TEST(SpanningTreeStatTest, SessionDrawsAreUniformOverTrees) {
  const PlanarGraph g = grid_graph(2, 3);
  const FeatureKdppOracle oracle = spanning_tree_oracle(g);
  const ExactDistribution dist = uniform_tree_distribution(g);

  SessionOptions plain;
  SessionOptions distilled;
  distilled.distill.enabled = true;
  distilled.distill.candidate_budget = 48;
  const SessionOptions variants[] = {plain, distilled};

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::uint64_t seed = 99101;
  for (const SessionOptions& options : variants) {
    SessionOptions reference_options = options;
    reference_options.use_commit = false;
    SamplerSession session(oracle, options);
    SamplerSession reference(oracle, reference_options);
    const std::size_t trials = 1800;

    ThreadPool pool(hw);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    auto results = session.draw_many(trials, rng, ctx);

    RandomStream serial_rng(seed);
    auto serial = session.draw_many(trials, serial_rng,
                                    ExecutionContext::serial());
    RandomStream reference_rng(seed);
    auto ref = reference.draw_many(trials, reference_rng,
                                   ExecutionContext::serial());

    std::vector<std::vector<int>> samples;
    std::vector<std::vector<int>> reference_samples;
    samples.reserve(trials);
    reference_samples.reserve(trials);
    for (std::size_t i = 0; i < trials; ++i) {
      EXPECT_EQ(results[i].items, serial[i].items) << "pool-size drift at "
                                                   << i;
      samples.push_back(std::move(results[i].items));
      reference_samples.push_back(std::move(ref[i].items));
    }
    for (const auto& path_samples : {samples, reference_samples}) {
      const auto chi = chi_square_subsets(dist, path_samples);
      EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0))
          << "chi-square dof " << chi.dof;
      EXPECT_LT(testing::empirical_tv(dist, path_samples), 0.08);
    }
    ++seed;
  }
}

}  // namespace
}  // namespace pardpp
