// Cross-module integration tests: sampler agreement through shared
// statistics, Lemma 14 concentration, subdivision over non-determinantal
// oracles, planar edge-marginal consistency, and PRAM ledger coherence.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "distributions/hard_instance.h"
#include "dpp/feature_oracle.h"
#include "dpp/hkpv.h"
#include "dpp/subdivision.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/symmetric_eigen.h"
#include "parallel/execution.h"
#include "planar/grid.h"
#include "planar/matching_count.h"
#include "planar/matching_sampler.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/sequential.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

TEST(Integration, ThreeSamplersAgreeOnSingletonFrequencies) {
  // Sequential (exact), batched (exact), HKPV (exact) must produce the
  // same singleton inclusion frequencies on one moderate kernel where
  // enumeration is out of reach (n = 30).
  RandomStream rng(8001);
  const std::size_t n = 30;
  const std::size_t k = 6;
  const Matrix l = random_psd(n, n, rng, 1e-4);
  const SymmetricKdppOracle oracle(l, k, false);
  const auto exact = oracle.marginals();
  const int trials = 3000;
  std::vector<double> freq_seq(n, 0.0);
  std::vector<double> freq_batch(n, 0.0);
  std::vector<double> freq_hkpv(n, 0.0);
  for (int i = 0; i < trials; ++i) {
    for (const int v : sample_sequential(oracle, rng).items)
      freq_seq[static_cast<std::size_t>(v)] += 1.0;
    for (const int v : sample_batched(oracle, rng).items)
      freq_batch[static_cast<std::size_t>(v)] += 1.0;
    for (const int v : hkpv_sample_kdpp(l, k, rng))
      freq_hkpv[static_cast<std::size_t>(v)] += 1.0;
  }
  // 4-sigma band for a binomial with p <= 0.5.
  const double noise = 4.0 * std::sqrt(0.25 / trials);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(freq_seq[i] / trials, exact[i], noise);
    EXPECT_NEAR(freq_batch[i] / trials, exact[i], noise);
    EXPECT_NEAR(freq_hkpv[i] / trials, exact[i], noise);
  }
}

TEST(Integration, Lemma14SizeConcentration) {
  // Strongly Rayleigh size concentration: |S| stays within
  // O(E|S| log(1/eps)) with probability 1 - eps. Sample an unconstrained
  // DPP and check the empirical tail.
  RandomStream rng(8002);
  const std::size_t n = 40;
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i) spectrum[i] = 0.15;  // E|S| ~ 5.2
  const Matrix kernel = kernel_with_spectrum(spectrum, rng);
  // L = K (I - K)^{-1}; for the flat spectrum this is kernel / 0.85.
  const Matrix l = kernel * (1.0 / 0.85);
  const double mean = 40.0 * 0.15;
  const int trials = 4000;
  int exceed = 0;
  for (int i = 0; i < trials; ++i) {
    const auto s = hkpv_sample_dpp(l, rng);
    if (static_cast<double>(s.size()) > 3.0 * mean) ++exceed;
  }
  EXPECT_LT(static_cast<double>(exceed) / trials, 0.01);
}

TEST(Integration, SubdivisionOverNonDeterminantalOracle) {
  // Definition 30 is distribution-agnostic: wrap the §7 hard instance and
  // verify the subdivided marginals/joints reduce correctly.
  auto base = std::make_unique<HardInstanceOracle>(12, 4);
  const auto base_p = base->marginals();
  const SubdividedOracle sub(std::move(base), 0.5);
  const auto p = sub.marginals();
  std::vector<double> per_base(12, 0.0);
  for (std::size_t c = 0; c < sub.ground_size(); ++c)
    per_base[static_cast<std::size_t>(sub.origin_of(static_cast<int>(c)))] +=
        p[c];
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_NEAR(per_base[i], base_p[i], 1e-12);
  // Entropic sampling through subdivision still hits the right TV.
  RandomStream rng(8003);
  const HardInstanceOracle oracle(12, 4);
  EntropicOptions options;
  options.subdivide = true;
  options.beta = 0.5;
  options.cap_slack = 4.0;
  const auto exact = testing::exact_distribution(
      12, 4, [](std::span<const int> s) {
        for (std::size_t a = 0; a < s.size(); a += 2) {
          if (s[a] % 2 != 0 || s[a + 1] != s[a] + 1) return kNegInf;
        }
        return 0.0;
      });
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 15000; ++i)
    samples.push_back(sample_entropic(oracle, rng, {}, options).items);
  EXPECT_LT(testing::empirical_tv(exact, samples), 0.05);
}

TEST(Integration, FeatureOracleThroughSequentialSampler) {
  RandomStream rng(8004);
  const std::size_t n = 8;
  const Matrix b = random_gaussian(n, 5, rng);
  const Matrix l = b * b.transpose();
  const FeatureKdppOracle oracle(b, 3);
  const auto exact = testing::exact_distribution(
      static_cast<int>(n), 3, [&l](std::span<const int> s) {
        const auto sld = signed_log_det(l.principal(s));
        return sld.sign > 0 ? sld.log_abs : kNegInf;
      });
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_sequential(oracle, rng).items);
  EXPECT_LT(testing::empirical_tv(exact, samples), 0.04);
}

TEST(Integration, PlanarEdgeMarginalsMatchSamplerFrequencies) {
  // P[e in M] from Pfaffian ratios must match the separator sampler's
  // empirical edge frequencies — ties the counting oracle, conditioning
  // and the sampler together.
  RandomStream rng(8005);
  const auto g = grid_graph(4, 4);
  const MatchingCounter counter(g);
  const double log_total = counter.log_count();
  const int trials = 20000;
  std::map<std::pair<int, int>, double> freq;
  for (int i = 0; i < trials; ++i) {
    for (const auto& e : sample_matching_separator(g, rng).matching)
      freq[e] += 1.0;
  }
  for (const auto& [u, v] : g.edges()) {
    std::vector<int> alive;
    for (std::size_t w = 0; w < g.num_vertices(); ++w) {
      if (static_cast<int>(w) != u && static_cast<int>(w) != v)
        alive.push_back(static_cast<int>(w));
    }
    const double exact =
        std::exp(counter.log_count_alive(alive) - log_total);
    const double measured = freq[{u, v}] / trials;
    EXPECT_NEAR(measured, exact, 4.5 * std::sqrt(0.25 / trials))
        << "edge (" << u << "," << v << ")";
  }
}

TEST(Integration, LedgerDepthOrdering) {
  // For one kernel: sequential depth > batched depth; both consistent
  // with diag.rounds.
  RandomStream rng(8006);
  const std::size_t n = 64;
  const std::size_t k = 16;
  const Matrix l = random_psd(n, n, rng, 1e-4);
  const SymmetricKdppOracle oracle(l, k, false);
  PramLedger seq_ledger;
  PramLedger batch_ledger;
  const auto seq = sample_sequential(oracle, rng,
                                     ExecutionContext::serial(&seq_ledger));
  const auto batch = sample_batched(oracle, rng,
                                    ExecutionContext::serial(&batch_ledger));
  EXPECT_EQ(seq.items.size(), k);
  EXPECT_EQ(batch.items.size(), k);
  EXPECT_GT(seq_ledger.stats().depth, batch_ledger.stats().depth);
  EXPECT_EQ(seq_ledger.stats().rounds, k);
  // Batched: 2 ledger rounds (marginals + proposals) per diag round.
  EXPECT_EQ(batch_ledger.stats().rounds, 2 * batch.diag.rounds);
  // Work exceeds depth whenever any round used > 1 machine.
  EXPECT_GE(seq_ledger.stats().work, seq_ledger.stats().depth);
  EXPECT_GE(batch_ledger.stats().work, batch_ledger.stats().depth);
}

TEST(Integration, RepeatedConditioningMatchesDirectConditioning) {
  // Conditioning twice on singletons equals conditioning once on the
  // pair, across oracle families.
  RandomStream rng(8007);
  const Matrix l = random_psd(9, 9, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 4);
  const std::vector<int> pair = {2, 6};
  const auto direct = oracle.condition(pair);
  const std::vector<int> first = {2};
  auto step = oracle.condition(first);
  const std::vector<int> second = {5};  // old index 6 after removing 2
  step = step->condition(second);
  const auto p_direct = direct->marginals();
  const auto p_step = step->marginals();
  ASSERT_EQ(p_direct.size(), p_step.size());
  for (std::size_t i = 0; i < p_direct.size(); ++i)
    EXPECT_NEAR(p_direct[i], p_step[i], 1e-8);
}

}  // namespace
}  // namespace pardpp
