// Tests for the filtering sampler (Algorithm 4 / Theorem 41) and its
// Lemma 44 Bernoulli-rejection building block, plus the cardinality
// distribution of Remark 15 and the unconstrained-DPP plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "dpp/cardinality.h"
#include "dpp/ensemble.h"
#include "dpp/unconstrained_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/schur.h"
#include "linalg/symmetric_eigen.h"
#include "sampling/filtering.h"
#include "support/combinatorics.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

// Exact unconstrained-DPP distribution over all subsets, keyed by the
// subset's bitmask.
std::map<std::uint64_t, double> exact_dpp_distribution(const Matrix& l) {
  const int n = static_cast<int>(l.rows());
  std::map<std::uint64_t, double> out;
  double z = 0.0;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<int> subset;
    for (int i = 0; i < n; ++i)
      if ((mask >> i) & 1ull) subset.push_back(i);
    double mass = 1.0;
    if (!subset.empty()) mass = det_small(l.principal(subset));
    mass = std::max(mass, 0.0);
    out[mask] = mass;
    z += mass;
  }
  for (auto& [mask, mass] : out) mass /= z;
  return out;
}

std::uint64_t to_mask(std::span<const int> subset) {
  std::uint64_t mask = 0;
  for (const int i : subset) mask |= (1ull << i);
  return mask;
}

TEST(UnconstrainedDpp, JointMarginalsMatchEnumeration) {
  RandomStream rng(2001);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  const UnconstrainedDpp dpp(l, /*symmetric=*/true);
  const auto exact = exact_dpp_distribution(l);
  // P[T ⊆ Y] = sum over supersets.
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      double want = 0.0;
      for (const auto& [mask, p] : exact) {
        if (((mask >> a) & 1ull) && ((mask >> b) & 1ull)) want += p;
      }
      const std::vector<int> t = {a, b};
      EXPECT_NEAR(std::exp(dpp.log_joint_marginal(t)), want, 1e-8);
    }
  }
  const auto marg = dpp.marginals();
  for (int i = 0; i < 6; ++i) {
    double want = 0.0;
    for (const auto& [mask, p] : exact)
      if ((mask >> i) & 1ull) want += p;
    EXPECT_NEAR(marg[static_cast<std::size_t>(i)], want, 1e-8);
  }
}

TEST(UnconstrainedDpp, KernelEnsembleRoundTrip) {
  RandomStream rng(2002);
  const Matrix l = random_psd(7, 7, rng, 1e-3);
  const Matrix k = marginal_kernel(l);
  const Matrix l_back = ensemble_from_kernel(k);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      EXPECT_NEAR(l_back(i, j), l(i, j), 1e-7);
}

TEST(UnconstrainedDpp, NonsymmetricMarginals) {
  RandomStream rng(2003);
  const Matrix l = random_npsd(6, rng, 0.5);
  const UnconstrainedDpp dpp(l, /*symmetric=*/false);
  const auto exact = exact_dpp_distribution(l);
  const auto marg = dpp.marginals();
  for (int i = 0; i < 6; ++i) {
    double want = 0.0;
    for (const auto& [mask, p] : exact)
      if ((mask >> i) & 1ull) want += p;
    EXPECT_NEAR(marg[static_cast<std::size_t>(i)], want, 1e-8);
  }
}

TEST(Cardinality, WeightsMatchEnumeration) {
  RandomStream rng(2011);
  for (const bool symmetric : {true, false}) {
    const Matrix l = symmetric ? random_psd(6, 6, rng, 1e-3)
                               : random_npsd(6, rng, 0.5);
    const auto exact = exact_dpp_distribution(l);
    std::vector<double> by_size(7, 0.0);
    for (const auto& [mask, p] : exact)
      by_size[static_cast<std::size_t>(__builtin_popcountll(mask))] += p;
    const auto log_w = cardinality_log_weights(l, symmetric);
    double log_z = kNegInf;
    for (const double v : log_w) log_z = log_add(log_z, v);
    for (std::size_t j = 0; j <= 6; ++j) {
      EXPECT_NEAR(std::exp(log_w[j] - log_z), by_size[j], 1e-6)
          << "size " << j << " symmetric=" << symmetric;
    }
  }
}

TEST(Cardinality, SamplingFrequencies) {
  RandomStream rng(2012);
  const std::vector<double> log_w = {std::log(0.1), std::log(0.3),
                                     std::log(0.6)};
  std::vector<double> counts(3, 0.0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i)
    counts[sample_cardinality(log_w, rng)] += 1.0;
  EXPECT_NEAR(counts[0] / trials, 0.1, 0.01);
  EXPECT_NEAR(counts[2] / trials, 0.6, 0.01);
}

TEST(Lemma44, BernoulliSamplerDistribution) {
  RandomStream rng(2021);
  // Kernel with sigma_max <= 1/sqrt(n): Lemma 44 regime.
  const std::size_t n = 6;
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i)
    spectrum[i] = (0.2 + 0.8 * static_cast<double>(i) /
                             static_cast<double>(n - 1)) /
                  std::sqrt(static_cast<double>(n));
  const Matrix kernel = kernel_with_spectrum(spectrum, rng);
  const Matrix l = ensemble_from_kernel(kernel);
  const auto exact = exact_dpp_distribution(l);
  std::map<std::uint64_t, std::size_t> counts;
  const int trials = 30000;
  std::size_t overflows = 0;
  for (int i = 0; i < trials; ++i) {
    auto result = sample_small_dpp_bernoulli(kernel, rng);
    overflows += result.diag.ratio_overflows;
    ++counts[to_mask(result.items)];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.05);
  EXPECT_LT(static_cast<double>(overflows) / trials, 0.01);
}

TEST(FilteringSampler, MatchesExactDppDistribution) {
  RandomStream rng(2022);
  // sigma_max(K) moderate so alpha < 1 and the filtering loop actually
  // runs several rounds.
  std::vector<double> spectrum = {0.7, 0.55, 0.4, 0.3, 0.2, 0.1};
  const Matrix kernel = kernel_with_spectrum(spectrum, rng);
  const Matrix l = ensemble_from_kernel(kernel);
  const auto exact = exact_dpp_distribution(l);
  std::map<std::uint64_t, std::size_t> counts;
  const int trials = 12000;
  std::size_t total_rounds = 0;
  for (int i = 0; i < trials; ++i) {
    auto result = sample_filtering_dpp(l, rng);
    total_rounds += result.diag.rounds;
    ++counts[to_mask(result.items)];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.06);
  EXPECT_GT(total_rounds / trials, 1u);  // multi-round regime exercised
}

TEST(FilteringSampler, SmallSigmaTakesDirectPath) {
  RandomStream rng(2023);
  const std::size_t n = 9;
  std::vector<double> spectrum(n, 0.2 / std::sqrt(static_cast<double>(n)));
  const Matrix kernel = kernel_with_spectrum(spectrum, rng);
  const Matrix l = ensemble_from_kernel(kernel);
  auto result = sample_filtering_dpp(l, rng);
  // alpha = 1/(sigma sqrt(n)) = 5 > 1: exactly one Bernoulli round.
  EXPECT_EQ(result.diag.rounds, 1u);
}

TEST(FilteringSampler, Proposition45SpectralInvariant) {
  // Along the filtering iteration, sigma_max(K^(i)) never exceeds the
  // initial sigma (Prop. 45). Replicate the update explicitly.
  RandomStream rng(2024);
  std::vector<double> spectrum = {0.8, 0.6, 0.5, 0.35, 0.2, 0.15, 0.1, 0.05};
  Matrix l = ensemble_from_kernel(kernel_with_spectrum(spectrum, rng));
  const double sigma0 = 0.8;
  const double alpha = 1.0 / (sigma0 * std::sqrt(8.0));
  for (int round = 0; round < 12; ++round) {
    const Matrix k = marginal_kernel(l);
    const double sigma = spectral_norm_symmetric(k);
    EXPECT_LE(sigma, sigma0 * (1.0 + 1e-9)) << "round " << round;
    // Thin + condition on an arbitrary feasible element (marginal > 0).
    Matrix scaled = l;
    scaled *= (1.0 - alpha);
    const auto p = UnconstrainedDpp(scaled, true, false).marginals();
    int pick = -1;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] > 0.05) {
        pick = static_cast<int>(i);
        break;
      }
    }
    if (pick < 0 || scaled.rows() <= 2) break;
    const std::vector<int> t = {pick};
    l = condition_ensemble(scaled, t, true).reduced;
  }
}

TEST(FilteringSampler, RejectsAsymmetricInput) {
  RandomStream rng(2025);
  const Matrix l = random_npsd(5, rng, 0.5);
  EXPECT_THROW((void)sample_filtering_dpp(l, rng), InvalidArgument);
}

TEST(Lemma44, SizeCapCountsAsOmegaRejection) {
  RandomStream rng(2026);
  std::vector<double> spectrum(4, 0.45);
  const Matrix kernel = kernel_with_spectrum(spectrum, rng);
  FilteringOptions options;
  options.size_cap = 1;  // absurdly tight: most proposals rejected by size
  options.machine_cap = 100000;
  auto result = sample_small_dpp_bernoulli(kernel, rng, {}, options);
  EXPECT_LE(result.items.size(), 1u);
  EXPECT_GT(result.diag.duplicate_rejects, 0u);
}

}  // namespace
}  // namespace pardpp
