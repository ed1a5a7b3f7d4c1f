// Tests for the unconstrained-DPP entry point (Remark 15 composition +
// Theorem 41 strategy dispatch) and the ExplicitOracle.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "distributions/explicit.h"
#include "dpp/ensemble.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "sampling/batched.h"
#include "sampling/sequential.h"
#include "sampling/unconstrained.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

std::map<std::uint64_t, double> exact_dpp_distribution(const Matrix& l) {
  const int n = static_cast<int>(l.rows());
  std::map<std::uint64_t, double> out;
  double z = 0.0;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<int> subset;
    for (int i = 0; i < n; ++i)
      if ((mask >> i) & 1ull) subset.push_back(i);
    double mass = subset.empty() ? 1.0 : det_small(l.principal(subset));
    out[mask] = std::max(mass, 0.0);
    z += out[mask];
  }
  for (auto& [mask, p] : out) p /= z;
  return out;
}

std::uint64_t to_mask(std::span<const int> subset) {
  std::uint64_t mask = 0;
  for (const int i : subset) mask |= (1ull << i);
  return mask;
}

TEST(SampleDpp, SymmetricCardinalityRouteDistribution) {
  RandomStream rng(7001);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  const auto exact = exact_dpp_distribution(l);
  UnconstrainedOptions options;
  options.strategy = UnconstrainedOptions::Strategy::kCardinality;
  std::map<std::uint64_t, std::size_t> counts;
  const int trials = 25000;
  for (int i = 0; i < trials; ++i) {
    const auto result = sample_dpp(l, true, rng, {}, options);
    EXPECT_EQ(result.strategy_used, "cardinality+batched");
    ++counts[to_mask(result.items)];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.05);
}

TEST(SampleDpp, NonsymmetricDistribution) {
  RandomStream rng(7002);
  const Matrix l = random_npsd(5, rng, 0.6);
  const auto exact = exact_dpp_distribution(l);
  std::map<std::uint64_t, std::size_t> counts;
  const int trials = 15000;
  for (int i = 0; i < trials; ++i) {
    const auto result = sample_dpp(l, false, rng);
    EXPECT_EQ(result.strategy_used, "cardinality+entropic");
    ++counts[to_mask(result.items)];
  }
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.06);
}

TEST(SampleDpp, AutoDispatchPicksTraceForLowTrace) {
  RandomStream rng(7003);
  // Tiny trace, large sigma: sqrt(tr K) < sigma sqrt(n) => cardinality.
  std::vector<double> spectrum(16, 0.005);
  spectrum[15] = 0.9;
  const Matrix l =
      ensemble_from_kernel(kernel_with_spectrum(spectrum, rng));
  const auto result = sample_dpp(l, true, rng);
  EXPECT_EQ(result.strategy_used, "cardinality+batched");
}

TEST(SampleDpp, AutoDispatchPicksFilteringForFlatSpectrum) {
  RandomStream rng(7004);
  // Flat moderate spectrum: tr K = 0.35 n, sigma = 0.35:
  // sqrt(tr K) = sqrt(5.6) = 2.37 > sigma sqrt(n) = 1.4 => filtering.
  std::vector<double> spectrum(16, 0.35);
  const Matrix l =
      ensemble_from_kernel(kernel_with_spectrum(spectrum, rng));
  const auto result = sample_dpp(l, true, rng);
  EXPECT_EQ(result.strategy_used, "filtering");
}

TEST(SampleDpp, FilteringRouteDistribution) {
  RandomStream rng(7005);
  std::vector<double> spectrum = {0.5, 0.4, 0.35, 0.3, 0.25};
  const Matrix l =
      ensemble_from_kernel(kernel_with_spectrum(spectrum, rng));
  const auto exact = exact_dpp_distribution(l);
  UnconstrainedOptions options;
  options.strategy = UnconstrainedOptions::Strategy::kFiltering;
  std::map<std::uint64_t, std::size_t> counts;
  const int trials = 12000;
  for (int i = 0; i < trials; ++i)
    ++counts[to_mask(sample_dpp(l, true, rng, {}, options).items)];
  EXPECT_LT(testing::empirical_tv_map(exact, counts, trials), 0.06);
}

TEST(SampleDpp, FilteringRejectsNonsymmetric) {
  RandomStream rng(7006);
  const Matrix l = random_npsd(5, rng, 0.5);
  UnconstrainedOptions options;
  options.strategy = UnconstrainedOptions::Strategy::kFiltering;
  EXPECT_THROW((void)sample_dpp(l, false, rng, {}, options),
               InvalidArgument);
}

// ---- ExplicitOracle ----

TEST(ExplicitOracle, MatchesHandComputedMeasure) {
  // mu on 2-subsets of {0..3} with mass = (i+1)(j+1).
  const ExplicitOracle oracle(4, 2, [](std::span<const int> s) {
    return std::log(static_cast<double>((s[0] + 1) * (s[1] + 1)));
  });
  // Z = sum over pairs: 1*2+1*3+1*4+2*3+2*4+3*4 = 35.
  const std::vector<int> t01 = {0, 1};
  EXPECT_NEAR(std::exp(oracle.log_probability(t01)), 2.0 / 35.0, 1e-12);
  const std::vector<int> t3 = {3};
  // P[3 in S] = (4 + 8 + 12)/35.
  EXPECT_NEAR(std::exp(oracle.log_joint_marginal(t3)), 24.0 / 35.0, 1e-12);
  const auto p = oracle.marginals();
  EXPECT_NEAR(p[0], (2.0 + 3.0 + 4.0) / 35.0, 1e-12);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 2.0, 1e-12);
}

TEST(ExplicitOracle, SamplersWorkOnCustomMeasure) {
  // A deliberately non-determinantal measure; the sequential sampler is
  // exact on any oracle and the entropic sampler approximates it.
  RandomStream rng(7101);
  const ExplicitOracle oracle(7, 3, [](std::span<const int> s) {
    // Mass favors spread-out subsets: product of gaps.
    double mass = 1.0;
    for (std::size_t i = 1; i < s.size(); ++i)
      mass *= static_cast<double>(s[i] - s[i - 1]);
    return std::log(mass);
  });
  const auto exact = testing::exact_distribution(
      7, 3, [](std::span<const int> s) {
        double mass = 1.0;
        for (std::size_t i = 1; i < s.size(); ++i)
          mass *= static_cast<double>(s[i] - s[i - 1]);
        return std::log(mass);
      });
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_sequential(oracle, rng).items);
  EXPECT_LT(testing::empirical_tv(exact, samples), 0.04);
}

TEST(ExplicitOracle, ConditioningAndNullEvents) {
  const ExplicitOracle oracle(5, 2, [](std::span<const int> s) {
    // Only adjacent pairs allowed.
    return s[1] == s[0] + 1 ? 0.0 : kNegInf;
  });
  const std::vector<int> t0 = {0};
  const auto conditioned = oracle.condition(t0);
  // Given 0 in S, partner must be 1 (new index 0).
  const auto p = conditioned->marginals();
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  const std::vector<int> t4 = {0, 3};  // {0, 3} not adjacent: null event
  EXPECT_EQ(oracle.log_joint_marginal(t4), kNegInf);
  EXPECT_THROW((void)oracle.condition(t4), NumericalError);
}

}  // namespace
}  // namespace pardpp
