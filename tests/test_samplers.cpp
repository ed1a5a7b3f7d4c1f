// Distribution tests for the samplers: every sampler's empirical output is
// compared in total variation against exhaustively enumerated ground
// truth, with fixed seeds and conservative thresholds.
#include <gtest/gtest.h>

#include <cmath>

#include "distributions/hard_instance.h"
#include "distributions/product.h"
#include "dpp/general_oracle.h"
#include "dpp/hkpv.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "parallel/execution.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/rejection.h"
#include "sampling/sequential.h"
#include "sampling/session.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::EnumeratedOracle;
using testing::ExactDistribution;
using testing::empirical_tv;
using testing::exact_distribution;

ExactDistribution kdpp_exact(const Matrix& l, int k) {
  return exact_distribution(static_cast<int>(l.rows()), k,
                            [&l](std::span<const int> s) {
                              const auto sld = signed_log_det(l.principal(s));
                              return sld.sign > 0 ? sld.log_abs : kNegInf;
                            });
}

// ---- Sequential baseline (JVV86) ----

TEST(SequentialSampler, SymmetricKdppDistribution) {
  RandomStream rng(1001);
  const Matrix l = random_psd(7, 7, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 3);
  const auto exact = kdpp_exact(l, 3);
  std::vector<std::vector<int>> samples;
  const int trials = 30000;
  samples.reserve(trials);
  for (int i = 0; i < trials; ++i)
    samples.push_back(sample_sequential(oracle, rng).items);
  EXPECT_LT(empirical_tv(exact, samples), 0.04);
}

TEST(SequentialSampler, DepthEqualsK) {
  RandomStream rng(1002);
  const Matrix l = random_psd(10, 10, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 5);
  PramLedger ledger;
  const auto result = sample_sequential(oracle, rng,
                                        ExecutionContext::serial(&ledger));
  EXPECT_EQ(result.items.size(), 5u);
  EXPECT_EQ(ledger.stats().rounds, 5u);       // one round per element
  EXPECT_DOUBLE_EQ(ledger.stats().depth, 5.0);
}

TEST(SequentialSampler, UniformSubsets) {
  RandomStream rng(1003);
  const UniformKSubsetOracle oracle(8, 3);
  const auto exact =
      exact_distribution(8, 3, [](std::span<const int>) { return 0.0; });
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 30000; ++i)
    samples.push_back(sample_sequential(oracle, rng).items);
  EXPECT_LT(empirical_tv(exact, samples), 0.04);
}

// ---- Batched exact sampler (Theorem 10 / Algorithm 1) ----

class BatchedSymmetric : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(BatchedSymmetric, DistributionMatchesEnumeration) {
  const auto [k, seed] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
  const Matrix l = random_psd(7, 7, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, static_cast<std::size_t>(k));
  const auto exact = kdpp_exact(l, k);
  std::vector<std::vector<int>> samples;
  const int trials = 25000;
  SampleDiagnostics last;
  for (int i = 0; i < trials; ++i) {
    auto result = sample_batched(oracle, rng);
    last = result.diag;
    EXPECT_EQ(result.items.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(result.diag.ratio_overflows, 0u)
        << "Lemma 27 cap violated on a strongly Rayleigh target";
    samples.push_back(std::move(result.items));
  }
  EXPECT_LT(empirical_tv(exact, samples), 0.045);
}

INSTANTIATE_TEST_SUITE_P(KAndSeeds, BatchedSymmetric,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2)));

// The theorem-10 RBF workload (n = 144, k = 36, bandwidth 0.25) pays
// commit-path eigensolve refreshes; a direct sampler call must report the
// same per-draw count as a session draw of the same seed.
TEST(BatchedSampler, DirectCallsReportSpectralRefreshesLikeSessions) {
  RandomStream setup(2024);
  Matrix l = rbf_kernel(random_points(144, 2, setup), 0.25);
  for (std::size_t i = 0; i < l.rows(); ++i) l(i, i) += 1e-6;
  const SymmetricKdppOracle oracle(l, 36);
  for (const SamplerKind kind :
       {SamplerKind::kBatched, SamplerKind::kEntropic,
        SamplerKind::kSequential}) {
    SessionOptions options;
    options.kind = kind;
    SamplerSession session(oracle, options);
    std::size_t total = 0;
    // An entropic draw costs about ten batched ones at this size.
    const std::uint64_t seeds = kind == SamplerKind::kEntropic ? 1 : 3;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      RandomStream direct_rng(seed);
      const auto state = oracle.make_committed();
      SampleResult direct;
      switch (kind) {
        case SamplerKind::kBatched:
          direct = sample_batched_on(*state, direct_rng,
                                     ExecutionContext::serial());
          break;
        case SamplerKind::kEntropic:
          direct = sample_entropic_on(*state, direct_rng,
                                      ExecutionContext::serial());
          break;
        case SamplerKind::kSequential:
          direct = sample_sequential_on(*state, direct_rng);
          break;
      }
      RandomStream session_rng(seed);
      const SampleResult via_session = session.draw(session_rng);
      EXPECT_EQ(direct.items, via_session.items);
      EXPECT_EQ(direct.diag.spectral_refreshes,
                via_session.diag.spectral_refreshes)
          << sampler_kind_name(kind) << " seed " << seed;
      total += direct.diag.spectral_refreshes;
    }
    EXPECT_GT(total, 0u) << sampler_kind_name(kind);
  }
}

TEST(BatchedSampler, RoundCountRespectsProposition28) {
  RandomStream rng(1011);
  const HardInstanceOracle oracle(512, 256);
  // Hard instance with the *entropic* cap would be needed for correctness;
  // here we only exercise the schedule: k_i+1 = k_i - ceil(sqrt(k_i))
  // terminates within 2 sqrt(k) rounds. Use the uniform oracle (valid for
  // the exp(t^2/k) cap) at the same k.
  const UniformKSubsetOracle uniform(512, 256);
  PramLedger ledger;
  const auto result = sample_batched(uniform, rng,
                                     ExecutionContext::serial(&ledger));
  EXPECT_EQ(result.items.size(), 256u);
  const double bound = 2.0 * std::sqrt(256.0) + 2.0;
  // Each batch consumes one marginals round and one proposal round.
  EXPECT_LE(result.diag.rounds, static_cast<std::size_t>(bound));
  (void)oracle;
}

TEST(BatchedSampler, AcceptanceRateNearExpMinusOne) {
  // For the uniform k-subset distribution the acceptance probability of a
  // full batch is ~ exp(-t^2/k) * (no-collision probability), which for
  // t = sqrt(k) is bounded below by a constant (paper §4).
  RandomStream rng(1012);
  const UniformKSubsetOracle oracle(4096, 1024);
  auto result = sample_batched(oracle, rng);
  EXPECT_EQ(result.items.size(), 1024u);
  EXPECT_GT(result.diag.acceptance_rate(), 0.15);
  EXPECT_EQ(result.diag.ratio_overflows, 0u);
}

TEST(BatchedSampler, OversizedBatchesCollapseOnHardInstance) {
  // Ablation: batches >> sqrt(k) on the paired hard instance die by the
  // birthday paradox (duplicates force rejection). With batch = k all
  // proposals containing both copies of no pair... every batch of size k
  // containing any duplicate pair-halves rejects; acceptance is tiny, and
  // the sampler exhausts its machine budget.
  RandomStream rng(1013);
  const HardInstanceOracle oracle(64, 32);
  BatchedOptions options;
  options.max_batch = 32;       // batch = k >> sqrt(k)
  options.machine_cap = 2000;   // bounded budget
  options.extra_log_cap = 30.0; // even a huge cap cannot save it
  EXPECT_THROW((void)sample_batched(oracle, rng, {}, options),
               SamplingFailure);
}

TEST(BatchedSampler, MachineCapFailureInjection) {
  RandomStream rng(1014);
  const UniformKSubsetOracle oracle(64, 16);
  BatchedOptions options;
  options.machine_cap = 1;  // one proposal per round: will eventually miss
  bool failed = false;
  for (int attempt = 0; attempt < 200 && !failed; ++attempt) {
    try {
      (void)sample_batched(oracle, rng, {}, options);
    } catch (const SamplingFailure&) {
      failed = true;
    }
  }
  EXPECT_TRUE(failed);
}

// ---- Entropic sampler (Theorem 29 / Theorems 8-9) ----

TEST(EntropicSampler, NonsymmetricKdppDistribution) {
  RandomStream rng(1021);
  const Matrix l = random_npsd(7, rng, 0.6);
  const GeneralDppOracle oracle(l, 3);
  const auto exact = kdpp_exact(l, 3);
  std::vector<std::vector<int>> samples;
  const int trials = 20000;
  std::size_t overflows = 0;
  for (int i = 0; i < trials; ++i) {
    auto result = sample_entropic(oracle, rng);
    overflows += result.diag.ratio_overflows;
    samples.push_back(std::move(result.items));
  }
  EXPECT_LT(empirical_tv(exact, samples), 0.05);
  // Bad events must be rare (they bound the TV bias).
  EXPECT_LT(static_cast<double>(overflows) / trials, 0.01);
}

TEST(EntropicSampler, PartitionDppDistribution) {
  RandomStream rng(1022);
  const Matrix l = random_psd(8, 8, rng, 1e-3);
  std::vector<int> part_of = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<int> counts = {2, 1};
  const GeneralDppOracle oracle(l, part_of, counts);
  const auto exact = exact_distribution(8, 3, [&](std::span<const int> s) {
    int c0 = 0;
    for (const int i : s)
      if (i < 4) ++c0;
    if (c0 != 2) return kNegInf;
    const auto sld = signed_log_det(l.principal(s));
    return sld.sign > 0 ? sld.log_abs : kNegInf;
  });
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_entropic(oracle, rng).items);
  EXPECT_LT(empirical_tv(exact, samples), 0.05);
}

TEST(EntropicSampler, SubdivisionPathDistribution) {
  RandomStream rng(1023);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 3);
  const auto exact = kdpp_exact(l, 3);
  EntropicOptions options;
  options.subdivide = true;
  options.beta = 0.5;
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_entropic(oracle, rng, {}, options).items);
  EXPECT_LT(empirical_tv(exact, samples), 0.05);
}

TEST(EntropicSampler, HardInstanceNeedsLargeCap) {
  // The §7 instance: pair correlations push the true ratio to ~ n/k, far
  // above the symmetric cap exp(t^2/k). With the Lemma 36 entropic cap the
  // sampler is accurate.
  RandomStream rng(1024);
  const HardInstanceOracle oracle(12, 4);
  const auto exact = exact_distribution(12, 4, [](std::span<const int> s) {
    for (std::size_t a = 0; a < s.size(); a += 2) {
      if (s[a] % 2 != 0 || s[a + 1] != s[a] + 1) return kNegInf;
    }
    return 0.0;
  });
  EntropicOptions options;
  options.cap_slack = 4.0;  // covers the n/k pair-ratio at this scale
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_entropic(oracle, rng, {}, options).items);
  EXPECT_LT(empirical_tv(exact, samples), 0.05);
}

TEST(EntropicSampler, BatchExponentControlsBatchSize) {
  RandomStream rng(1025);
  const UniformKSubsetOracle oracle(512, 256);
  EntropicOptions options;
  options.c = 0.25;
  PramLedger ledger;
  const auto result = sample_entropic(oracle, rng,
      ExecutionContext::serial(&ledger), options);
  EXPECT_EQ(result.items.size(), 256u);
  // l = floor(256^{0.25}) = 4; rounds ~ k / l = 64 (plus shrink effects),
  // much more than 2 sqrt(k) = 32 but far less than k.
  EXPECT_GT(result.diag.rounds, 32u);
  EXPECT_LT(result.diag.rounds, 200u);
}

// ---- HKPV ground truth sampler ----

TEST(Hkpv, KdppDistribution) {
  RandomStream rng(1031);
  const Matrix l = random_psd(7, 7, rng, 1e-3);
  const auto exact = kdpp_exact(l, 3);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 25000; ++i) {
    auto s = hkpv_sample_kdpp(l, 3, rng);
    std::sort(s.begin(), s.end());
    samples.push_back(std::move(s));
  }
  EXPECT_LT(empirical_tv(exact, samples), 0.04);
}

TEST(Hkpv, UnconstrainedDppSizeDistribution) {
  RandomStream rng(1032);
  const Matrix l = random_psd(6, 6, rng, 1e-2);
  // P[|S| = j] = e_j / det(I + L).
  const auto lambda = symmetric_eigenvalues(l);
  const auto log_e = log_esp(lambda, 6);
  std::vector<double> expected(7);
  double log_z = kNegInf;
  for (const double v : log_e) log_z = log_add(log_z, v);
  for (std::size_t j = 0; j <= 6; ++j)
    expected[j] = std::exp(log_e[j] - log_z);
  std::vector<double> counts(7, 0.0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    counts[hkpv_sample_dpp(l, rng).size()] += 1.0;
  for (std::size_t j = 0; j <= 6; ++j)
    EXPECT_NEAR(counts[j] / trials, expected[j], 0.015) << "size " << j;
}

TEST(Hkpv, AgreesWithSequentialSampler) {
  // Two unrelated exact samplers must produce the same distribution.
  RandomStream rng(1033);
  const Matrix l = random_psd(6, 6, rng, 1e-3);
  const SymmetricKdppOracle oracle(l, 2);
  const auto exact = kdpp_exact(l, 2);
  std::vector<std::vector<int>> hkpv_samples;
  std::vector<std::vector<int>> seq_samples;
  for (int i = 0; i < 20000; ++i) {
    auto s = hkpv_sample_kdpp(l, 2, rng);
    std::sort(s.begin(), s.end());
    hkpv_samples.push_back(std::move(s));
    seq_samples.push_back(sample_sequential(oracle, rng).items);
  }
  EXPECT_LT(empirical_tv(exact, hkpv_samples), 0.04);
  EXPECT_LT(empirical_tv(exact, seq_samples), 0.04);
}

// ---- Finite rejection primitives (Algorithms 2/3) ----

TEST(Rejection, ExactWhenCapIsValid) {
  RandomStream rng(1041);
  const std::vector<double> target = {std::log(0.5), std::log(0.2),
                                      std::log(0.3)};
  const std::vector<double> proposal = {std::log(1.0 / 3), std::log(1.0 / 3),
                                        std::log(1.0 / 3)};
  const double cap = std::log(1.5) + 1e-9;  // max ratio = 0.5 / (1/3)
  std::vector<double> counts(3, 0.0);
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    const auto out =
        rejection_sample_finite(target, proposal, cap, 1000, rng);
    ASSERT_TRUE(out.value.has_value());
    EXPECT_EQ(out.overflows, 0u);
    counts[*out.value] += 1.0;
  }
  EXPECT_NEAR(counts[0] / trials, 0.5, 0.01);
  EXPECT_NEAR(counts[1] / trials, 0.2, 0.01);
  EXPECT_NEAR(counts[2] / trials, 0.3, 0.01);
}

TEST(Rejection, ModifiedRestrictsToOmega) {
  RandomStream rng(1042);
  // Cap excludes outcome 0 (ratio 1.8); output should be the renormalized
  // restriction {1, 2} (Algorithm 3 semantics).
  const std::vector<double> target = {std::log(0.6), std::log(0.2),
                                      std::log(0.2)};
  const std::vector<double> proposal = {std::log(1.0 / 3), std::log(1.0 / 3),
                                        std::log(1.0 / 3)};
  const double cap = std::log(1.2);
  std::vector<double> counts(3, 0.0);
  std::size_t overflows = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const auto out =
        rejection_sample_finite(target, proposal, cap, 2000, rng);
    ASSERT_TRUE(out.value.has_value());
    overflows += out.overflows;
    counts[*out.value] += 1.0;
  }
  EXPECT_GT(overflows, 0u);
  EXPECT_NEAR(counts[0] / trials, 0.0, 1e-12);
  EXPECT_NEAR(counts[1] / trials, 0.5, 0.015);
  EXPECT_NEAR(counts[2] / trials, 0.5, 0.015);
}

TEST(Rejection, Proposition25Boosting) {
  RandomStream rng(1043);
  // Acceptance probability 1/C per proposal; with machines =
  // C log(1/delta) the failure rate is ~delta.
  const std::vector<double> target = {0.0};
  const std::vector<double> proposal = {0.0};
  const double cap = std::log(20.0);  // acceptance 1/20
  const std::size_t machines =
      static_cast<std::size_t>(20.0 * std::log(1.0 / 0.01));
  int failures = 0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const auto out =
        rejection_sample_finite(target, proposal, cap, machines, rng);
    failures += out.value.has_value() ? 0 : 1;
  }
  EXPECT_LT(static_cast<double>(failures) / trials, 0.03);
}

}  // namespace
}  // namespace pardpp
