// Statistical exactness harness: every sampler's empirical distribution is
// compared against exhaustive enumeration on small ensembles, with seeded
// chi-square / total-variation thresholds, at pool sizes {1, hardware}.
// This validates the incremental ConditionalState query path (and the wave
// protocol built on it) *distributionally* — the determinism tests prove
// pool sizes agree with each other; these tests prove they agree with mu.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dpp/ensemble.h"
#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/filtering.h"
#include "sampling/rejection.h"
#include "sampling/sequential.h"
#include "sampling/session.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using testing::chi_square_quantile;
using testing::chi_square_subsets;
using testing::ExactDistribution;

std::vector<std::size_t> stat_pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sizes = {1};
  if (hw > 1) sizes.push_back(hw);
  return sizes;
}

// Draws `trials` samples via `draw(rng, ctx)` at every pool size in
// {1, hw} from the same seed, asserts the sequences are identical across
// pool sizes (the determinism contract, at distribution-test scale), and
// returns the pool-1 sequence. A SamplingFailure marks the trial with a
// {-1} sentinel — deterministic per seed, so the identity check still
// holds — and the caller bounds how many are tolerated.
template <typename DrawFn>
std::vector<std::vector<int>> collect_across_pools(std::uint64_t seed,
                                                   int trials, DrawFn&& draw,
                                                   std::size_t* failures) {
  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : stat_pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    std::vector<std::vector<int>> samples;
    samples.reserve(static_cast<std::size_t>(trials));
    for (int i = 0; i < trials; ++i) {
      try {
        samples.push_back(draw(rng, ctx));
      } catch (const SamplingFailure&) {
        samples.push_back({-1});
      }
    }
    per_pool.push_back(std::move(samples));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;
  std::vector<std::vector<int>> out;
  out.reserve(per_pool[0].size());
  std::size_t failed = 0;
  for (auto& s : per_pool[0]) {
    if (s.size() == 1 && s[0] == -1) {
      ++failed;
      continue;
    }
    out.push_back(std::move(s));
  }
  if (failures != nullptr) *failures = failed;
  return out;
}

// ---- exact k-DPP samplers: sequential, batched, entropic ----

class KdppSamplerStatTest : public ::testing::Test {
 protected:
  static constexpr int kN = 6;
  static constexpr int kK = 2;
  static constexpr int kTrials = 2400;

  void SetUp() override {
    RandomStream setup(881001);
    l_ = random_psd(kN, kN, setup, 1e-3);
    oracle_ = std::make_unique<SymmetricKdppOracle>(l_, kK);
    dist_ = testing::exact_distribution(
        kN, kK, [this](std::span<const int> s) {
          return signed_log_det(l_.principal(s)).log_abs;
        });
  }

  void expect_matches(const std::vector<std::vector<int>>& samples,
                      std::size_t failures) {
    // The samplers' round failure budget is 1e-6 per run; even one
    // failure over a few thousand runs indicates a bug.
    EXPECT_EQ(failures, 0u);
    const auto chi = chi_square_subsets(dist_, samples);
    EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0))
        << "chi-square dof " << chi.dof;
    EXPECT_LT(testing::empirical_tv(dist_, samples), 0.08);
  }

  Matrix l_;
  std::unique_ptr<SymmetricKdppOracle> oracle_;
  ExactDistribution dist_;
};

TEST_F(KdppSamplerStatTest, SequentialMatchesEnumeration) {
  std::size_t failures = 0;
  const auto samples = collect_across_pools(
      91101, kTrials,
      [&](RandomStream& rng, const ExecutionContext&) {
        return sample_sequential(*oracle_, rng).items;
      },
      &failures);
  expect_matches(samples, failures);
}

TEST_F(KdppSamplerStatTest, BatchedMatchesEnumeration) {
  BatchedOptions options;
  options.failure_prob = 1e-6;
  std::size_t failures = 0;
  const auto samples = collect_across_pools(
      91102, kTrials,
      [&](RandomStream& rng, const ExecutionContext& ctx) {
        return sample_batched(*oracle_, rng, ctx, options).items;
      },
      &failures);
  expect_matches(samples, failures);
}

TEST_F(KdppSamplerStatTest, EntropicMatchesEnumeration) {
  // On a symmetric negatively correlated target the Lemma 27 cap
  // dominates the Lemma 36 cap, so the entropic sampler's Omega
  // restriction is vacuous and the output distribution is exact.
  EntropicOptions options;
  options.failure_prob = 1e-6;
  std::size_t failures = 0;
  const auto samples = collect_across_pools(
      91103, kTrials,
      [&](RandomStream& rng, const ExecutionContext& ctx) {
        return sample_entropic(*oracle_, rng, ctx, options).items;
      },
      &failures);
  expect_matches(samples, failures);
}

// ---- SamplerSession: the commit path, at distribution scale ----

// Draws `trials` samples through SamplerSession::draw_many at every pool
// size in {1, hw} and asserts (a) the sequences are identical across pool
// sizes, (b) they are identical to the condition() reference session's
// sequence from the same seed — the commit path's bit-identity contract —
// and (c) the commit-path empirical distribution passes the chi-square /
// TV harness.
class SessionCommitStatTest : public KdppSamplerStatTest {
 protected:
  void run_kind(SamplerKind kind, std::uint64_t seed) {
    SessionOptions commit_options;
    commit_options.kind = kind;
    commit_options.batched.failure_prob = 1e-6;
    commit_options.entropic.failure_prob = 1e-6;
    SessionOptions reference_options = commit_options;
    reference_options.use_commit = false;

    SamplerSession commit_session(*oracle_, commit_options);
    SamplerSession reference_session(*oracle_, reference_options);

    std::vector<std::vector<std::vector<int>>> per_pool;
    for (const std::size_t threads : stat_pool_sizes()) {
      ThreadPool pool(threads);
      const ExecutionContext ctx(&pool, nullptr);
      RandomStream rng(seed);
      auto results = commit_session.draw_many(
          static_cast<std::size_t>(kTrials), rng, ctx);
      std::vector<std::vector<int>> samples;
      samples.reserve(results.size());
      for (auto& r : results) samples.push_back(std::move(r.items));
      per_pool.push_back(std::move(samples));
    }
    for (std::size_t p = 1; p < per_pool.size(); ++p)
      EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;

    RandomStream reference_rng(seed);
    auto reference = reference_session.draw_many(
        static_cast<std::size_t>(kTrials), reference_rng,
        ExecutionContext::serial());
    ASSERT_EQ(reference.size(), per_pool[0].size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(per_pool[0][i], reference[i].items)
          << "commit path diverged from the condition() reference at draw "
          << i;

    expect_matches(per_pool[0], /*failures=*/0);
  }
};

TEST_F(SessionCommitStatTest, SequentialCommitPath) {
  run_kind(SamplerKind::kSequential, 92201);
}

TEST_F(SessionCommitStatTest, BatchedCommitPath) {
  run_kind(SamplerKind::kBatched, 92202);
}

TEST_F(SessionCommitStatTest, EntropicCommitPath) {
  run_kind(SamplerKind::kEntropic, 92203);
}

TEST(FeatureSessionStatTest, CommitPathMatchesEnumeration) {
  // The low-rank family's commit path (projected Gram + two-stage draw)
  // against enumeration of L = B B^T, plus bit-identity against the
  // condition() reference.
  RandomStream setup(881003);
  const std::size_t n = 6;
  const std::size_t d = 4;
  const std::size_t k = 2;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k),
      [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions commit_options;
  SessionOptions reference_options;
  reference_options.use_commit = false;
  SamplerSession commit_session(oracle, commit_options);
  SamplerSession reference_session(oracle, reference_options);

  const std::size_t trials = 2400;
  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : stat_pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(92204);
    auto results = commit_session.draw_many(trials, rng, ctx);
    std::vector<std::vector<int>> samples;
    for (auto& r : results) samples.push_back(std::move(r.items));
    per_pool.push_back(std::move(samples));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
  RandomStream reference_rng(92204);
  auto reference =
      reference_session.draw_many(trials, reference_rng,
                                  ExecutionContext::serial());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(per_pool[0][i], reference[i].items) << "draw " << i;
  const auto chi = chi_square_subsets(dist, per_pool[0]);
  EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0));
  EXPECT_LT(testing::empirical_tv(dist, per_pool[0]), 0.08);
}

// ---- filtering sampler: unconstrained DPP over all subset sizes ----

TEST(FilteringStatTest, WithinTotalVariationBudget) {
  const std::size_t n = 6;
  RandomStream setup(881002);
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i)
    spectrum[i] = 0.45 * (0.3 + 0.7 * static_cast<double>(i) /
                                    static_cast<double>(n - 1));
  const Matrix kernel = kernel_with_spectrum(spectrum, setup);
  const Matrix l = ensemble_from_kernel(kernel);

  // Exact unconstrained DPP probabilities: P(S) = det(L_S) / det(I + L).
  std::map<std::vector<int>, double> exact;
  double z = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> subset;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1u << i)) subset.push_back(static_cast<int>(i));
    const double value =
        subset.empty() ? 1.0
                       : std::exp(signed_log_det(l.principal(subset)).log_abs);
    exact[subset] = value;
    z += value;
  }
  for (auto& [subset, p] : exact) p /= z;

  FilteringOptions options;
  options.eps = 0.05;
  const int trials = 2500;
  std::size_t failures = 0;
  const auto samples = collect_across_pools(
      91104, trials,
      [&](RandomStream& rng, const ExecutionContext& ctx) {
        return sample_filtering_dpp(l, rng, ctx, options).items;
      },
      &failures);
  EXPECT_EQ(failures, 0u);
  std::map<std::vector<int>, std::size_t> counts;
  for (const auto& s : samples) ++counts[s];
  // The sampler is eps-approximate by design; the threshold budgets eps
  // plus ~3 sigma of multinomial noise over the 2^n outcome cells.
  const double tv =
      testing::empirical_tv_map(exact, counts, samples.size());
  EXPECT_LT(tv, options.eps + 0.10);
}

// ---- finite-domain rejection primitive ----

TEST(RejectionStatTest, MatchesTargetDistribution) {
  const std::vector<double> target = {std::log(0.35), std::log(0.05),
                                      std::log(0.25), std::log(0.15),
                                      std::log(0.20)};
  const std::vector<double> proposal(5, std::log(0.2));
  const double cap = std::log(0.35 / 0.2) + 1e-9;
  const int trials = 4000;
  std::size_t failures = 0;
  const auto samples = collect_across_pools(
      91105, trials,
      [&](RandomStream& rng, const ExecutionContext& ctx) {
        const auto out =
            rejection_sample_finite(target, proposal, cap, 200, rng, ctx);
        if (!out.value.has_value()) throw SamplingFailure("budget exhausted");
        return std::vector<int>{static_cast<int>(*out.value)};
      },
      &failures);
  EXPECT_EQ(failures, 0u);
  std::vector<double> counts(5, 0.0);
  for (const auto& s : samples) counts[static_cast<std::size_t>(s[0])] += 1.0;
  double statistic = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expected =
        std::exp(target[i]) * static_cast<double>(samples.size());
    const double diff = counts[i] - expected;
    statistic += diff * diff / expected;
  }
  EXPECT_LT(statistic, chi_square_quantile(4.0, 4.0));
}

}  // namespace
}  // namespace pardpp
