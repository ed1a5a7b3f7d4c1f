// Distillation front end (DESIGN.md §2 convention 8): statistical
// exactness against enumeration at pools {1, hw}, bit-identity against
// the condition() reference, the Maclaurin acceptance bound on fuzzed
// candidate pools, and restrict_to() against from-scratch restricted
// ensembles to 1e-10.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "linalg/lowrank.h"
#include "linalg/lu.h"
#include "linalg/simd.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/intermediate.h"
#include "sampling/sequential.h"
#include "sampling/session.h"
#include "support/failpoint.h"
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

// Distilled draw_many at every pool size from one seed: asserts the
// sequences are identical across pool sizes and identical to the
// condition() reference session's (use_commit = false, same distillation
// plan), then returns the pool-1 sequence for the distribution checks.
std::vector<std::vector<int>> collect_distilled(const CountingOracle& oracle,
                                                SessionOptions options,
                                                std::uint64_t seed,
                                                std::size_t trials) {
  SessionOptions reference_options = options;
  reference_options.use_commit = false;
  SamplerSession session(oracle, options);
  SamplerSession reference_session(oracle, reference_options);

  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : stat_pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    auto results = session.draw_many(trials, rng, ctx);
    std::vector<std::vector<int>> samples;
    samples.reserve(results.size());
    for (auto& r : results) samples.push_back(std::move(r.items));
    per_pool.push_back(std::move(samples));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;

  RandomStream reference_rng(seed);
  auto reference = reference_session.draw_many(trials, reference_rng,
                                               ExecutionContext::serial());
  EXPECT_EQ(reference.size(), per_pool[0].size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(per_pool[0][i], reference[i].items)
        << "distilled commit path diverged from the condition() reference "
           "at draw "
        << i;
  return per_pool[0];
}

void expect_matches(const ExactDistribution& dist,
                    const std::vector<std::vector<int>>& samples) {
  const auto chi = chi_square_subsets(dist, samples);
  EXPECT_LT(chi.statistic, chi_square_quantile(chi.dof, 4.0))
      << "chi-square dof " << chi.dof;
  EXPECT_LT(testing::empirical_tv(dist, samples), 0.08);
}

// ---- statistical exactness of the distilled output law ----

TEST(DistilledFeatureStatTest, SequentialMatchesEnumeration) {
  RandomStream setup(771001);
  const std::size_t n = 10;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.distill.enabled = true;
  const auto samples = collect_distilled(oracle, options, 77101, 2400);
  expect_matches(dist, samples);
}

TEST(DistilledFeatureStatTest, BatchedInnerKindMatchesEnumeration) {
  RandomStream setup(771002);
  const std::size_t n = 9;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.kind = SamplerKind::kBatched;
  options.batched.failure_prob = 1e-6;
  options.distill.enabled = true;
  options.distill.candidate_budget = 48;
  const auto samples = collect_distilled(oracle, options, 77102, 2000);
  expect_matches(dist, samples);
}

TEST(DistilledSymmetricStatTest, SequentialMatchesEnumeration) {
  RandomStream setup(771003);
  const std::size_t n = 8;
  const std::size_t k = 2;
  const Matrix l = random_psd(n, n, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, k);
  const auto dist = testing::exact_distribution(
      static_cast<int>(n), static_cast<int>(k), [&](std::span<const int> s) {
        return signed_log_det(l.principal(s)).log_abs;
      });

  SessionOptions options;
  options.distill.enabled = true;
  options.distill.candidate_budget = 40;
  const auto samples = collect_distilled(oracle, options, 77103, 2000);
  expect_matches(dist, samples);
}

// ---- acceptance bound: log Z(C) <= log M on every fuzzed pool ----

TEST(DistillationPlanTest, MaclaurinBoundDominatesFuzzedPools) {
  RandomStream setup(771004);
  RandomStream rng(771005);
  std::vector<int> items;
  std::vector<double> scales;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(setup.uniform_index(40));
    const std::size_t d = 2 + static_cast<std::size_t>(setup.uniform_index(5));
    const std::size_t k =
        1 + static_cast<std::size_t>(setup.uniform_index(std::min(d, n) - 1 + 1));
    Matrix features = random_gaussian(n, d, setup);
    // Half the trials get a spiked row scale so the weights are far from
    // uniform — the regime where a wrong bound would be caught.
    if (trial % 2 == 0)
      for (std::size_t c = 0; c < d; ++c) features(0, c) *= 40.0;
    const FeatureKdppOracle oracle(features, k);
    DistillOptions options;
    options.candidate_budget = 24;
    const DistillationPlan plan(oracle, options);
    for (int pool = 0; pool < 40; ++pool) {
      const auto restricted = plan.propose(rng, items, scales);
      ASSERT_EQ(items.size(), plan.candidate_budget());
      EXPECT_LE(restricted->log_partition(),
                plan.log_accept_bound() + 1e-9)
          << "n=" << n << " d=" << d << " k=" << k;
    }
  }
}

TEST(DistillationPlanTest, UnsupportedFamilyThrows) {
  const testing::EnumeratedOracle oracle(
      5, 2, [](std::span<const int>) { return 0.0; });
  EXPECT_THROW(DistillationPlan(oracle, DistillOptions{}), InvalidArgument);
}

// ---- restrict_to against from-scratch restricted ensembles ----

TEST(RestrictToFuzz, FeatureMatchesFromScratchAndSymmetricTo1e10) {
  RandomStream setup(771006);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(setup.uniform_index(8));
    const std::size_t d = 3 + static_cast<std::size_t>(setup.uniform_index(3));
    const std::size_t k = 2;
    const Matrix features = random_gaussian(n, d, setup);
    const FeatureKdppOracle oracle(features, k);

    const std::size_t m = 6 + static_cast<std::size_t>(setup.uniform_index(6));
    std::vector<int> items(m);
    std::vector<double> scales(m);
    for (std::size_t j = 0; j < m; ++j) {
      items[j] = static_cast<int>(setup.uniform_index(n));  // repeats allowed
      scales[j] = 0.25 + setup.uniform();
    }

    const auto restricted = oracle.restrict_to(items, scales);
    ASSERT_EQ(restricted->ground_size(), m);

    // From-scratch reference 1: gather + scale the rows, rebuild the
    // family. Reference 2: the dense symmetric family on the explicit
    // restricted ensemble diag(s) L_items diag(s) — a cross-family check
    // through an entirely different spectral path.
    const Matrix gathered = gather_scaled_rows(features, items, scales);
    const FeatureKdppOracle scratch(gathered, k);
    const Matrix l_restricted =
        multiply_transposed_b(gathered, gathered);
    const SymmetricKdppOracle cross(l_restricted, k, /*validate=*/false);

    const auto p = restricted->marginals();
    const auto p_scratch = scratch.marginals();
    const auto p_cross = cross.marginals();
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(p[i], p_scratch[i], 1e-10);
      EXPECT_NEAR(p[i], p_cross[i], 1e-10);
    }
    EXPECT_NEAR(restricted->log_partition(), cross.log_partition(), 1e-8);

    for (int q = 0; q < 6; ++q) {
      const int a = static_cast<int>(setup.uniform_index(m));
      int b = static_cast<int>(setup.uniform_index(m));
      if (b == a) b = (b + 1) % static_cast<int>(m);
      const std::vector<int> t = {a, b};
      const double lj = restricted->log_joint_marginal(t);
      const double lj_cross = cross.log_joint_marginal(t);
      if (lj == kNegInf || lj_cross == kNegInf) {
        // Repeated items give exactly-null joint cells; both paths must
        // agree the cell is (numerically) null.
        EXPECT_LT(std::max(lj, lj_cross), -20.0);
      } else {
        EXPECT_NEAR(lj, lj_cross, 1e-10);
      }
    }
  }
}

TEST(RestrictToFuzz, SymmetricMatchesFromScratchTo1e10) {
  RandomStream setup(771007);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(setup.uniform_index(6));
    const std::size_t k = 2;
    const Matrix l = random_psd(n, n, setup, 1e-4);
    const SymmetricKdppOracle oracle(l, k);

    const std::size_t m = 5 + static_cast<std::size_t>(setup.uniform_index(5));
    std::vector<int> items(m);
    std::vector<double> scales(m);
    for (std::size_t j = 0; j < m; ++j) {
      items[j] = static_cast<int>(setup.uniform_index(n));
      scales[j] = 0.25 + setup.uniform();
    }
    const auto restricted = oracle.restrict_to(items, scales);

    Matrix sub(m, m);
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = 0; b < m; ++b)
        sub(a, b) = scales[a] * scales[b] *
                    l(static_cast<std::size_t>(items[a]),
                      static_cast<std::size_t>(items[b]));
    const SymmetricKdppOracle scratch(sub, k, /*validate=*/false);

    const auto p = restricted->marginals();
    const auto p_scratch = scratch.marginals();
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(p[i], p_scratch[i], 1e-10);
    EXPECT_NEAR(restricted->log_partition(), scratch.log_partition(), 1e-10);
  }
}

// ---- satellite bugfixes: edge cases of the proposal machinery ----

// Trailing zero-weight items share the final cumulative value with the
// last positive item; the target == tau roundoff fallback must clamp to
// the positive index — a zero-weight pick has row_scale_ == 0 and would
// inject a null row with proposal probability zero.
TEST(DistillationPlanTest, EndRoundoffClampsToLastPositiveWeight) {
  RandomStream setup(771009);
  const std::size_t n = 8;
  const std::size_t d = 3;
  Matrix features = random_gaussian(n, d, setup);
  // Rows 5..7 are exact zeros: weight 0, cumulative flat at tau.
  for (std::size_t i = 5; i < n; ++i)
    for (std::size_t c = 0; c < d; ++c) features(i, c) = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < d; ++c) tau += features(i, c) * features(i, c);
  const FeatureKdppOracle oracle(features, 2);
  const DistillationPlan plan(oracle, DistillOptions{});

  // Exactly tau (the roundoff event rng.uniform() * tau == tau) and
  // anything beyond must resolve to item 4, never to a null row 5..7.
  EXPECT_EQ(plan.candidate_index(tau), 4u);
  EXPECT_EQ(plan.candidate_index(std::nextafter(tau, 2.0 * tau)), 4u);
  // Sanity: interior targets never land on a zero-weight item either.
  RandomStream rng(771010);
  for (int i = 0; i < 2000; ++i)
    EXPECT_LT(plan.candidate_index(rng.uniform() * tau), 5u);
}

// k = 0 plans have no candidate pool: draw() returns the empty sample,
// and the public propose() entry point must reject instead of reading
// the degenerate all-zero cumulative table.
TEST(DistillationPlanTest, ProposeRejectsKZeroExplicitly) {
  const Matrix features(5, 3);  // all-zero: rank 0, tau = 0
  const FeatureKdppOracle oracle(features, 0);
  const DistillationPlan plan(oracle, DistillOptions{});
  RandomStream rng(771011);
  std::vector<int> items;
  std::vector<double> scales;
  EXPECT_THROW((void)plan.propose(rng, items, scales), InvalidArgument);
  const auto result = plan.draw(
      rng, [](const CountingOracle&, RandomStream&) -> SampleResult {
        ADD_FAILURE() << "inner sampler must not run for k = 0";
        return {};
      });
  EXPECT_TRUE(result.items.empty());
}

// Starvation must carry its forensic trail: attempts in the message and
// in diag.proposals, duplicate_rejects alongside. max_attempts = 1 on a
// spiked spectrum rejects with constant probability per seed, so some
// seed in a small range starves deterministically.
TEST(DistillationPlanTest, StarvationCarriesAttemptsAndDuplicateRejects) {
  RandomStream setup(771012);
  Matrix features = random_gaussian(12, 3, setup);
  for (std::size_t c = 0; c < 3; ++c) features(0, c) *= 40.0;
  const FeatureKdppOracle oracle(features, 2);
  DistillOptions options;
  options.max_attempts = 1;
  const DistillationPlan plan(oracle, options);
  const auto inner = [](const CountingOracle& restricted,
                        RandomStream& inner_rng) {
    return sample_sequential(restricted, inner_rng);
  };

  bool starved = false;
  for (std::uint64_t seed = 0; seed < 64 && !starved; ++seed) {
    RandomStream rng(881000 + seed);
    try {
      (void)plan.draw(rng, inner);
    } catch (const DistillationStarvation& failure) {
      starved = true;
      EXPECT_EQ(failure.diag.proposals, 1u);
      EXPECT_EQ(failure.diag.duplicate_rejects, 0u);
      const std::string what = failure.what();
      EXPECT_NE(what.find("attempts=1"), std::string::npos) << what;
      EXPECT_NE(what.find("duplicate_rejects=0"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(starved)
      << "no seed in the range rejected its only attempt — the spiked "
         "spectrum should reject a constant fraction of pools";
}

// The session layer annotates the starvation with its own context and
// passes the diagnostics through unchanged.
TEST(SamplerSessionTest, StarvationSurfacesSessionContext) {
  RandomStream setup(771013);
  Matrix features = random_gaussian(12, 3, setup);
  for (std::size_t c = 0; c < 3; ++c) features(0, c) *= 40.0;
  const FeatureKdppOracle oracle(features, 2);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.max_attempts = 1;
  SamplerSession session(oracle, options);

  bool starved = false;
  for (std::uint64_t seed = 0; seed < 64 && !starved; ++seed) {
    RandomStream rng(882000 + seed);
    try {
      (void)session.draw(rng);
    } catch (const DistillationStarvation& failure) {
      starved = true;
      EXPECT_EQ(failure.diag.proposals, 1u);
      const std::string what = failure.what();
      EXPECT_NE(what.find("family feature-kdpp"), std::string::npos) << what;
      EXPECT_NE(what.find("kind sequential"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(starved);
}

// Adversarial weight profiles: trailing zeros, a single heavy item, and
// a near-degenerate spectrum. Every pool must carry positive row scales,
// in-range items, and a restricted partition below the Maclaurin bound.
TEST(DistillationPlanTest, AdversarialProfilesFuzz) {
  RandomStream setup(771021);
  RandomStream rng(771022);
  std::vector<int> items;
  std::vector<double> scales;
  for (int profile = 0; profile < 3; ++profile) {
    const std::size_t n = 14;
    const std::size_t d = 3;
    Matrix features = random_gaussian(n, d, setup);
    if (profile == 0) {  // trailing zero weights
      for (std::size_t i = 10; i < n; ++i)
        for (std::size_t c = 0; c < d; ++c) features(i, c) = 0.0;
    } else if (profile == 1) {  // single heavy item
      for (std::size_t c = 0; c < d; ++c) features(0, c) *= 1e3;
    } else {  // near-degenerate spectrum: rows nearly parallel
      for (std::size_t i = 1; i < n; ++i)
        for (std::size_t c = 0; c < d; ++c)
          features(i, c) = features(0, c) + 1e-4 * features(i, c);
    }
    const FeatureKdppOracle oracle(features, 2);
    DistillOptions options;
    options.candidate_budget = 24;
    const DistillationPlan plan(oracle, options);
    for (int pool = 0; pool < 30; ++pool) {
      const auto restricted = plan.propose(rng, items, scales);
      ASSERT_EQ(items.size(), plan.candidate_budget());
      for (std::size_t j = 0; j < items.size(); ++j) {
        ASSERT_GE(items[j], 0);
        ASSERT_LT(items[j], static_cast<int>(n));
        ASSERT_GT(scales[j], 0.0) << "null row proposed (profile "
                                  << profile << ")";
      }
      EXPECT_LE(restricted->log_partition(), plan.log_accept_bound() + 1e-9);
    }
  }
}

// ---- Bit-identity pin of distilled draws ----
//
// FNV-1a fingerprints of seeded distilled draw_many sequences: the items,
// the pools proposed and the recovery retries of every draw, for the feature
// and symmetric families at pools 1 and 4. Recovery off runs the
// configured distilled path; recovery on with distill.accept forcing
// every pool to reject starves the distilled rung on each attempt-0
// stream, so draws land on the undistilled rung. A change to the
// per-draw proposal's uniform→candidate mapping, the acceptance protocol
// or the attempt on which a draw leaves the distilled rung moves these
// fingerprints. Draws are discrete, so the SIMD arms agree unless
// roundoff flips a sample. The test disarms any environment schedule
// first: the pins are of the uninjected path.

std::uint64_t fnv_word(std::uint64_t hash, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t distilled_fingerprint(const CountingOracle& oracle,
                                    const SessionOptions& options,
                                    std::size_t threads) {
  SamplerSession session(oracle, options);
  ThreadPool pool(threads);
  const ExecutionContext ctx(&pool, nullptr);
  RandomStream rng(0xd157111);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const SampleResult& r : session.draw_many(24, rng, ctx)) {
    hash = fnv_word(hash, r.items.size());
    for (const int item : r.items)
      hash = fnv_word(hash, static_cast<std::uint64_t>(item));
    hash = fnv_word(hash, r.diag.proposals);
    hash = fnv_word(hash, r.diag.recovery_retries);
    // Rung numbers are not pinned, only whether the draw degraded.
    EXPECT_EQ(r.diag.degradation_level != 0, options.recovery.enabled);
  }
  return hash;
}

TEST(BitIdentity, DistilledDrawsArePinned) {
  struct Pins {
    std::uint64_t plain;
    std::uint64_t recovered;
  };
  RandomStream setup(0xd15711);
  const FeatureKdppOracle feature(random_gaussian(400, 6, setup), 4);
  const SymmetricKdppOracle symmetric(random_psd(60, 60, setup, 1e-3), 3);
  struct Family {
    const CountingOracle* oracle;
    SamplerKind kind;
    const char* label;
    Pins want;
  };
  const Family families[] = {
      {&feature, SamplerKind::kSequential, "feature",
       {0x2f36e24c4a06c612ULL, 0x3e622d3fdeeea108ULL}},
      {&symmetric, SamplerKind::kBatched, "symmetric",
       {0xdc74b5905c660315ULL, 0x6b21f9a9d0f0d19aULL}},
  };
  FailpointRegistry::instance().disarm_all();
  for (const Family& family : families) {
    SessionOptions options;
    options.kind = family.kind;
    options.distill.enabled = true;
    SessionOptions recovering = options;
    recovering.recovery.enabled = true;
    recovering.distill.max_attempts = 4;
    for (const std::size_t threads : {1, 4}) {
      const std::string at = std::string(simd::path_name()) + " " +
                             family.label + " pool=" + std::to_string(threads);
      const std::uint64_t plain =
          distilled_fingerprint(*family.oracle, options, threads);
      EXPECT_EQ(plain, family.want.plain) << at << " plain " << std::hex
                                          << plain;
      ASSERT_EQ(FailpointRegistry::instance().arm_from_spec(
                    "distill.accept=prob:1"),
                1u);
      const std::uint64_t recovered =
          distilled_fingerprint(*family.oracle, recovering, threads);
      FailpointRegistry::instance().disarm_all();
      EXPECT_EQ(recovered, family.want.recovered)
          << at << " recovered " << std::hex << recovered;
    }
  }
}

// Tiny ground sets: the restricted oracle against exhaustive enumeration
// of the restricted ensemble — the ground truth for the cross-family
// fuzz above.
TEST(RestrictToFuzz, FeatureRestrictionMatchesEnumeration) {
  RandomStream setup(771008);
  const std::size_t n = 7;
  const std::size_t d = 3;
  const std::size_t k = 2;
  const Matrix features = random_gaussian(n, d, setup);
  const FeatureKdppOracle oracle(features, k);

  const std::vector<int> items = {4, 1, 1, 6, 0, 3};
  std::vector<double> scales(items.size());
  for (std::size_t j = 0; j < items.size(); ++j)
    scales[j] = 0.5 + setup.uniform();
  const auto restricted = oracle.restrict_to(items, scales);

  const Matrix gathered = gather_scaled_rows(features, items, scales);
  const Matrix l_restricted = multiply_transposed_b(gathered, gathered);
  const testing::EnumeratedOracle enumerated(
      static_cast<int>(items.size()), static_cast<int>(k),
      [&](std::span<const int> s) {
        return signed_log_det(l_restricted.principal(s)).log_abs;
      });

  const auto p = restricted->marginals();
  const auto p_enum = enumerated.marginals();
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_NEAR(p[i], p_enum[i], 1e-10);
}

}  // namespace
}  // namespace pardpp
