// Tests for the symmetric eigensolvers (tred2/tql2 vs Jacobi), elementary
// symmetric polynomials, and characteristic-polynomial extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "dpp/ensemble.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/charpoly.h"
#include "linalg/esp.h"
#include "linalg/schur.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/simd.h"
#include "linalg/symmetric_eigen.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/filtering.h"
#include "sampling/sequential.h"
#include "support/combinatorics.h"
#include "support/failpoint.h"
#include "support/logsum.h"
#include "support/random.h"

namespace pardpp {
namespace {

class EigenCrossCheck : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(EigenCrossCheck, QlMatchesJacobi) {
  const auto [n, seed] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) * 1000 + 7);
  const Matrix a = random_psd(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(std::max(1, n / 2)),
                              rng, 1e-4);
  const auto ql = symmetric_eigen(a);
  const auto jac = jacobi_eigen(a);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.values[static_cast<std::size_t>(i)],
                jac.values[static_cast<std::size_t>(i)], 1e-8)
        << "eigenvalue " << i;
  }
  // Eigenvalue-only path agrees too.
  const auto only = symmetric_eigenvalues(a);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(only[static_cast<std::size_t>(i)],
                ql.values[static_cast<std::size_t>(i)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, EigenCrossCheck,
                         ::testing::Combine(::testing::Values(1, 2, 3, 6, 11,
                                                              20, 33),
                                            ::testing::Values(1, 2, 3)));

TEST(Eigen, Reconstruction) {
  RandomStream rng(41);
  const Matrix a = random_psd(8, 8, rng);
  const auto eig = symmetric_eigen(a);
  Matrix recon(8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (std::size_t m = 0; m < 8; ++m)
        acc += eig.vectors(i, m) * eig.values[m] * eig.vectors(j, m);
      recon(i, j) = acc;
    }
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-9);
}

TEST(Eigen, VectorsOrthonormal) {
  RandomStream rng(42);
  const Matrix a = random_psd(7, 7, rng);
  const auto eig = symmetric_eigen(a);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = 0; q < 7; ++q) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 7; ++i)
        dot += eig.vectors(i, p) * eig.vectors(i, q);
      EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Eigen, KnownSpectrum) {
  // diag(1, 2, 3) in a rotated basis.
  RandomStream rng(43);
  const std::vector<double> spectrum = {1.0, 2.0, 3.0};
  const Matrix a = kernel_with_spectrum(spectrum, rng);
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-9);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-9);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-9);
  EXPECT_NEAR(spectral_norm_symmetric(a), 3.0, 1e-9);
}

TEST(Eigen, HandlesZeroAndOneByOne) {
  const auto empty = symmetric_eigen(Matrix(0, 0));
  EXPECT_TRUE(empty.values.empty());
  Matrix one(1, 1);
  one(0, 0) = 5.0;
  const auto single = symmetric_eigen(one);
  EXPECT_DOUBLE_EQ(single.values[0], 5.0);
}

// Fast-decaying PSD spectra leave subdiagonal entries that the local,
// relative deflation test alone never accepts; the QL iteration must still
// converge to an accurate, orthonormal decomposition.
TEST(Eigen, ConvergesOnFastDecayingSpectra) {
  struct Case {
    std::size_t n;
    double rate;  // lambda_i = exp(-i * rate)
  };
  for (const Case c : {Case{96, 0.5}, Case{144, 0.25}, Case{200, 0.25}}) {
    std::vector<double> spectrum(c.n);
    for (std::size_t i = 0; i < c.n; ++i)
      spectrum[i] = std::exp(-static_cast<double>(i) * c.rate);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      RandomStream rng(seed);
      const Matrix a = kernel_with_spectrum(spectrum, rng);
      SymmetricEigen eig;
      ASSERT_NO_THROW(eig = symmetric_eigen(a))
          << "n=" << c.n << " rate=" << c.rate << " seed=" << seed;
      EXPECT_EQ(symmetric_eigenvalues(a), eig.values);
      double residual = 0.0;
      double orthogonality = 0.0;
      for (std::size_t j = 0; j < c.n; ++j) {
        for (std::size_t i = 0; i < c.n; ++i) {
          double av = 0.0;
          double vv = 0.0;
          for (std::size_t m = 0; m < c.n; ++m) {
            av += a(i, m) * eig.vectors(m, j);
            vv += eig.vectors(m, i) * eig.vectors(m, j);
          }
          residual = std::max(
              residual, std::abs(av - eig.values[j] * eig.vectors(i, j)));
          orthogonality =
              std::max(orthogonality, std::abs(vv - (i == j ? 1.0 : 0.0)));
        }
      }
      EXPECT_LE(residual, 1e-13)
          << "n=" << c.n << " rate=" << c.rate << " seed=" << seed;
      EXPECT_LE(orthogonality, 1e-12)
          << "n=" << c.n << " rate=" << c.rate << " seed=" << seed;
    }
  }
}

// ---- Bit-identity pins ----
//
// FNV-1a fingerprints of the exact output bits of the eigensolvers, the LU
// inverse / multi-RHS solve and seeded filtering samples. The expected
// values are those of the textbook column-walk loops (one right-hand side
// at a time for LU): the row-oriented loops must reproduce them with the
// linalg pool detached or attached at any size, and on either SIMD arm.

class BitHash {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add_word(bits);
  }
  void add(std::complex<double> x) {
    add(x.real());
    add(x.imag());
  }
  template <typename T>
  void add(const BasicMatrix<T>& m) {
    add_word(m.rows());
    add_word(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) add(m(i, j));
  }
  void add(const std::vector<double>& v) {
    add_word(v.size());
    for (const double x : v) add(x);
  }
  void add(const std::vector<int>& v) {
    add_word(v.size());
    for (const int x : v) add_word(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

  void add_word(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

template <typename... Parts>
std::uint64_t fingerprint(const Parts&... parts) {
  BitHash h;
  (h.add(parts), ...);
  return h.value();
}

struct LinalgPins {
  std::uint64_t eigen;
  std::uint64_t eigenvalues;
  std::uint64_t jacobi;
  std::uint64_t inverse;
  std::uint64_t solve;
  std::uint64_t complex_inverse;
  std::uint64_t filtering;
};

LinalgPins compute_pins(std::size_t n, const ExecutionContext& ctx) {
  RandomStream rng(0xb17b17 + n);
  Matrix sym(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      sym(i, j) = sym(j, i) = rng.uniform(-1.0, 1.0);
  Matrix general(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) general(i, j) = rng.uniform(-1.0, 1.0);
  Matrix rhs(n, 5);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 5; ++j) rhs(i, j) = rng.uniform(-1.0, 1.0);
  CMatrix complex_general(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      complex_general(i, j) = {rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.0, 1.0)};
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i)
    spectrum[i] = 0.4 * (0.25 + 0.75 * static_cast<double>(i) /
                                    static_cast<double>(std::max<std::size_t>(
                                        n - 1, 1)));
  const Matrix ensemble =
      ensemble_from_kernel(kernel_with_spectrum(spectrum, rng));

  const auto eig = symmetric_eigen(sym);
  const auto jac = jacobi_eigen(sym);
  const auto lu = lu_factor(general);
  std::vector<std::vector<int>> samples;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream draw(seed);
    samples.push_back(sample_filtering_dpp(ensemble, draw, ctx).items);
  }
  return {fingerprint(eig.values, eig.vectors),
          fingerprint(symmetric_eigenvalues(sym)),
          fingerprint(jac.values, jac.vectors),
          fingerprint(lu.inverse()),
          fingerprint(lu.solve_matrix(rhs)),
          fingerprint(lu_factor(complex_general).inverse()),
          fingerprint(samples[0], samples[1], samples[2])};
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

void expect_pins(std::size_t n, const LinalgPins& want, const LinalgPins& got,
                 const std::string& where) {
  const std::string at = "n=" + std::to_string(n) + " " + where;
  EXPECT_EQ(got.eigen, want.eigen) << at << " eigen " << hex(got.eigen);
  EXPECT_EQ(got.eigenvalues, want.eigenvalues)
      << at << " eigenvalues " << hex(got.eigenvalues);
  EXPECT_EQ(got.jacobi, want.jacobi) << at << " jacobi " << hex(got.jacobi);
  EXPECT_EQ(got.inverse, want.inverse) << at << " inverse " << hex(got.inverse);
  EXPECT_EQ(got.solve, want.solve) << at << " solve " << hex(got.solve);
  EXPECT_EQ(got.complex_inverse, want.complex_inverse)
      << at << " complex_inverse " << hex(got.complex_inverse);
  EXPECT_EQ(got.filtering, want.filtering)
      << at << " filtering " << hex(got.filtering);
}

TEST(BitIdentity, LinalgAndFilteringOutputsArePinned) {
  struct Pinned {
    std::size_t n;
    LinalgPins pins;
  };
  const Pinned table[] = {
      {1,
       {0x6035c34a3160a766ULL, 0x5961f68ead9cd117ULL,
        0x6035c34a3160a766ULL, 0x149d49495d8b7532ULL,
        0xcab9dbcb7fffcaccULL, 0xdbd7a56549ddb5f3ULL,
        0x81d23fd7003c2305ULL}},
      {2,
       {0x529e5ce5629ee150ULL, 0x17e7701a5ae26a94ULL,
        0x529e5ce5629ee150ULL, 0xed7f865f83a184c2ULL,
        0xb741bc483c9d93b8ULL, 0xad52874221e72066ULL,
        0x8a7c00ee61153405ULL}},
      {3,
       {0xcc454311ceb40249ULL, 0x4d89f2748b2d6c64ULL,
        0x6ddb3a2d5aefc48cULL, 0x4136329c5098acefULL,
        0x04ad00284f76580aULL, 0x68b978bc6fc41d4bULL,
        0xde5e65ee800e32a5ULL}},
      {17,
       {0x84998a5cdb61538dULL, 0xb274221d93e36fcaULL,
        0x797e1704938be724ULL, 0x1ac8d8ba3d4da218ULL,
        0xb93e022a25188b49ULL, 0x0ba20f42a3a65b3eULL,
        0xbdb38f13b96f3e3bULL}},
      {96,
       {0xfa4622cccb306e6aULL, 0x4186d4f0242bed65ULL,
        0x035664a0a31f29cdULL, 0x69151ee7cac3372aULL,
        0xd06b61d5d9a899e1ULL, 0x022d97a6aacd54e9ULL,
        0x1db50a9f18964703ULL}},
      {128,
       {0x0a969170d066dcd5ULL, 0xad444a4a635e4b2eULL,
        0x9d44dfaa42dd6ccfULL, 0x4ad55b55bfb54f7aULL,
        0x7ab0d1743b76f822ULL, 0x4340c3e4278caabcULL,
        0xff1672e9d0a9c9b8ULL}},
      {144,
       {0x370638966813e3bdULL, 0x2bbc3b5878dd8f92ULL,
        0x0ac3fbfad53ea1deULL, 0x27e440a08a6a3feaULL,
        0x3c64d1f5a20e89a4ULL, 0x7f013ee6052d1ad3ULL,
        0x89bd55e0607c7aeaULL}},
      {200,
       {0x8074636f5231bc55ULL, 0x51ab96ca95410ce9ULL,
        0x354bb43d5ff76240ULL, 0xfad4525ba069c8c7ULL,
        0x6291fe2d2ab2fbc6ULL, 0x43da93f9f7aa29d8ULL,
        0xc94cde9634405b69ULL}},
  };
  for (const Pinned& p : table) {
    expect_pins(p.n, p.pins, compute_pins(p.n, ExecutionContext::serial()),
                "detached");
    if (p.n < 128) continue;
    // Large enough for the eigensolver's pooled accumulation to fan out.
    for (const std::size_t threads : {1, 4}) {
      ThreadPool pool(threads);
      set_linalg_pool(&pool);
      const LinalgPins got =
          compute_pins(p.n, ExecutionContext(&pool, nullptr));
      set_linalg_pool(nullptr);
      expect_pins(p.n, p.pins, got, "pool=" + std::to_string(threads));
    }
  }
}

// Seeded draws through SymmetricKdppOracle's commit path, each draw's
// spectral_refreshes folded in after its items. `commit` decides per round
// between the factor-native finish and a spectral refresh, so a change to
// its guards' inputs, their order, or the hits on which the
// symmetric.commit.guard failpoint is consulted moves these fingerprints.
// The Cholesky and Schur kernels dispatch per SIMD arm, so the arm in
// effect picks its own constants; pools 1 and 4 must reproduce them.

Matrix t10_rbf_kernel() {
  RandomStream rng(0x7105);
  Matrix l = rbf_kernel(random_points(144, 2, rng), 0.25);
  for (std::size_t i = 0; i < l.rows(); ++i) l(i, i) += 1e-6;
  return l;
}

enum class CommitSampler { kBatched, kSequential, kEntropic };

std::uint64_t commit_fingerprint(const SymmetricKdppOracle& oracle,
                                 CommitSampler sampler,
                                 const ExecutionContext& ctx,
                                 std::uint64_t draws) {
  BitHash h;
  for (std::uint64_t seed = 1; seed <= draws; ++seed) {
    RandomStream rng(seed);
    const SampleResult result =
        sampler == CommitSampler::kBatched    ? sample_batched(oracle, rng, ctx)
        : sampler == CommitSampler::kEntropic ? sample_entropic(oracle, rng, ctx)
                                              : sample_sequential(oracle, rng);
    h.add(result.items);
    h.add_word(result.diag.spectral_refreshes);
  }
  return h.value();
}

struct CommitPins {
  std::uint64_t batched;
  std::uint64_t sequential;
  std::uint64_t entropic;
};

TEST(BitIdentity, SymmetricCommitPathIsPinned) {
  struct ArmPins {
    CommitPins t10;
    CommitPins psd;
    std::uint64_t guarded;  // batched draws on both kernels, failpoint armed
  };
  // Indexed by simd::Path. Draws carry no floating-point output, so the
  // two arms agree unless roundoff flips a sample or a guard verdict.
  const ArmPins table[] = {
      // kScalar
      {{0xe44a1164a05f42cbULL, 0xa3f8c003db493453ULL, 0x785ca07ac7669027ULL},
       {0x629c085397a8b9d1ULL, 0x21ee854d42096d22ULL, 0xe79f7b93b01499bdULL},
       0x6695b671f55c79f2ULL},
      // kAvx2
      {{0xe44a1164a05f42cbULL, 0xa3f8c003db493453ULL, 0x785ca07ac7669027ULL},
       {0x629c085397a8b9d1ULL, 0x21ee854d42096d22ULL, 0xe79f7b93b01499bdULL},
       0x6695b671f55c79f2ULL},
  };
  const ArmPins& want = table[static_cast<int>(simd::active_path())];
  const std::string arm = simd::path_name();
  RandomStream setup(0x7106);
  const SymmetricKdppOracle t10(t10_rbf_kernel(), 36);
  const SymmetricKdppOracle psd(random_psd(128, 128, setup, 1e-5), 10);
  // An entropic draw on the t10 kernel costs about a second; one suffices.
  const auto kernels = {std::tuple{&t10, want.t10, "t10", 1},
                        std::tuple{&psd, want.psd, "psd", 3}};
  for (const auto& [oracle, pins, label, entropic_draws] : kernels) {
    // The sequential sampler takes no pool.
    const std::uint64_t sequential =
        commit_fingerprint(*oracle, CommitSampler::kSequential, {}, 3);
    EXPECT_EQ(sequential, pins.sequential)
        << arm << " " << label << " sequential " << hex(sequential);
  }
  for (const std::size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    const std::string at = arm + " pool=" + std::to_string(threads);
    for (const auto& [oracle, pins, label, entropic_draws] : kernels) {
      const std::uint64_t batched =
          commit_fingerprint(*oracle, CommitSampler::kBatched, ctx, 3);
      const std::uint64_t entropic = commit_fingerprint(
          *oracle, CommitSampler::kEntropic, ctx, entropic_draws);
      EXPECT_EQ(batched, pins.batched)
          << at << " " << label << " batched " << hex(batched);
      EXPECT_EQ(entropic, pins.entropic)
          << at << " " << label << " entropic " << hex(entropic);
    }
    // Unscoped probability trigger: hit ordinals count globally from the
    // arm, and commits run on the calling thread, so the firing pattern
    // is fixed by the order of consultations alone.
    ASSERT_EQ(FailpointRegistry::instance().arm_from_spec(
                  "symmetric.commit.guard=prob:0.3"),
              1u);
    BitHash guarded;
    guarded.add_word(commit_fingerprint(t10, CommitSampler::kBatched, ctx, 3));
    guarded.add_word(commit_fingerprint(psd, CommitSampler::kBatched, ctx, 3));
    EXPECT_GT(FailpointRegistry::instance().fires("symmetric.commit.guard"), 0u);
    FailpointRegistry::instance().disarm("symmetric.commit.guard");
    EXPECT_EQ(guarded.value(), want.guarded)
        << at << " guarded " << hex(guarded.value());
  }
}

// ---- Elementary symmetric polynomials ----

double brute_esp(std::span<const double> lambda, int j) {
  double total = 0.0;
  for_each_subset(static_cast<int>(lambda.size()), j,
                  [&](std::span<const int> subset) {
                    double prod = 1.0;
                    for (const int i : subset)
                      prod *= lambda[static_cast<std::size_t>(i)];
                    total += prod;
                  });
  return total;
}

class EspTest : public ::testing::TestWithParam<int> {};

TEST_P(EspTest, MatchesBruteForce) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> lambda(7);
  for (auto& v : lambda) v = rng.uniform() * 3.0;
  lambda[2] = 0.0;  // exercise zero handling
  const auto log_e = log_esp(lambda, 7);
  for (int j = 0; j <= 7; ++j) {
    const double brute = brute_esp(lambda, j);
    EXPECT_NEAR(std::exp(log_e[static_cast<std::size_t>(j)]), brute,
                1e-9 * std::max(1.0, brute))
        << "e_" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Esp, LeaveOneOutIdentity) {
  // e_j(lambda) = e_j(lambda \ m) + lambda_m e_{j-1}(lambda \ m).
  RandomStream rng(51);
  std::vector<double> lambda(9);
  for (auto& v : lambda) v = rng.uniform() * 2.0;
  const LogEspTable table(lambda, 5);
  for (std::size_t m = 0; m < 9; ++m) {
    for (std::size_t j = 1; j <= 5; ++j) {
      const double lhs = std::exp(table.log_e(j));
      const double rhs =
          std::exp(table.log_e_without(m, j)) +
          lambda[m] * std::exp(table.log_e_without(m, j - 1));
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, lhs));
    }
  }
}

TEST(Esp, LargeValuesStayInLogDomain) {
  // 300 eigenvalues of size ~1e10: e_150 overflows double massively but
  // must be finite in log domain.
  std::vector<double> lambda(300, 1e10);
  const auto log_e = log_esp(lambda, 150);
  EXPECT_TRUE(std::isfinite(log_e[150]));
  // e_150 = C(300,150) * 1e1500.
  EXPECT_NEAR(log_e[150], log_binomial(300, 150) + 150.0 * std::log(1e10),
              1e-6 * log_e[150]);
}

TEST(NewtonEsp, MatchesLogEspTableOnRandomSpectra) {
  RandomStream rng(52);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(rng.uniform_index(8));
    const std::size_t jmax = std::min<std::size_t>(n, 6);
    std::vector<double> lambda(n);
    for (auto& v : lambda) v = rng.uniform() * 2.0 + 0.05;
    std::vector<double> traces(jmax, 0.0);
    for (const double lam : lambda) {
      double p = 1.0;
      for (std::size_t v = 1; v <= jmax; ++v) {
        p *= lam;
        traces[v - 1] += p;
      }
    }
    const NewtonEsp ne = esp_from_power_traces(traces, jmax);
    const LogEspTable table(lambda, jmax);
    for (std::size_t j = 0; j <= jmax; ++j) {
      ASSERT_TRUE(ne.well_conditioned(j, kEspCancelGuard))
          << "trial " << trial << " j=" << j;
      EXPECT_NEAR(std::log(ne.e[j]), table.log_e(j), 1e-12)
          << "trial " << trial << " j=" << j;
    }
  }
}

TEST(NewtonEsp, CancellationMonitorFlagsNearRankDeficientSpectra) {
  // A spectrum whose e_4 is ~1e-12 of the |term| mass: the alternating
  // Newton sum cancels catastrophically and well_conditioned must say so
  // (this is what routes the oracle fast paths to the spectral fallback).
  const std::vector<double> lambda = {1.0, 1.0, 1.0, 1e-12};
  std::vector<double> traces(4, 0.0);
  for (const double lam : lambda) {
    double p = 1.0;
    for (std::size_t v = 1; v <= 4; ++v) {
      p *= lam;
      traces[v - 1] += p;
    }
  }
  const NewtonEsp ne = esp_from_power_traces(traces, 4);
  EXPECT_TRUE(ne.well_conditioned(3, kEspCancelGuard));
  EXPECT_FALSE(ne.well_conditioned(4, kEspCancelGuard));
}

// ---- Block moment probe (factor-native Schur downdates) ----

// Direct power traces / diagonal moments of mhat = m / scale.
void direct_moments(const Matrix& m, double scale, std::size_t vmax,
                    std::vector<double>& traces, std::vector<double>& diag) {
  const std::size_t n = m.rows();
  Matrix mhat = m;
  mhat *= 1.0 / scale;
  Matrix power = Matrix::identity(n);
  traces.assign(vmax, 0.0);
  diag.assign(vmax * n, 0.0);
  for (std::size_t v = 1; v <= vmax; ++v) {
    power = power * mhat;
    traces[v - 1] = power.trace();
    for (std::size_t i = 0; i < n; ++i) diag[(v - 1) * n + i] = power(i, i);
  }
}

TEST(BlockMomentProbe, DowndatedMomentsMatchSchurComplement) {
  RandomStream rng(53);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_index(5));
    const Matrix m = random_psd(n, n, rng, 1e-2);
    const std::size_t vmax = 4;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, m(i, i));
    const std::vector<int> elim = {1, static_cast<int>(n - 2)};
    IncrementalCholesky chol(elim.size());
    std::vector<double> row;
    for (std::size_t r = 0; r < elim.size(); ++r) {
      row.resize(r + 1);
      for (std::size_t c = 0; c <= r; ++c)
        row[c] = m(static_cast<std::size_t>(elim[r]),
                   static_cast<std::size_t>(elim[c]));
      ASSERT_TRUE(chol.append(row));
    }
    std::vector<double> base_traces;
    std::vector<double> base_diag;
    direct_moments(m, scale, vmax, base_traces, base_diag);
    BlockMomentProbe probe;
    probe.build(m, scale, elim, chol, vmax);
    std::vector<double> traces;
    std::vector<double> traces_abs;
    std::vector<double> diag;
    std::vector<double> diag_abs;
    probe.downdated_traces(base_traces, base_traces, vmax, traces, traces_abs);
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    probe.downdated_diag(all, base_diag, base_diag, vmax, diag, diag_abs);
    // Reference: moments of the Schur complement, embedded in the full
    // index set (eliminated rows contribute exact zeros).
    const auto keep = complement_indices(n, elim);
    const auto schur = schur_complement(m, keep, elim, /*symmetric=*/true);
    std::vector<double> want_traces;
    std::vector<double> want_diag_reduced;
    direct_moments(schur.reduced, scale, vmax, want_traces,
                   want_diag_reduced);
    for (std::size_t v = 1; v <= vmax; ++v) {
      EXPECT_NEAR(traces[v - 1], want_traces[v - 1],
                  1e-10 * std::max(1.0, traces_abs[v - 1]))
          << "trial " << trial << " v=" << v;
      for (std::size_t j = 0; j < keep.size(); ++j) {
        const auto ki = static_cast<std::size_t>(keep[j]);
        EXPECT_NEAR(diag[(v - 1) * n + ki],
                    want_diag_reduced[(v - 1) * keep.size() + j],
                    1e-10 * std::max(1.0, diag_abs[(v - 1) * n + ki]))
            << "trial " << trial << " v=" << v << " i=" << ki;
      }
      // Eliminated rows land at zero up to monitored drift.
      for (const int e : elim) {
        const auto ei = static_cast<std::size_t>(e);
        EXPECT_NEAR(diag[(v - 1) * n + ei], 0.0,
                    1e-10 * std::max(1.0, diag_abs[(v - 1) * n + ei]));
      }
    }
  }
}

// Test-local copy of the probe's build (same arithmetic, so the same
// bits) and of the per-(a, m, b) triple loop downdated_diag ran before it
// formed each Gamma_m w_b[i] once per row.
struct ReferenceDiagDowndate {
  std::size_t n;
  std::size_t s;
  std::vector<double> w;
  std::vector<double> g;
  std::vector<double> g_abs;

  ReferenceDiagDowndate(const Matrix& m, double scale,
                        std::span<const int> elim,
                        const IncrementalCholesky& chol, std::size_t orders)
      : n(m.rows()),
        s(elim.size()),
        w(orders * n * s, 0.0),
        g(orders * s * s, 0.0),
        g_abs(orders * s * s, 0.0) {
    std::vector<double> t(orders * s * s, 0.0);
    std::vector<double> rows(s * n);
    for (std::size_t r = 0; r < s; ++r)
      for (std::size_t j = 0; j < n; ++j)
        rows[r * n + j] = m(static_cast<std::size_t>(elim[r]), j);
    chol.forward_solve_rows(rows.data(), n, n);
    const double inv_sqrt_scale = 1.0 / std::sqrt(scale);
    for (std::size_t r = 0; r < s; ++r)
      for (std::size_t i = 0; i < n; ++i)
        w[i * s + r] = rows[r * n + i] * inv_sqrt_scale;
    const double inv_scale = 1.0 / scale;
    for (std::size_t a = 0; a + 1 < orders; ++a) {
      for (std::size_t i = 0; i < n; ++i) {
        double* out_row = w.data() + (a + 1) * n * s + i * s;
        for (std::size_t j = 0; j < n; ++j) {
          const double coeff = m(i, j) * inv_scale;
          if (coeff == 0.0) continue;
          const double* in_row = w.data() + a * n * s + j * s;
          for (std::size_t c = 0; c < s; ++c) out_row[c] += coeff * in_row[c];
        }
      }
    }
    for (std::size_t v = 0; v < orders; ++v) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < s; ++r) {
          const double ur = w[i * s + r];
          if (ur == 0.0) continue;
          for (std::size_t c = 0; c < s; ++c)
            t[v * s * s + r * s + c] += ur * w[v * n * s + i * s + c];
        }
      }
    }
    for (std::size_t r = 0; r < s; ++r) {
      g[r * s + r] = -1.0;
      g_abs[r * s + r] = 1.0;
    }
    for (std::size_t mo = 1; mo < orders; ++mo) {
      double* gm = g.data() + mo * s * s;
      double* gm_abs = g_abs.data() + mo * s * s;
      for (std::size_t v = 0; v < mo; ++v) {
        const double* gprev = g.data() + (mo - 1 - v) * s * s;
        const double* gprev_abs = g_abs.data() + (mo - 1 - v) * s * s;
        const double* tv = t.data() + v * s * s;
        for (std::size_t r = 0; r < s; ++r) {
          for (std::size_t p = 0; p < s; ++p) {
            for (std::size_t c = 0; c < s; ++c) {
              gm[r * s + c] -= gprev[r * s + p] * tv[p * s + c];
              gm_abs[r * s + c] += gprev_abs[r * s + p] * std::abs(tv[p * s + c]);
            }
          }
        }
      }
      for (std::size_t r = 0; r < s; ++r) {
        for (std::size_t c = r + 1; c < s; ++c) {
          const double sym = 0.5 * (gm[r * s + c] + gm[c * s + r]);
          gm[r * s + c] = gm[c * s + r] = sym;
          const double sym_abs = 0.5 * (gm_abs[r * s + c] + gm_abs[c * s + r]);
          gm_abs[r * s + c] = gm_abs[c * s + r] = sym_abs;
        }
      }
    }
  }

  void diag(const std::vector<double>& base,
            const std::vector<double>& base_abs, std::size_t vmax,
            std::vector<double>& out, std::vector<double>& out_abs) const {
    out.assign(base.begin(), base.begin() + static_cast<std::ptrdiff_t>(vmax * n));
    out_abs.assign(base_abs.begin(),
                   base_abs.begin() + static_cast<std::ptrdiff_t>(vmax * n));
    std::vector<double> gw(s), gw_abs(s);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t v = 1; v <= vmax; ++v) {
        double acc = 0.0;
        double acc_abs = 0.0;
        for (std::size_t a = 0; a < v; ++a) {
          const double* wa = w.data() + a * n * s + i * s;
          for (std::size_t b = a; a + b < v; ++b) {
            const std::size_t mo = v - 1 - a - b;
            const double* gm = g.data() + mo * s * s;
            const double* gm_abs = g_abs.data() + mo * s * s;
            const double* wb = w.data() + b * n * s + i * s;
            for (std::size_t r = 0; r < s; ++r) {
              double dot = 0.0;
              double dot_abs = 0.0;
              for (std::size_t c = 0; c < s; ++c) {
                dot += gm[r * s + c] * wb[c];
                dot_abs += gm_abs[r * s + c] * std::abs(wb[c]);
              }
              gw[r] = dot;
              gw_abs[r] = dot_abs;
            }
            double q = 0.0;
            double q_abs = 0.0;
            for (std::size_t r = 0; r < s; ++r) {
              q += wa[r] * gw[r];
              q_abs += std::abs(wa[r]) * gw_abs[r];
            }
            const double mult = (a == b) ? 1.0 : 2.0;
            acc += mult * q;
            acc_abs += mult * q_abs;
          }
        }
        out[(v - 1) * n + i] += acc;
        out_abs[(v - 1) * n + i] += acc_abs;
      }
    }
  }
};

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

TEST(BlockMomentProbe, DiagRowsMatchReferenceBitwise) {
  RandomStream rng(0xd1a6);
  constexpr std::size_t orders = 12;
  for (const std::size_t n : {8, 33, 144}) {
    const Matrix m = random_psd(n, n, rng, 1e-3);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, m(i, i));
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    std::vector<double> base(orders * n);
    std::vector<double> base_abs(orders * n);
    for (std::size_t j = 0; j < base.size(); ++j) {
      base[j] = rng.uniform(-1.0, 1.0);
      base_abs[j] = std::abs(base[j]) + rng.uniform();
    }
    for (const std::size_t s : {1, 2, 3, 6}) {
      // 7 is coprime to every n above, so these s indices are distinct.
      std::vector<int> elim(s);
      for (std::size_t r = 0; r < s; ++r)
        elim[r] = static_cast<int>((7 * r + 3) % n);
      IncrementalCholesky chol(s);
      std::vector<double> row;
      for (std::size_t r = 0; r < s; ++r) {
        row.resize(r + 1);
        for (std::size_t c = 0; c <= r; ++c)
          row[c] = m(static_cast<std::size_t>(elim[r]),
                     static_cast<std::size_t>(elim[c]));
        ASSERT_TRUE(chol.append(row));
      }
      BlockMomentProbe probe;
      probe.build(m, scale, elim, chol, orders);
      const ReferenceDiagDowndate reference(m, scale, elim, chol, orders);
      for (const std::size_t vmax : {std::size_t{1}, std::size_t{2}, orders}) {
        const std::string at = "n=" + std::to_string(n) +
                               " s=" + std::to_string(s) +
                               " vmax=" + std::to_string(vmax);
        std::vector<double> got, got_abs, want, want_abs;
        probe.downdated_diag(all, base, base_abs, vmax, got, got_abs);
        reference.diag(base, base_abs, vmax, want, want_abs);
        EXPECT_EQ(bits_of(got), bits_of(want)) << at;
        EXPECT_EQ(bits_of(got_abs), bits_of(want_abs)) << at;
        // The commit path's drift check: the eliminated rows at v <= 2.
        const std::size_t vcheck = std::min<std::size_t>(2, vmax);
        std::vector<double> sub, sub_abs;
        probe.downdated_diag(elim, base, base_abs, vcheck, sub, sub_abs);
        ASSERT_EQ(sub.size(), vcheck * s) << at;
        for (std::size_t v = 0; v < vcheck; ++v) {
          for (std::size_t j = 0; j < s; ++j) {
            const auto i = static_cast<std::size_t>(elim[j]);
            EXPECT_EQ(bits_of({sub[v * s + j], sub_abs[v * s + j]}),
                      bits_of({got[v * n + i], got_abs[v * n + i]}))
                << at << " v=" << v + 1 << " row " << i;
          }
        }
      }
    }
  }
}

// ---- Characteristic polynomial ----

double brute_minor_sum(const Matrix& m, int j) {
  double total = 0.0;
  for_each_subset(static_cast<int>(m.rows()), j,
                  [&](std::span<const int> subset) {
                    total += det_small(m.principal(subset));
                  });
  return total;
}

class CharPolyTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CharPolyTest, MatchesBruteForceMinorSums) {
  const auto [seed, symmetric] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) + 100);
  const Matrix m = symmetric ? random_psd(6, 6, rng, 1e-3)
                             : random_npsd(6, rng, 0.7);
  for (std::size_t jstar = 1; jstar <= 6; ++jstar) {
    const auto coeffs = charpoly_log_coeffs(m, jstar);
    const double brute = brute_minor_sum(m, static_cast<int>(jstar));
    const double got = coeffs[jstar].sign * std::exp(coeffs[jstar].log_abs);
    EXPECT_NEAR(got, brute, 1e-7 * std::max(1.0, std::abs(brute)))
        << "coefficient " << jstar;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSymmetry, CharPolyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

TEST(CharPoly, NewtonIdentitiesAgree) {
  RandomStream rng(61);
  const Matrix m = random_psd(5, 5, rng, 1e-3);
  const auto newton = charpoly_newton(m, 5);
  const auto lambda = symmetric_eigenvalues(m);
  const auto log_e = log_esp(lambda, 5);
  for (std::size_t j = 0; j <= 5; ++j) {
    EXPECT_NEAR(newton[j], std::exp(log_e[j]),
                1e-8 * std::max(1.0, newton[j]));
  }
}

TEST(CharPoly, SaddleRadiusTargetsExpectedSize) {
  RandomStream rng(62);
  const Matrix m = random_psd(12, 12, rng, 1e-2);
  const double rho = saddle_point_radius(m, 4.0);
  // Expected size at rho should be ~4: tr(rho M (I + rho M)^{-1}).
  Matrix a = m * rho;
  for (std::size_t i = 0; i < 12; ++i) a(i, i) += 1.0;
  const Matrix inv = lu_factor(a).inverse();
  double expected = 12.0;
  for (std::size_t i = 0; i < 12; ++i) expected -= inv(i, i);
  EXPECT_NEAR(expected, 4.0, 0.05);
}

TEST(CharPoly, ZeroMatrixCoefficients) {
  const Matrix zero(4, 4);
  const auto coeffs = charpoly_log_coeffs(zero, 4);
  EXPECT_EQ(coeffs[0].sign, 1);
  EXPECT_NEAR(coeffs[0].log_abs, 0.0, 1e-9);
  for (std::size_t j = 1; j <= 4; ++j) EXPECT_EQ(coeffs[j].sign, 0);
}

}  // namespace
}  // namespace pardpp
