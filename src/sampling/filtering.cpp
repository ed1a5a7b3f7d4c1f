#include "sampling/filtering.h"

#include <algorithm>
#include <cmath>

#include "distributions/oracle.h"
#include "dpp/ensemble.h"
#include "linalg/cholesky.h"
#include "linalg/schur.h"
#include "linalg/simd.h"
#include "linalg/symmetric_eigen.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

namespace {

// One speculative Bernoulli-product proposal of the Lemma 44 rejection
// stage, fully evaluated on machine m's private stream: the proposal, its
// det(L_T) query, and the accept draw. Counter deltas are recorded per
// trial and folded in machine order so diagnostics match the acceptance
// scan.
struct BernoulliTrial {
  std::vector<int> batch;
  bool size_overflow = false;
  bool null_target = false;   // det(L_T) = 0: certain rejection
  bool ratio_overflow = false;
  bool oracle_called = false;
  bool accepted = false;
};

// The Lemma 44 rejection stage for the DPP with marginal kernel K, given
// p = diag(K) clamped to [0, 1), log det(I - K), and `block(T)`, which
// returns the ensemble block L_T of L = K (I - K)^{-1}. It proposes T from
// independent Bernoulli(p_i) and accepts with probability
// det(L_T) det(I - K) / (C * proposal mass), one wave of machines at a
// time. The waves run serially on the calling thread: a trial costs
// microseconds, less than one fork-join of the pool, so fanning a wave
// out only adds dispatch. The logical round (`machines` machines) is
// still charged to `ctx`.
template <typename Block>
SampleResult bernoulli_rejection(std::span<const double> p,
                                 double log_det_i_minus_k, Block&& block,
                                 RandomStream& rng,
                                 const ExecutionContext& ctx,
                                 const FilteringOptions& options) {
  const std::size_t n = p.size();
  SampleResult result;
  if (n == 0) return result;

  // Per-item proposal log-masses, shared by every trial.
  std::vector<double> log_in(n);
  std::vector<double> log_out(n);
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    log_in[i] = std::log(std::max(p[i], 1e-300));
    log_out[i] = std::log1p(-p[i]);
    trace += p[i];
  }
  const std::size_t size_cap =
      options.size_cap != 0
          ? options.size_cap
          : static_cast<std::size_t>(
                std::ceil((trace + std::sqrt(static_cast<double>(n))) *
                              std::log(4.0 / options.eps) * 3.0 +
                          4.0));

  const double machines_needed =
      std::exp(options.log_ratio_cap) * std::log(4.0 / options.eps) * 4.0 +
      16.0;
  const auto machines = static_cast<std::size_t>(
      std::min(machines_needed, static_cast<double>(options.machine_cap)));

  const bool found = run_trial_waves<BernoulliTrial>(
      ExecutionContext::serial(), machines, rng,
      // Evaluate: one full proposal per machine — Bernoulli draws,
      // det(L_T) query, and accept draw, all on the machine's stream.
      [&](BernoulliTrial& trial, RandomStream stream) {
        double log_proposal = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (stream.bernoulli(p[i])) {
            trial.batch.push_back(static_cast<int>(i));
            log_proposal += log_in[i];
          } else {
            log_proposal += log_out[i];
          }
        }
        if (trial.batch.size() > size_cap) {
          trial.size_overflow = true;  // outside Omega: size overflow
          return;
        }
        // ratio = det(L_T) det(I - K) / proposal mass.
        double log_target = log_det_i_minus_k;
        if (!trial.batch.empty()) {
          const auto chol = cholesky(block(trial.batch));
          trial.oracle_called = true;
          if (!chol.has_value()) {
            trial.null_target = true;
            return;
          }
          log_target += chol->log_det();
        }
        const double log_ratio = log_target - log_proposal;
        if (log_ratio > options.log_ratio_cap + 1e-9) {
          trial.ratio_overflow = true;
          return;
        }
        trial.accepted =
            stream.bernoulli(std::exp(log_ratio - options.log_ratio_cap));
      },
      [](std::span<BernoulliTrial>) {},
      // Fold: counters cover scanned trials only, so diagnostics are
      // identical at every pool size.
      [&](BernoulliTrial& trial) {
        ++result.diag.proposals;
        if (trial.oracle_called) ++result.diag.oracle_calls;
        if (trial.size_overflow) {
          ++result.diag.duplicate_rejects;
          return false;
        }
        if (trial.null_target) return false;
        if (trial.ratio_overflow) {
          ++result.diag.ratio_overflows;
          return false;
        }
        if (trial.accepted) {
          ++result.diag.accepted_batches;
          result.items = std::move(trial.batch);
          return true;
        }
        return false;
      });
  if (found) {
    ctx.charge(machines, result.diag.oracle_calls);
    result.diag.rounds = 1;
    if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
    return result;
  }
  throw SamplingFailure(
      "sample_small_dpp_bernoulli: no proposal accepted within the machine "
      "budget");
}

// Eigenpairs of a filtering ensemble, checked positive semidefinite up
// to roundoff.
SymmetricEigen decompose(const Matrix& l) {
  SymmetricEigen eig = symmetric_eigen(l);
  check_numeric(eig.values.empty() ||
                    eig.values.front() >=
                        -1e-8 * std::max(1.0, eig.values.back()),
                "sample_filtering_dpp: ensemble has a negative eigenvalue");
  return eig;
}

// The Lemma 44 stage on the kernel a·K of the ensemble scale·L, with
// L = V diag(λ) Vᵀ given by `eig`. Every input follows from (V, λ) in
// O(n²): with λ clamped at 0, the small kernel's eigenvalues are
// μ = a·scale·λ / (1 + scale·λ), so p_i = Σ_m μ_m V_im² and
// log det(I − aK) = Σ log1p(−μ_m). Its ensemble is U Uᵀ with
// U = V diag(√(μ/(1−μ))), so a trial's block L_T is a Gram of |T| rows of
// U, O(|T|² n).
SampleResult spectral_bernoulli(const SymmetricEigen& eig, double scale,
                                double a, RandomStream& rng,
                                const ExecutionContext& ctx,
                                const FilteringOptions& options) {
  const std::size_t n = eig.values.size();
  std::vector<double> mu(n);
  std::vector<double> root_w(n);
  double log_det_i_minus_k = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    const double lambda = scale * std::max(eig.values[m], 0.0);
    mu[m] = a * lambda / (1.0 + lambda);
    root_w[m] = std::sqrt(mu[m] / (1.0 - mu[m]));
    log_det_i_minus_k += std::log1p(-mu[m]);
  }
  Matrix u(n, n);
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = eig.vectors.row(i);
    const auto u_i = u.row(i);
    double p_i = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      p_i += mu[m] * v[m] * v[m];
      u_i[m] = v[m] * root_w[m];
    }
    p[i] = std::clamp(p_i, 0.0, 1.0 - 1e-12);
  }
  return bernoulli_rejection(
      p, log_det_i_minus_k,
      [&](std::span<const int> t) {
        Matrix block(t.size(), t.size());
        for (std::size_t x = 0; x < t.size(); ++x) {
          const double* row_x = u.row(static_cast<std::size_t>(t[x])).data();
          for (std::size_t y = 0; y <= x; ++y) {
            block(x, y) = block(y, x) = simd::dot(
                row_x, u.row(static_cast<std::size_t>(t[y])).data(), n);
          }
        }
        return block;
      },
      rng, ctx, options);
}

}  // namespace

SampleResult sample_small_dpp_bernoulli(const Matrix& kernel,
                                        RandomStream& rng,
                                        const ExecutionContext& ctx,
                                        const FilteringOptions& options) {
  const std::size_t n = kernel.rows();
  check_arg(kernel.square() && kernel.is_symmetric(1e-8),
            "sample_small_dpp_bernoulli: kernel not symmetric");
  if (n == 0) return {};

  // Spectrum of K: needed for det(I - K) and L = K(I-K)^{-1}.
  double log_det_i_minus_k = 0.0;
  for (const double lambda : symmetric_eigenvalues(kernel)) {
    check_numeric(lambda < 1.0 - 1e-12 && lambda > -1e-8,
                  "sample_small_dpp_bernoulli: kernel eigenvalue outside "
                  "[0, 1)");
    log_det_i_minus_k += std::log1p(-std::max(lambda, 0.0));
  }
  const Matrix l = ensemble_from_kernel(kernel);
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = std::clamp(kernel(i, i), 0.0, 1.0 - 1e-12);
  return bernoulli_rejection(
      p, log_det_i_minus_k,
      [&](std::span<const int> t) { return l.principal(t); }, rng, ctx,
      options);
}

SampleResult sample_filtering_dpp(const Matrix& l, RandomStream& rng,
                                  const ExecutionContext& ctx,
                                  const FilteringOptions& options) {
  check_arg(l.square() && l.is_symmetric(1e-8),
            "sample_filtering_dpp: ensemble not symmetric");
  const std::size_t n = l.rows();
  SampleResult result;
  if (n == 0) return result;

  // sigma_max(K) = λmax / (1 + λmax) for K = L (I + L)^{-1}.
  SymmetricEigen eig = decompose(l);
  const double lambda_max = std::max(eig.values.back(), 0.0);
  double sigma = options.sigma;
  if (sigma <= 0.0) sigma = lambda_max / (1.0 + lambda_max);
  sigma = std::max(sigma, 1e-12);
  const double alpha = 1.0 / (sigma * std::sqrt(static_cast<double>(n)));

  if (alpha > 1.0) {
    // Step (1) of Algorithm 4: the kernel is already small enough.
    return spectral_bernoulli(eig, 1.0, 1.0, rng, ctx, options);
  }

  const auto rounds = static_cast<std::size_t>(std::ceil(
      options.round_multiplier *
      std::log(static_cast<double>(n) / options.eps) / alpha));
  IndexTracker tracker(n);
  FilteringOptions small_options = options;
  small_options.eps =
      std::max(options.eps / static_cast<double>(rounds + 1), 1e-9);

  // The round loop carries L^{(i)} = scale · current_l with `eig` the
  // eigenpairs of current_l. An empty round only rescales (Prop. 42/43:
  // thinning is a kernel rescaling), so (V, λ) are recomputed only after
  // a non-empty round has been conditioned. Conditioning runs in place via
  // the incremental factor + half-solve Schur on persistent scratch
  // (DESIGN.md §2 convention 7).
  Matrix current_l = l;
  double scale = 1.0;
  IncrementalCholesky chol;
  std::vector<double> y_scratch;
  std::vector<int> keep_scratch;
  Matrix reduced;

  for (std::size_t round = 0; round < rounds; ++round) {
    auto step = spectral_bernoulli(eig, scale, alpha, rng,
                                   ctx.without_ledger(), small_options);
    result.diag.proposals += step.diag.proposals;
    result.diag.oracle_calls += step.diag.oracle_calls;
    result.diag.ratio_overflows += step.diag.ratio_overflows;
    result.diag.duplicate_rejects += step.diag.duplicate_rejects;
    result.diag.accepted_batches += step.diag.accepted_batches;
    result.diag.rounds += 1;
    ctx.charge(std::max<std::size_t>(step.diag.proposals, 1),
               step.diag.oracle_calls);

    // L^{(i+1)} = ((1 - alpha) L^{(i)})^{T_i}.
    scale *= 1.0 - alpha;
    if (!step.items.empty()) {
      for (const int b : step.items) result.items.push_back(tracker.original(b));
      current_l *= scale;
      condition_ensemble_sym_into(current_l, step.items, chol, y_scratch,
                                  keep_scratch, reduced);
      std::swap(current_l, reduced);
      scale = 1.0;
      eig = decompose(current_l);
      tracker.remove(std::move(step.items));
    }
  }
  std::sort(result.items.begin(), result.items.end());
  if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
  return result;
}

}  // namespace pardpp
