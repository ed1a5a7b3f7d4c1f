#include "sampling/filtering.h"

#include <algorithm>
#include <cmath>

#include "distributions/oracle.h"
#include "dpp/ensemble.h"
#include "linalg/cholesky.h"
#include "linalg/schur.h"
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

}  // namespace

SampleResult sample_small_dpp_bernoulli(const Matrix& kernel,
                                        RandomStream& rng,
                                        const ExecutionContext& ctx,
                                        const FilteringOptions& options) {
  const std::size_t n = kernel.rows();
  check_arg(kernel.square() && kernel.is_symmetric(1e-8),
            "sample_small_dpp_bernoulli: kernel not symmetric");
  SampleResult result;
  if (n == 0) return result;

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
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::clamp(kernel(i, i), 0.0, 1.0 - 1e-12);
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
      ctx, machines, rng,
      // Evaluate: one full proposal per machine — Bernoulli draws,
      // det(L_T) query, and accept draw, all on the machine's stream.
      [&](BernoulliTrial& trial, RandomStream stream) {
        double log_proposal = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (stream.bernoulli(p[i])) {
            trial.batch.push_back(static_cast<int>(i));
            log_proposal += std::log(std::max(p[i], 1e-300));
          } else {
            log_proposal += std::log1p(-p[i]);
          }
        }
        if (trial.batch.size() > size_cap) {
          trial.size_overflow = true;  // outside Omega: size overflow
          return;
        }
        // ratio = det(L_T) det(I - K) / proposal mass.
        double log_target = log_det_i_minus_k;
        if (!trial.batch.empty()) {
          const auto chol = cholesky(l.principal(trial.batch));
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

SampleResult sample_filtering_dpp(const Matrix& l, RandomStream& rng,
                                  const ExecutionContext& ctx,
                                  const FilteringOptions& options) {
  check_arg(l.square() && l.is_symmetric(1e-8),
            "sample_filtering_dpp: ensemble not symmetric");
  const std::size_t n = l.rows();
  SampleResult result;
  if (n == 0) return result;

  Matrix kernel = marginal_kernel(l);
  double sigma = options.sigma;
  if (sigma <= 0.0) sigma = spectral_norm_symmetric(kernel);
  sigma = std::max(sigma, 1e-12);
  const double alpha = 1.0 / (sigma * std::sqrt(static_cast<double>(n)));

  if (alpha > 1.0) {
    // Step (1) of Algorithm 4: the kernel is already small enough.
    auto out = sample_small_dpp_bernoulli(kernel, rng, ctx, options);
    result.items = std::move(out.items);
    result.diag = out.diag;
    return result;
  }

  const auto rounds = static_cast<std::size_t>(std::ceil(
      options.round_multiplier *
      std::log(static_cast<double>(n) / options.eps) / alpha));
  Matrix current_l = l;
  IndexTracker tracker(n);
  FilteringOptions small_options = options;
  small_options.eps =
      std::max(options.eps / static_cast<double>(rounds + 1), 1e-9);

  // Long-lived conditioning state for the round loop (DESIGN.md §2
  // convention 7): the scaled ensemble is conditioned in place via the
  // incremental factor + half-solve Schur on persistent scratch, instead
  // of a fresh Cholesky/solve/gather per accepted round.
  IncrementalCholesky chol;
  std::vector<double> y_scratch;
  std::vector<int> keep_scratch;
  Matrix reduced;

  for (std::size_t round = 0; round < rounds; ++round) {
    const Matrix k_i = marginal_kernel(current_l);
    Matrix small_kernel = k_i;
    small_kernel *= alpha;
    auto step = sample_small_dpp_bernoulli(small_kernel, rng,
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
    current_l *= (1.0 - alpha);
    if (!step.items.empty()) {
      for (const int b : step.items) result.items.push_back(tracker.original(b));
      condition_ensemble_sym_into(current_l, step.items, chol, y_scratch,
                                  keep_scratch, reduced);
      std::swap(current_l, reduced);
      tracker.remove(std::move(step.items));
    }
  }
  std::sort(result.items.begin(), result.items.end());
  if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
  return result;
}

}  // namespace pardpp
