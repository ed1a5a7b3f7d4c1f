#include "sampling/entropic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dpp/subdivision.h"
#include "sampling/batched.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

namespace {

// Lemma 36 cap: KL(mu_l || mu'_l) <= (l^2 / k)(log(2n/k)/alpha + 1); the
// acceptance-ratio log concentrates around the KL divergence, so the cap
// is that bound scaled by `cap_multiplier` plus `cap_slack`.
double lemma36_cap(std::size_t l, std::size_t k, std::size_t n,
                   const EntropicOptions& options) {
  const double ratio = static_cast<double>(l) * static_cast<double>(l) /
                       static_cast<double>(k);
  const double log_term =
      std::log(std::max(2.0 * static_cast<double>(n) /
                            static_cast<double>(k),
                        2.0)) /
      options.alpha;
  return options.cap_multiplier * ratio * (log_term + 1.0) +
         options.cap_slack;
}

}  // namespace

SampleResult sample_entropic_on(CommittedOracle& state, RandomStream& rng,
                                const ExecutionContext& ctx,
                                const EntropicOptions& options) {
  check_arg(options.c > 0.0 && options.c <= 0.5,
            "sample_entropic: need 0 < c <= 1/2");
  check_arg(options.alpha > 0.0, "sample_entropic: alpha must be positive");
  check_arg(state.committed_count() == 0,
            "sample_entropic_on: state not at its base distribution");
  const std::size_t refreshes_before = state.spectral_refreshes();
  SampleResult result;
  IndexTracker tracker(state.ground_size());
  const auto k0 = static_cast<double>(state.sample_size());
  // Rounds are bounded by ~ k / l; budget the failure probability across a
  // generous estimate.
  const double round_bound = 2.0 * k0 + 2.0;
  const double delta_round =
      std::max(options.failure_prob / round_bound, 1e-12);

  while (state.sample_size() > 0) {
    const std::size_t k = state.sample_size();
    std::size_t l =
        options.max_batch != 0
            ? options.max_batch
            : static_cast<std::size_t>(std::floor(
                  std::pow(static_cast<double>(k), 0.5 - options.c)));
    l = std::clamp<std::size_t>(l, 1, k);

    // Optional isotropic transformation for this round.
    const CountingOracle* round_oracle = &state;
    std::unique_ptr<SubdividedOracle> subdivided;
    if (options.subdivide) {
      subdivided =
          std::make_unique<SubdividedOracle>(state.clone(), options.beta);
      round_oracle = subdivided.get();
    }
    const std::size_t m = round_oracle->ground_size();
    const std::vector<double> p = round_oracle->marginals();
    ctx.charge(m, m);
    result.diag.oracle_calls += m;

    detail::BatchRound config;
    config.batch = l;
    if (l == 1) {
      // A single draw from the normalized marginals *is* the 1-marginal
      // distribution: the ratio is identically 1 and the step is exact.
      config.log_cap = 0.0;
    } else if (std::isnan(options.log_ratio_cap)) {
      config.log_cap = lemma36_cap(l, k, m, options);
    } else {
      config.log_cap = options.log_ratio_cap;
    }
    const double machines_needed =
        std::exp(std::min(config.log_cap, 18.0)) *
            std::log(1.0 / delta_round) * 2.0 +
        16.0;
    config.machines = static_cast<std::size_t>(std::min(
        machines_needed, static_cast<double>(options.machine_cap)));

    auto accepted = detail::run_batch_round(*round_oracle, p, config, rng,
                                            ctx, result.diag);
    ctx.charge(config.machines, config.machines);
    result.diag.rounds += 1;
    if (!accepted.has_value()) {
      throw SamplingFailure(
          "sample_entropic: no proposal accepted within the machine budget; "
          "raise cap_slack / machine_cap or reduce the batch exponent");
    }
    // Map accepted copies back to base elements when subdivided. The
    // accepted counting answer refers to the subdivided distribution
    // then, so it is not forwarded to commit.
    std::vector<int> base_batch;
    double commit_log_joint = accepted->log_joint;
    base_batch.reserve(accepted->batch.size());
    if (options.subdivide) {
      for (const int c : accepted->batch)
        base_batch.push_back(subdivided->origin_of(c));
      commit_log_joint = std::numeric_limits<double>::quiet_NaN();
    } else {
      base_batch = std::move(accepted->batch);
    }
    for (const int b : base_batch) result.items.push_back(tracker.original(b));
    state.commit(base_batch, commit_log_joint);
    tracker.remove(std::move(base_batch));
  }
  std::sort(result.items.begin(), result.items.end());
  result.diag.spectral_refreshes =
      state.spectral_refreshes() - refreshes_before;
  if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
  return result;
}

SampleResult sample_entropic(const CountingOracle& mu, RandomStream& rng,
                             const ExecutionContext& ctx,
                             const EntropicOptions& options) {
  const auto state = mu.make_committed();
  return sample_entropic_on(*state, rng, ctx, options);
}

}  // namespace pardpp
