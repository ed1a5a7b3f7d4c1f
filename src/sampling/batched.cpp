#include "sampling/batched.h"

#include <algorithm>
#include <cmath>

#include "support/combinatorics.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

namespace detail {

namespace {

// One speculative proposal trial: everything machine m computes before the
// oracle round, plus its private stream for the accept draw afterwards.
struct ProposalTrial {
  RandomStream stream{0};
  std::vector<int> batch;
  double log_proposal = 0.0;
  bool duplicate = false;
  double log_joint = kNegInf;
};

}  // namespace

std::optional<AcceptedBatch> run_batch_round(
    const CountingOracle& mu, std::span<const double> marginals,
    const BatchRound& config, RandomStream& rng, const ExecutionContext& ctx,
    SampleDiagnostics& diag) {
  const std::size_t k = mu.sample_size();
  const std::size_t t = config.batch;
  check_arg(t >= 1 && t <= k, "run_batch_round: invalid batch size");
  // log of k (k-1) ... (k-t+1) = log(C(k,t) t!).
  double log_falling = 0.0;
  for (std::size_t r = 0; r < t; ++r)
    log_falling += std::log(static_cast<double>(k - r));
  const double log_k = std::log(static_cast<double>(k));

  const std::vector<double> weights(marginals.begin(), marginals.end());
  std::vector<std::span<const int>> queries;  // views into trial batches
  std::vector<std::size_t> query_owner;
  std::vector<double> answers;
  std::optional<AcceptedBatch> accepted;
  run_trial_waves<ProposalTrial>(
      ctx, config.machines, rng,
      // Evaluate: machine m draws its t i.i.d. picks from p / k on its
      // private stream, concurrently with the rest of the wave.
      [&](ProposalTrial& trial, RandomStream stream) {
        trial.stream = stream;
        trial.batch.resize(t);
        for (std::size_t r = 0; r < t; ++r) {
          const auto pick =
              static_cast<int>(trial.stream.categorical(weights));
          trial.batch[r] = pick;
          trial.log_proposal +=
              std::log(weights[static_cast<std::size_t>(pick)]) - log_k;
          for (std::size_t prev = 0; prev < r && !trial.duplicate; ++prev)
            trial.duplicate = trial.batch[prev] == pick;
        }
      },
      // Barrier: the wave's counting queries, issued to the oracle as one
      // batch round (duplicate proposals have target mass zero and are
      // never queried).
      [&](std::span<ProposalTrial> wave) {
        queries.clear();
        query_owner.clear();
        for (std::size_t w = 0; w < wave.size(); ++w) {
          if (wave[w].duplicate) continue;
          queries.emplace_back(wave[w].batch);
          query_owner.push_back(w);
        }
        answers.assign(queries.size(), kNegInf);
        if (queries.empty()) return;
        ++diag.wave_count;
        diag.wave_queries += queries.size();
        mu.query_many(queries, answers, ctx);
        for (std::size_t q = 0; q < queries.size(); ++q)
          wave[query_owner[q]].log_joint = answers[q];
      },
      // Fold: accept/reject in machine order. Counters cover scanned
      // trials only, so diagnostics are identical at every pool size.
      [&](ProposalTrial& trial) {
        ++diag.proposals;
        if (trial.duplicate) {
          // Two copies of one element: target mass zero, certain
          // rejection (no counting query was issued).
          ++diag.duplicate_rejects;
          return false;
        }
        ++diag.oracle_calls;
        if (trial.log_joint == kNegInf) {
          ++diag.duplicate_rejects;
          return false;
        }
        const double log_ratio =
            trial.log_joint - log_falling - trial.log_proposal;
        if (log_ratio > config.log_cap + 1e-9) {
          // Outside Omega (Algorithm 3); for Lemma 27-compliant targets
          // this is a numerical impossibility and the tests assert it
          // stays zero.
          ++diag.ratio_overflows;
          return false;
        }
        if (trial.stream.bernoulli(std::exp(log_ratio - config.log_cap))) {
          ++diag.accepted_batches;
          accepted = AcceptedBatch{std::move(trial.batch), trial.log_joint};
          return true;
        }
        return false;
      },
      // The evaluate bodies are a handful of categorical draws; the
      // wave's heavy work is the barrier's batched oracle round, so
      // never pay a per-trial dispatch for them.
      /*evaluate_grain=*/16);
  return accepted;
}

}  // namespace detail

SampleResult sample_batched_on(CommittedOracle& state, RandomStream& rng,
                               const ExecutionContext& ctx,
                               const BatchedOptions& options) {
  check_arg(state.committed_count() == 0,
            "sample_batched_on: state not at its base distribution");
  const std::size_t refreshes_before = state.spectral_refreshes();
  SampleResult result;
  IndexTracker tracker(state.ground_size());
  const double round_bound =
      2.0 * std::sqrt(static_cast<double>(state.sample_size())) + 2.0;
  const double delta_round =
      std::max(options.failure_prob / round_bound, 1e-12);

  while (state.sample_size() > 0) {
    const std::size_t k = state.sample_size();
    const std::size_t m = state.ground_size();
    std::size_t t = options.max_batch == 0
                        ? static_cast<std::size_t>(
                              std::ceil(std::sqrt(static_cast<double>(k))))
                        : options.max_batch;
    t = std::min(t, k);

    // One parallel round of counting queries: all marginals.
    const std::vector<double> p = state.marginals();
    ctx.charge(m, m);
    result.diag.oracle_calls += m;

    detail::BatchRound config;
    config.batch = t;
    config.log_cap = static_cast<double>(t) * static_cast<double>(t) /
                         static_cast<double>(k) +
                     options.extra_log_cap;
    // Prop. 25: C log(1/delta') machines boost acceptance to 1 - delta'.
    const double machines_needed =
        std::exp(config.log_cap) * std::log(1.0 / delta_round) * 2.0 + 8.0;
    config.machines = static_cast<std::size_t>(std::min(
        machines_needed, static_cast<double>(options.machine_cap)));

    auto accepted =
        detail::run_batch_round(state, p, config, rng, ctx, result.diag);
    // The proposal batch runs as one parallel round of `machines`
    // rejection evaluations (one counting query each).
    ctx.charge(config.machines, config.machines);
    result.diag.rounds += 1;
    if (!accepted.has_value()) {
      throw SamplingFailure(
          "sample_batched: no proposal accepted within the machine budget "
          "(round failure probability exceeded)");
    }
    for (const int b : accepted->batch)
      result.items.push_back(tracker.original(b));
    state.commit(accepted->batch, accepted->log_joint);
    tracker.remove(std::move(accepted->batch));
  }
  std::sort(result.items.begin(), result.items.end());
  result.diag.spectral_refreshes =
      state.spectral_refreshes() - refreshes_before;
  if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
  return result;
}

SampleResult sample_batched(const CountingOracle& mu, RandomStream& rng,
                            const ExecutionContext& ctx,
                            const BatchedOptions& options) {
  const auto state = mu.make_committed();
  return sample_batched_on(*state, rng, ctx, options);
}

}  // namespace pardpp
