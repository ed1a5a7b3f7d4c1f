// Batched sampling — Algorithm 1 of the paper, with the rejection-based
// implementation of step (*) described in §4 (Theorem 10).
//
// Each round draws a batch of t = ceil(sqrt(k_i)) elements i.i.d. from the
// current normalized marginals p/k and accepts the batch with probability
//   ratio / C,    ratio = P[T ⊆ S] / ( k(k-1)...(k-t+1) * prod p_i / k ),
// where C = exp(t^2/k) dominates the ratio for negatively correlated
// distributions (Lemma 27), making the sampler *exact* conditioned on
// success. Proposals for one round are issued as one parallel round of
// machines = C log(1/delta') (Prop. 25); Prop. 28 bounds the number of
// rounds by 2 sqrt(k).
//
// Execution: the round's machines are physically fanned out on the
// ExecutionContext's pool in waves (execution.h conventions). Machine m
// draws from its own forked stream, the round's counting queries are
// issued through CountingOracle::query_many as one batch, and the accepted
// proposal is the lowest-index acceptance — so a fixed seed yields the
// identical sample at every pool size.
#pragma once

#include <optional>

#include "distributions/oracle.h"
#include "parallel/execution.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

struct BatchedOptions {
  /// Per-run failure budget delta: each round is boosted to failure
  /// probability delta / (2 sqrt(k) + 2).
  double failure_prob = 1e-3;
  /// Extra slack added to log C (0 is exact for strongly Rayleigh
  /// targets; positive values tolerate small numerical excursions).
  double extra_log_cap = 1e-6;
  /// Overrides the batch schedule when nonzero: batches of
  /// min(max_batch, k_i) instead of ceil(sqrt(k_i)). Used by the ablation
  /// benches to demonstrate the birthday-paradox collapse.
  std::size_t max_batch = 0;
  /// Hard bound on proposals per round, a safety net against
  /// mis-specified caps.
  std::size_t machine_cap = 1u << 20;
};

/// Samples from the oracle's distribution via Algorithm 1, executing each
/// round's proposal machines on the context's pool. Exact (given a valid
/// cap) conditioned on not throwing SamplingFailure; the failure
/// probability is at most `failure_prob` for Lemma 27-compliant targets.
[[nodiscard]] SampleResult sample_batched(const CountingOracle& mu,
                                          RandomStream& rng,
                                          const ExecutionContext& ctx = {},
                                          const BatchedOptions& options = {});

/// Core loop on a caller-provided commit-path state (must be at its base
/// distribution). Each accepted round is folded into the state via
/// `commit`, passing along the accepted trial's counting answer so
/// families can update their cached normalization without re-deriving it.
[[nodiscard]] SampleResult sample_batched_on(CommittedOracle& state,
                                             RandomStream& rng,
                                             const ExecutionContext& ctx,
                                             const BatchedOptions& options = {});

namespace detail {

/// One rejection round shared by the batched and entropic samplers: draws
/// up to `machines` batches of size `batch` i.i.d. from `marginals`
/// (normalized by k), accepts with probability ratio / exp(log_cap).
struct BatchRound {
  std::size_t batch = 1;
  double log_cap = 0.0;
  std::size_t machines = 1;
};

/// An accepted proposal: the batch (current-oracle indices) plus its
/// counting answer log P[batch ⊆ S] — the value the commit path reuses.
struct AcceptedBatch {
  std::vector<int> batch;
  double log_joint = 0.0;
};

[[nodiscard]] std::optional<AcceptedBatch> run_batch_round(
    const CountingOracle& mu, std::span<const double> marginals,
    const BatchRound& config, RandomStream& rng, const ExecutionContext& ctx,
    SampleDiagnostics& diag);

}  // namespace detail

}  // namespace pardpp
