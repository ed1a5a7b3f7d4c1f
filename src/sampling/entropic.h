// Approximate batched sampling for entropically independent distributions
// — Theorem 29 (main theorem), instantiated for nonsymmetric DPPs
// (Theorem 8) and Partition-DPPs (Theorem 9).
//
// Differences from the exact symmetric sampler (sampling/batched.h):
//  * batches of l ~ k^{1/2 - c} (the hard instance of §7 shows the
//    exponent gap is necessary for rejection strategies);
//  * the ratio cap C comes from the entropic-independence KL bound
//    (Lemma 36): log C ~ (l^2 / (alpha k)) (log(2n/k) + alpha) plus slack,
//    not from negative correlation;
//  * proposals whose ratio exceeds C ("bad events", Algorithm 3) are
//    rejected outright — the output is the restriction of the target to
//    the high-probability set Omega, within the advertised total
//    variation budget (Prop. 26 / Lemma 40);
//  * optionally, each round is run through the isotropic subdivision
//    (Definition 30) to flatten the marginals first.
#pragma once

#include <limits>

#include "distributions/oracle.h"
#include "parallel/execution.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

struct EntropicOptions {
  /// Batch exponent c > 0: l = max(1, floor(k^{1/2 - c})).
  double c = 0.25;
  /// Entropic-independence parameter: the target is 1/alpha-entropically
  /// independent (Omega(1) for all DPP families, Lemma 24).
  double alpha = 1.0;
  /// Multiplier and additive slack applied to the Lemma 36 cap.
  double cap_multiplier = 1.0;
  double cap_slack = 3.0;
  /// Explicit cap override (log domain); NaN selects the Lemma 36 cap.
  double log_ratio_cap = std::numeric_limits<double>::quiet_NaN();
  /// Per-run failure budget for the boosted rejection rounds.
  double failure_prob = 1e-3;
  /// Apply the isotropic subdivision with this beta each round.
  bool subdivide = false;
  double beta = 1.0;
  /// Overrides l when nonzero.
  std::size_t max_batch = 0;
  std::size_t machine_cap = 1u << 20;
};

/// Approximate sample via batched modified rejection sampling, executing
/// each round's proposal machines on the context's pool. Throws
/// SamplingFailure when a round exhausts its machine budget. The
/// diagnostics report ratio_overflows — the measure of the Omega
/// restriction actually encountered.
[[nodiscard]] SampleResult sample_entropic(const CountingOracle& mu,
                                           RandomStream& rng,
                                           const ExecutionContext& ctx = {},
                                           const EntropicOptions& options = {});

/// Core loop on a caller-provided commit-path state (must be at its base
/// distribution). With subdivision enabled the per-round isotropic wrapper
/// still clones the current conditional (its copies re-index the ground
/// set), but the conditioning itself stays on the long-lived state.
[[nodiscard]] SampleResult sample_entropic_on(
    CommittedOracle& state, RandomStream& rng, const ExecutionContext& ctx,
    const EntropicOptions& options = {});

}  // namespace pardpp
