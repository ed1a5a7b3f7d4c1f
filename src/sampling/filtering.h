// Filtering sampler for spectrally bounded symmetric DPPs — Algorithm 4 /
// Theorem 41 (§8), plus the Bernoulli-product rejection sampler of
// Lemma 44 it is built on.
//
// Given an unconstrained symmetric DPP with marginal kernel K and
// sigma_max(K) <= sigma, set alpha = 1/(sigma sqrt(n)). Each of
// R = O(alpha^{-1} log(n/eps)) rounds samples T_i from the DPP with kernel
// alpha K^{(i)} — whose spectral norm is at most 1/sqrt(n), so a product
// of Bernoullis is an e^{o(1)}-accurate proposal (Lemma 44) — then updates
// the ensemble L^{(i+1)} = ((1-alpha) L^{(i)})^{T_i} (Prop. 42/43: thinning
// a DPP sample is a kernel rescaling). The union of the T_i converges to
// an exact sample in total variation (Prop. 43), with parallel depth
// ~ sigma sqrt(n) log(n/eps) instead of E|S| rounds.
#pragma once

#include "linalg/matrix.h"
#include "parallel/execution.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

struct FilteringOptions {
  /// Total-variation budget.
  double eps = 0.05;
  /// Upper bound on sigma_max(K); 0 computes it exactly.
  double sigma = 0.0;
  /// Rounds = ceil(round_multiplier * log(n/eps) / alpha).
  double round_multiplier = 1.5;
  /// log C for the Lemma 44 rejection stage (the lemma bounds the true
  /// ratio by (1/eps)^{o(1)}).
  double log_ratio_cap = 2.5;
  /// Cap on |T| per round (the Omega of Lemma 44); 0 derives it from
  /// Lemma 14 concentration.
  std::size_t size_cap = 0;
  std::size_t machine_cap = 1u << 20;
};

/// Samples (approximately, within eps TV) from the unconstrained
/// symmetric DPP with ensemble matrix `l` via Algorithm 4. Each round's
/// Bernoulli/rejection machines run serially, one trial costing less
/// than a fork-join, and are charged to `ctx` as one logical round. A
/// fixed seed yields the identical sample at every pool size. The ensemble's
/// eigenpairs are carried across rounds and recomputed only after a round
/// that picked something (DESIGN.md §2 convention 10).
[[nodiscard]] SampleResult sample_filtering_dpp(
    const Matrix& l, RandomStream& rng, const ExecutionContext& ctx = {},
    const FilteringOptions& options = {});

/// Lemma 44 building block (exposed for tests and benches): samples the
/// unconstrained symmetric DPP with *marginal kernel* `kernel`
/// (sigma_max <= ~1/sqrt(n)) by proposing independent Bernoullis on the
/// diagonal and correcting by rejection, one wave of machines at a time.
[[nodiscard]] SampleResult sample_small_dpp_bernoulli(
    const Matrix& kernel, RandomStream& rng, const ExecutionContext& ctx = {},
    const FilteringOptions& options = {});

}  // namespace pardpp
