// The classic sequential sampling-to-counting reduction [JVV86] (paper §1).
//
// Pick the k elements one at a time: in each round draw one element from
// the conditional singleton marginals (one parallel round of counting
// queries), commit it, repeat. Depth Theta(k) — the baseline every
// parallel sampler in this library is measured against.
//
// The round loop runs on one long-lived CommittedOracle (DESIGN.md §2
// convention 7): the accepted element is folded into the state in place
// (`commit`), so per-round preprocessing is the family's incremental
// update instead of a from-scratch conditioned oracle. The per-round draw
// goes through `CountingOracle::draw_marginal`, whose protocol is exact
// for every family; spectral families answer it by the two-stage mixture
// draw and never materialize the marginal vector.
#pragma once

#include "distributions/oracle.h"
#include "parallel/execution.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

/// Exact sample from the oracle's distribution; depth = k rounds.
[[nodiscard]] SampleResult sample_sequential(const CountingOracle& mu,
                                             RandomStream& rng,
                                             const ExecutionContext& ctx = {});

/// Core loop on a caller-provided commit-path state (must be at its base
/// distribution, i.e. freshly created or reset()). SamplerSession uses
/// this to amortize one state — and the base oracle's preprocessing —
/// across many draws.
[[nodiscard]] SampleResult sample_sequential_on(
    CommittedOracle& state, RandomStream& rng,
    const ExecutionContext& ctx = {});

}  // namespace pardpp
