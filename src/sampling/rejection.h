// Rejection sampling primitives (paper §3.4, Algorithms 2 and 3,
// Propositions 25 and 26).
//
// These finite-domain implementations exist primarily to make the paper's
// building blocks independently testable: Algorithm 2 is exact given a
// valid ratio bound C; Algorithm 3 tolerates ratio violations outside a
// high-probability set Omega and pays total-variation eps. The batch
// samplers inline the same logic against counting oracles.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "parallel/execution.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

/// Outcome of a boosted rejection run (Prop. 25/26): the accepted value's
/// index, or nullopt when all `machines` proposals rejected.
struct RejectionOutcome {
  std::optional<std::size_t> value;
  std::size_t proposals_used = 0;
  std::size_t overflows = 0;  ///< proposals whose ratio exceeded the cap
};

/// Algorithm 2/3 over a finite domain. `log_target` and `log_proposal` are
/// unnormalized log-masses over the same domain; proposals are drawn from
/// `log_proposal` and accepted with probability ratio / C where
/// ratio = (target_i / Z_t) / (proposal_i / Z_p). With `log_cap` >= the
/// true max log-ratio this is exact (Algorithm 2); otherwise proposals
/// whose ratio exceeds the cap are rejected and counted as overflows,
/// yielding the restriction-to-Omega semantics of Algorithm 3.
[[nodiscard]] RejectionOutcome rejection_sample_finite(
    std::span<const double> log_target, std::span<const double> log_proposal,
    double log_cap, std::size_t machines, RandomStream& rng);

/// As above, with the independent trials physically fanned out on the
/// context's pool in waves; the accepted value is the lowest accepted
/// machine index, so a fixed seed yields the identical outcome at every
/// pool size.
[[nodiscard]] RejectionOutcome rejection_sample_finite(
    std::span<const double> log_target, std::span<const double> log_proposal,
    double log_cap, std::size_t machines, RandomStream& rng,
    const ExecutionContext& ctx);

}  // namespace pardpp
