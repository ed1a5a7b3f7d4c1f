#include "sampling/rejection.h"

#include <cmath>
#include <vector>

#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

RejectionOutcome rejection_sample_finite(std::span<const double> log_target,
                                         std::span<const double> log_proposal,
                                         double log_cap, std::size_t machines,
                                         RandomStream& rng) {
  return rejection_sample_finite(log_target, log_proposal, log_cap, machines,
                                 rng, ExecutionContext::serial());
}

RejectionOutcome rejection_sample_finite(std::span<const double> log_target,
                                         std::span<const double> log_proposal,
                                         double log_cap, std::size_t machines,
                                         RandomStream& rng,
                                         const ExecutionContext& ctx) {
  check_arg(log_target.size() == log_proposal.size(),
            "rejection_sample_finite: domain size mismatch");
  const double log_zt = logsumexp(log_target);
  const double log_zp = logsumexp(log_proposal);
  check_arg(log_zt != kNegInf && log_zp != kNegInf,
            "rejection_sample_finite: degenerate masses");
  std::vector<double> proposal_probs(log_proposal.size());
  for (std::size_t i = 0; i < proposal_probs.size(); ++i)
    proposal_probs[i] = std::exp(log_proposal[i] - log_zp);

  struct Trial {
    std::size_t value = 0;
    bool overflow = false;
    bool accepted = false;
  };

  RejectionOutcome out;
  run_trial_waves<Trial>(
      ctx, machines, rng,
      [&](Trial& trial, RandomStream stream) {
        trial.value = stream.categorical(proposal_probs);
        const double log_ratio = (log_target[trial.value] - log_zt) -
                                 (log_proposal[trial.value] - log_zp);
        if (log_ratio > log_cap + 1e-12) {
          trial.overflow = true;
          return;
        }
        trial.accepted = stream.bernoulli(std::exp(log_ratio - log_cap));
      },
      [](std::span<Trial>) {},
      [&](Trial& trial) {
        ++out.proposals_used;
        if (trial.overflow) {
          ++out.overflows;
          return false;
        }
        if (trial.accepted) {
          out.value = trial.value;
          return true;
        }
        return false;
      },
      // One categorical and one Bernoulli draw per trial: dispatching
      // these individually would cost more than evaluating them.
      /*evaluate_grain=*/256);
  return out;
}

}  // namespace pardpp
