#include "sampling/unconstrained.h"

#include <algorithm>
#include <cmath>

#include "dpp/cardinality.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/symmetric_eigen.h"
#include "support/error.h"

namespace pardpp {

namespace {

UnconstrainedSampleResult via_cardinality(const Matrix& l, bool symmetric,
                                          RandomStream& rng,
                                          const ExecutionContext& ctx,
                                          const UnconstrainedOptions& options) {
  UnconstrainedSampleResult result;
  // One parallel round computes all e_j (Prop. 13.2) and draws |S|.
  const auto weights = cardinality_log_weights(l, symmetric);
  ctx.charge(l.rows(), 1);
  const std::size_t k = sample_cardinality(weights, rng);
  if (k == 0) {
    result.strategy_used = symmetric ? "cardinality+batched"
                                     : "cardinality+entropic";
    if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
    return result;
  }
  if (symmetric) {
    const SymmetricKdppOracle oracle(l, k, /*validate=*/false);
    auto sample = sample_batched(oracle, rng, ctx, options.batched);
    result.items = std::move(sample.items);
    result.diag = sample.diag;
    result.strategy_used = "cardinality+batched";
  } else {
    const GeneralDppOracle oracle(l, k, /*validate=*/false);
    auto sample = sample_entropic(oracle, rng, ctx, options.entropic);
    result.items = std::move(sample.items);
    result.diag = sample.diag;
    result.strategy_used = "cardinality+entropic";
  }
  return result;
}

UnconstrainedSampleResult via_filtering(const Matrix& l, RandomStream& rng,
                                        const ExecutionContext& ctx,
                                        const UnconstrainedOptions& options) {
  UnconstrainedSampleResult result;
  auto sample = sample_filtering_dpp(l, rng, ctx, options.filtering);
  result.items = std::move(sample.items);
  result.diag = sample.diag;
  result.strategy_used = "filtering";
  return result;
}

}  // namespace

UnconstrainedSampleResult sample_dpp(const Matrix& l, bool symmetric,
                                     RandomStream& rng,
                                     const ExecutionContext& ctx,
                                     const UnconstrainedOptions& options) {
  check_arg(l.square(), "sample_dpp: matrix not square");
  using Strategy = UnconstrainedOptions::Strategy;
  Strategy strategy = options.strategy;
  check_arg(!(strategy == Strategy::kFiltering && !symmetric),
            "sample_dpp: filtering requires a symmetric ensemble");
  if (strategy == Strategy::kAuto) {
    if (!symmetric) {
      strategy = Strategy::kCardinality;
    } else {
      // Theorem 41's min(sqrt(tr K), sigma_max(K) sqrt(n)), from the
      // spectrum of L: K = L (I + L)^{-1} has eigenvalues λ / (1 + λ).
      double trace = 0.0;
      double sigma = 0.0;
      for (const double lambda : symmetric_eigenvalues(l)) {
        const double kappa = lambda / (1.0 + lambda);
        trace += kappa;
        sigma = std::max(sigma, std::abs(kappa));
      }
      const double via_trace = std::sqrt(std::max(trace, 0.0));
      const double via_sigma =
          sigma * std::sqrt(static_cast<double>(l.rows()));
      strategy = via_trace <= via_sigma ? Strategy::kCardinality
                                        : Strategy::kFiltering;
    }
  }
  return strategy == Strategy::kFiltering
             ? via_filtering(l, rng, ctx, options)
             : via_cardinality(l, symmetric, rng, ctx, options);
}

}  // namespace pardpp
