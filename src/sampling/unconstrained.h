// Sampling unconstrained DPPs — Remark 15 + the Theorem 41 dispatch.
//
// Remark 15: draw |S| from the cardinality distribution P[|S| = j] ∝
// e_j(L) (one parallel round), then run the fixed-size sampler — batched
// (Theorem 10) for symmetric L, entropic (Theorem 8.2) otherwise.
//
// For symmetric L, Theorem 41 offers the alternative filtering route with
// depth ~ sigma_max(K) sqrt(n) log(n/eps); `sample_dpp` with
// Strategy::kAuto picks whichever of sqrt(tr K) and sigma sqrt(n) is
// smaller — exactly the min(.) in the theorem statement.
#pragma once

#include <string>

#include "linalg/matrix.h"
#include "parallel/execution.h"
#include "sampling/batched.h"
#include "sampling/diagnostics.h"
#include "sampling/entropic.h"
#include "sampling/filtering.h"
#include "support/random.h"

namespace pardpp {

struct UnconstrainedOptions {
  enum class Strategy {
    kAuto,         ///< Theorem 41's min(.): compare the two depth bounds
    kCardinality,  ///< Remark 15: size draw + fixed-size sampler
    kFiltering,    ///< Algorithm 4 (symmetric only)
  };
  Strategy strategy = Strategy::kAuto;
  BatchedOptions batched;      ///< symmetric fixed-size stage
  EntropicOptions entropic;    ///< nonsymmetric fixed-size stage
  FilteringOptions filtering;  ///< filtering stage
};

struct UnconstrainedSampleResult {
  std::vector<int> items;
  SampleDiagnostics diag;
  std::string strategy_used;  ///< "cardinality+batched", "filtering", ...
};

/// Samples the unconstrained DPP with ensemble matrix `l`. Exact for the
/// cardinality routes (conditioned on rejection success); within the
/// filtering options' eps for the filtering route.
[[nodiscard]] UnconstrainedSampleResult sample_dpp(
    const Matrix& l, bool symmetric, RandomStream& rng,
    const ExecutionContext& ctx = {}, const UnconstrainedOptions& options = {});

}  // namespace pardpp
