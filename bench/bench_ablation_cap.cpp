// EXP-CAP — ablation: exact vs approximate rejection (Algorithm 2 vs 3).
//
// The paper's §1.2 observation: exact batching of nonsymmetric DPPs needs
// the acceptance cap scaled by ~2^l, killing parallelism; Algorithm 3
// instead caps the ratio and pays total variation equal to the target
// mass outside Omega. This bench measures that trade-off end to end on a
// small nonsymmetric k-DPP where the exact distribution is enumerable:
// sweeping the cap slack shows TV falling toward zero as acceptance
// falls — the Prop. 26 dial.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dpp/general_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "sampling/entropic.h"
#include "support/combinatorics.h"
#include "support/logsum.h"
#include "support/random.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

}  // namespace

int main() {
  print_header("EXP-CAP", "Algorithm 2 vs 3 (cap slack ablation)",
               "as the ratio cap grows, Omega captures more target mass: "
               "TV error falls, per-proposal acceptance falls ~exp(-cap); "
               "exact batching (cap = true max ratio) is the limit");
  RandomStream rng(99501);
  const std::size_t n = 8;
  const std::size_t k = 4;
  const Matrix l = random_npsd(n, rng, 0.8);
  const GeneralDppOracle oracle(l, k, /*validate=*/false);

  // Exact distribution for TV measurement.
  const SubsetIndexer indexer(static_cast<int>(n), static_cast<int>(k));
  std::vector<double> exact(indexer.count(), 0.0);
  {
    std::vector<double> log_mass(indexer.count(), kNegInf);
    for_each_subset(static_cast<int>(n), static_cast<int>(k),
                    [&](std::span<const int> s) {
                      const auto sld = signed_log_det(l.principal(s));
                      if (sld.sign > 0)
                        log_mass[indexer.rank(s)] = sld.log_abs;
                    });
    const double log_z = logsumexp(log_mass);
    for (std::size_t i = 0; i < exact.size(); ++i)
      exact[i] = std::exp(log_mass[i] - log_z);
  }

  Table table({"log_cap", "TV(measured)", "acceptance", "overflow_frac",
               "proposals/sample"});
  const int trials = 15000;
  for (const double cap : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    EntropicOptions options;
    options.log_ratio_cap = cap;
    options.max_batch = 2;  // fixed batch to isolate the cap effect
    options.machine_cap = 1u << 16;
    std::vector<double> counts(indexer.count(), 0.0);
    std::size_t proposals = 0;
    std::size_t accepted = 0;
    std::size_t overflow = 0;
    int completed = 0;
    for (int t = 0; t < trials; ++t) {
      try {
        RandomStream run = rng.split();
        const auto result = sample_entropic(oracle, run, {}, options);
        counts[indexer.rank(result.items)] += 1.0;
        proposals += result.diag.proposals;
        accepted += result.diag.accepted_batches;
        overflow += result.diag.ratio_overflows;
        ++completed;
      } catch (const SamplingFailure&) {
        // tiny caps can exhaust the budget; skip the trial
      }
    }
    double tv = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i)
      tv += std::abs(counts[i] / std::max(completed, 1) - exact[i]);
    table.add_row(
        {fmt(cap, 2), fmt(0.5 * tv, 4),
         fmt(static_cast<double>(accepted) /
                 std::max<std::size_t>(proposals, 1),
             4),
         fmt(static_cast<double>(overflow) /
                 std::max<std::size_t>(proposals, 1),
             4),
         fmt(static_cast<double>(proposals) / std::max(completed, 1), 1)});
  }
  table.print();
  std::printf(
      "\nTV includes ~%.3f of Monte-Carlo noise floor (%d trials over %zu\n"
      "outcomes); the signal is the overflow fraction -> 0 and TV settling\n"
      "at the noise floor once the cap covers the true max ratio —\n"
      "Algorithm 3 becomes Algorithm 2.\n",
      std::sqrt(static_cast<double>(indexer.count()) /
                (2.0 * 3.14159 * trials)),
      trials, indexer.count());
  return 0;
}
