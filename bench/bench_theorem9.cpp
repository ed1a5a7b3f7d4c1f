// EXP-T9 — Theorem 9: approximate parallel sampling of Partition-DPPs.
//
// Same depth law as Theorem 8, on symmetric PSD ensembles with r = 2, 3
// partition constraints (Definition 7). The counting oracle here is the
// multivariate characteristic-polynomial engine (Prop. 13's polynomial
// interpolation, realized as a tensor roots-of-unity grid).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dpp/general_oracle.h"
#include "linalg/factory.h"
#include "sampling/entropic.h"
#include "sampling/sequential.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

}  // namespace

int main() {
  print_header("EXP-T9", "Theorem 9 (Partition-DPPs, r = O(1))",
               "entropic batched sampler: rounds ~ k^{1/2+c} << k = "
               "sequential depth; partition budgets respected exactly");
  Table table({"r", "counts", "k", "n", "seq_rounds", "ent_rounds",
               "acceptance", "overflow_frac", "budget_violations",
               "ent_ms"});
  RandomStream rng(93001);
  struct Config {
    std::size_t n;
    std::vector<int> part_sizes;
    std::vector<int> counts;
  };
  const std::vector<Config> configs = {
      {24, {12, 12}, {4, 4}},
      {32, {16, 16}, {6, 6}},
      {40, {20, 20}, {8, 6}},
      {48, {24, 24}, {10, 8}},
      {36, {12, 12, 12}, {4, 4, 4}},
  };
  for (const auto& config : configs) {
    const Matrix l = random_psd(config.n, config.n, rng, 1e-4);
    std::vector<int> part_of;
    for (std::size_t a = 0; a < config.part_sizes.size(); ++a)
      for (int i = 0; i < config.part_sizes[a]; ++i)
        part_of.push_back(static_cast<int>(a));
    const GeneralDppOracle oracle(l, part_of, config.counts,
                                  /*validate=*/false);
    const std::size_t k = oracle.sample_size();

    RandomStream seq_rng = rng.split();
    const auto seq = sample_sequential(oracle, seq_rng);

    EntropicOptions options;
    options.c = 0.10;
    options.cap_slack = 3.5;
    RandomStream ent_rng = rng.split();
    Timer timer;
    const auto ent = sample_entropic(oracle, ent_rng, {}, options);
    const double ent_ms = timer.millis();

    // Verify the partition budgets on the sample.
    std::vector<int> got(config.counts.size(), 0);
    for (const int item : ent.items)
      ++got[static_cast<std::size_t>(part_of[static_cast<std::size_t>(item)])];
    std::size_t violations = 0;
    for (std::size_t a = 0; a < got.size(); ++a)
      if (got[a] != config.counts[a]) ++violations;

    std::string counts_str;
    for (const int c : config.counts) {
      if (!counts_str.empty()) counts_str += '+';
      counts_str += std::to_string(c);
    }
    table.add_row({fmt_int(config.counts.size()), counts_str, fmt_int(k),
                   fmt_int(config.n), fmt_int(seq.diag.rounds),
                   fmt_int(ent.diag.rounds),
                   fmt(ent.diag.acceptance_rate()),
                   fmt(static_cast<double>(ent.diag.ratio_overflows) /
                           std::max<std::size_t>(ent.diag.proposals, 1),
                       4),
                   fmt_int(violations), fmt(ent_ms, 1)});
  }
  table.print();
  std::printf(
      "\nbudget_violations must be 0 (the oracle's conditioning keeps the\n"
      "per-part counts exact); ent_rounds < seq_rounds is the parallel\n"
      "speedup of Theorem 9 at these scales.\n");
  return 0;
}
