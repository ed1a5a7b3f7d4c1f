// EXP-T8 — Theorem 8: approximate parallel sampling of nonsymmetric
// k-DPPs.
//
// The general entropically-independent sampler (Theorem 29) runs batches
// of l ~ k^{1/2 - c}: depth ~ k^{1/2 + c} rounds instead of the
// sequential k, at the price of the Algorithm 3 restriction (rare "bad
// events" with ratio above the Lemma 36 cap). We sweep k and the exponent
// c on random nonsymmetric PSD ensembles (Definition 4) and report rounds,
// acceptance, and bad-event frequency.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dpp/general_oracle.h"
#include "linalg/factory.h"
#include "parallel/pram.h"
#include "sampling/entropic.h"
#include "sampling/sequential.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

}  // namespace

int main() {
  print_header("EXP-T8", "Theorem 8 (nonsymmetric k-DPPs)",
               "batched rounds ~ k / l with l = floor(k^{1/2-c}), i.e. "
               "depth ~ k^{1/2+c} << k; bad events (ratio > cap) rare");
  Table table({"k", "n", "c", "batch_l", "seq_rounds", "ent_rounds",
               "k^{0.5+c}", "acceptance", "overflow_frac", "seq_ms",
               "ent_ms"});
  RandomStream rng(92001);
  for (const std::size_t k : {4u, 8u, 16u, 32u}) {
    const std::size_t n = 3 * k;
    const Matrix l = random_npsd(n, rng, 0.5);
    const GeneralDppOracle oracle(l, k, /*validate=*/false);

    Timer seq_timer;
    RandomStream seq_rng = rng.split();
    const auto seq = sample_sequential(oracle, seq_rng);
    const double seq_ms = seq_timer.millis();

    for (const double c : {0.10, 0.25}) {
      EntropicOptions options;
      options.c = c;
      options.cap_slack = 3.0;
      RandomStream ent_rng = rng.split();
      Timer ent_timer;
      const auto ent = sample_entropic(oracle, ent_rng, {}, options);
      const double ent_ms = ent_timer.millis();
      const std::size_t batch = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::floor(std::pow(static_cast<double>(k), 0.5 - c))));
      table.add_row(
          {fmt_int(k), fmt_int(n), fmt(c, 2), fmt_int(batch),
           fmt_int(seq.diag.rounds), fmt_int(ent.diag.rounds),
           fmt(std::pow(static_cast<double>(k), 0.5 + c), 1),
           fmt(ent.diag.acceptance_rate()),
           fmt(static_cast<double>(ent.diag.ratio_overflows) /
                   std::max<std::size_t>(ent.diag.proposals, 1),
               4),
           fmt(seq_ms, 1), fmt(ent_ms, 1)});
    }
  }
  table.print();
  std::printf(
      "\nNote: ent_rounds counts both the marginal round and the proposal\n"
      "round of each batch; the paper's depth unit is oracle rounds. With\n"
      "small k the batch l = floor(k^{1/2-c}) is 1-2, so the crossover\n"
      "against the sequential baseline emerges as k grows (see\n"
      "bench_hard_instance for the same law driven to k = 4096).\n");
  return 0;
}
