// EXP-SEQ — baseline audit: the classic JVV86 reduction across every
// distribution family, plus the counting-oracle backend ablation
// (symmetric eigendecomposition path vs general charpoly-engine path on
// the same kernels).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "distributions/hard_instance.h"
#include "distributions/product.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/pram.h"
#include "sampling/sequential.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

}  // namespace

int main() {
  print_header("EXP-SEQ-a", "classic reduction depth audit",
               "the sequential sampler's depth is exactly k rounds for "
               "every family — the baseline all parallel results divide");
  Table table({"family", "n", "k", "rounds", "oracle_calls", "wall_ms"});
  RandomStream rng(98001);
  {
    const std::size_t n = 48;
    const std::size_t k = 12;
    const Matrix l = random_psd(n, n, rng, 1e-4);
    const SymmetricKdppOracle oracle(l, k, false);
    PramLedger ledger;
    Timer timer;
    const auto result = sample_sequential(oracle, rng,
                                          ExecutionContext::serial(&ledger));
    table.add_row({"symmetric-kdpp", fmt_int(n), fmt_int(k),
                   fmt_int(result.diag.rounds),
                   fmt_int(result.diag.oracle_calls), fmt(timer.millis(), 1)});
  }
  {
    const std::size_t n = 36;
    const std::size_t k = 9;
    const Matrix l = random_npsd(n, rng, 0.5);
    const GeneralDppOracle oracle(l, k, false);
    PramLedger ledger;
    Timer timer;
    const auto result = sample_sequential(oracle, rng,
                                          ExecutionContext::serial(&ledger));
    table.add_row({"nonsymmetric-kdpp", fmt_int(n), fmt_int(k),
                   fmt_int(result.diag.rounds),
                   fmt_int(result.diag.oracle_calls), fmt(timer.millis(), 1)});
  }
  {
    const std::size_t n = 30;
    const Matrix l = random_psd(n, n, rng, 1e-4);
    std::vector<int> part_of(n);
    for (std::size_t i = 0; i < n; ++i) part_of[i] = i < 15 ? 0 : 1;
    const GeneralDppOracle oracle(l, part_of, {4, 3}, false);
    PramLedger ledger;
    Timer timer;
    const auto result = sample_sequential(oracle, rng,
                                          ExecutionContext::serial(&ledger));
    table.add_row({"partition-dpp(4+3)", fmt_int(n), fmt_int(std::size_t{7}),
                   fmt_int(result.diag.rounds),
                   fmt_int(result.diag.oracle_calls), fmt(timer.millis(), 1)});
  }
  {
    const HardInstanceOracle oracle(512, 128);
    PramLedger ledger;
    Timer timer;
    const auto result = sample_sequential(oracle, rng,
                                          ExecutionContext::serial(&ledger));
    table.add_row({"hard-instance", fmt_int(std::size_t{512}),
                   fmt_int(std::size_t{128}), fmt_int(result.diag.rounds),
                   fmt_int(result.diag.oracle_calls), fmt(timer.millis(), 1)});
  }
  {
    const UniformKSubsetOracle oracle(1024, 256);
    PramLedger ledger;
    Timer timer;
    const auto result = sample_sequential(oracle, rng,
                                          ExecutionContext::serial(&ledger));
    table.add_row({"uniform-k-subset", fmt_int(std::size_t{1024}),
                   fmt_int(std::size_t{256}), fmt_int(result.diag.rounds),
                   fmt_int(result.diag.oracle_calls), fmt(timer.millis(), 1)});
  }
  table.print();

  print_header("EXP-SEQ-b", "counting-oracle backend ablation",
               "eigen/ESP path vs charpoly-engine path on identical "
               "symmetric kernels: same answers, different costs");
  Table table2({"n", "k", "eigen_marginals_ms", "engine_marginals_ms",
                "max_abs_diff"});
  for (const std::size_t n : {16u, 32u, 48u}) {
    const std::size_t k = n / 4;
    const Matrix l = random_psd(n, n, rng, 1e-4);
    const SymmetricKdppOracle fast(l, k, false);
    const GeneralDppOracle slow(l, k, false);
    Timer t1;
    const auto p_fast = fast.marginals();
    const double ms_fast = t1.millis();
    Timer t2;
    const auto p_slow = slow.marginals();
    const double ms_slow = t2.millis();
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      diff = std::max(diff, std::abs(p_fast[i] - p_slow[i]));
    table2.add_row({fmt_int(n), fmt_int(k), fmt(ms_fast, 2), fmt(ms_slow, 2),
                    fmt(diff, 10)});
  }
  table2.print();
  return 0;
}
