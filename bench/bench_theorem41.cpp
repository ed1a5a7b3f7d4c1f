// EXP-T41 — Theorem 41: filtering for spectrally bounded symmetric DPPs.
//
// Depth ~ min(sqrt(tr K), sigma_max(K) sqrt(n)) log(n/eps): we sweep
// sigma_max at fixed n and report the filtering round count R ~
// alpha^{-1} log(n/eps) with alpha = 1/(sigma sqrt(n)), the Prop. 45
// spectral invariant along the run, and the trace-based branch.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dpp/ensemble.h"
#include "linalg/factory.h"
#include "linalg/symmetric_eigen.h"
#include "parallel/execution.h"
#include "sampling/filtering.h"
#include "sampling/unconstrained.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

}  // namespace

int main() {
  print_header("EXP-T41a", "Theorem 41 (sigma sweep)",
               "filtering rounds ~ sigma sqrt(n) log(n/eps); per-round "
               "kernels stay below the initial sigma (Prop. 45); the "
               "sampler's output size tracks tr(K)");
  const std::size_t n = 64;
  const double eps = 0.05;
  Table table({"sigma_max(K)", "alpha", "rounds", "predicted~1.5*log(n/eps)/alpha",
               "E|S|=tr(K)", "sampled|S|", "overflow_frac", "wall_ms"});
  RandomStream rng(96001);
  for (const double sigma : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    // Spectrum: half the mass near sigma, rest spread below.
    std::vector<double> spectrum(n);
    for (std::size_t i = 0; i < n; ++i)
      spectrum[i] = sigma * (0.25 + 0.75 * static_cast<double>(i) /
                                        static_cast<double>(n - 1));
    const Matrix kernel = kernel_with_spectrum(spectrum, rng);
    const Matrix l = ensemble_from_kernel(kernel);
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += kernel(i, i);
    const double alpha =
        std::min(1.0 / (sigma * std::sqrt(static_cast<double>(n))), 2.0);
    FilteringOptions options;
    options.eps = eps;
    Timer timer;
    RandomStream run_rng = rng.split();
    const auto result = sample_filtering_dpp(l, run_rng, {}, options);
    const double ms = timer.millis();
    const double predicted =
        alpha > 1.0 ? 1.0
                    : std::ceil(1.5 * std::log(static_cast<double>(n) / eps) /
                                alpha);
    table.add_row({fmt(sigma, 2), fmt(alpha, 3), fmt_int(result.diag.rounds),
                   fmt(predicted, 0), fmt(trace, 2),
                   fmt_int(result.items.size()),
                   fmt(static_cast<double>(result.diag.ratio_overflows) /
                           std::max<std::size_t>(result.diag.proposals, 1),
                       4),
                   fmt(ms, 1)});
  }
  table.print();

  print_header("EXP-T41b", "Theorem 41 (trace branch, Remark 15)",
               "when tr(K) << sigma^2 n, sampling |S| then running the "
               "sqrt(k)-depth k-DPP sampler wins: depth ~ sqrt(tr K)");
  Table table2({"n", "tr(K)", "sigma_max", "sqrt(tr K)", "sigma*sqrt(n)",
                "better_branch"});
  RandomStream rng2(96002);
  struct Config {
    std::size_t n;
    double trace;
    double sigma;
  };
  for (const auto& config :
       {Config{64, 4.0, 0.9}, Config{64, 16.0, 0.5}, Config{256, 4.0, 0.9},
        Config{256, 64.0, 0.6}}) {
    const double lhs = std::sqrt(config.trace);
    const double rhs = config.sigma * std::sqrt(static_cast<double>(config.n));
    table2.add_row({fmt_int(config.n), fmt(config.trace, 1),
                    fmt(config.sigma, 2), fmt(lhs, 2), fmt(rhs, 2),
                    lhs < rhs ? "trace (k-DPP route)" : "filtering"});
  }
  table2.print();
  std::printf(
      "\nThe theorem's min(.) depth picks the smaller column per row.\n");

  print_header("EXP-T41c", "sample_dpp end-to-end dispatch",
               "the library's auto strategy executes the min(.): measured "
               "depth follows the chosen branch");
  Table table3({"spectrum", "sqrt(trK)", "sigma*sqrt(n)", "strategy_chosen",
                "depth(rounds)", "|S|"});
  RandomStream rng3(96003);
  struct Spec {
    const char* name;
    std::vector<double> spectrum;
  };
  std::vector<Spec> specs;
  {
    // Spiky: one large eigenvalue, tiny tail -> trace branch.
    std::vector<double> spiky(48, 0.004);
    spiky[47] = 0.9;
    specs.push_back({"spiky(tr=1.1,s=0.9)", spiky});
    // Flat: moderate everywhere -> filtering branch.
    std::vector<double> flat(48, 0.3);
    specs.push_back({"flat(tr=14.4,s=0.3)", flat});
  }
  for (const auto& spec : specs) {
    const Matrix kernel = kernel_with_spectrum(spec.spectrum, rng3);
    const Matrix l = ensemble_from_kernel(kernel);
    double trace = 0.0;
    for (const double v : spec.spectrum) trace += v;
    double sigma = 0.0;
    for (const double v : spec.spectrum) sigma = std::max(sigma, v);
    PramLedger ledger;
    RandomStream run = rng3.split();
    const auto result = sample_dpp(l, true, run,
                                   ExecutionContext::serial(&ledger));
    table3.add_row({spec.name, fmt(std::sqrt(trace), 2),
                    fmt(sigma * std::sqrt(48.0), 2), result.strategy_used,
                    fmt(ledger.stats().depth, 0),
                    fmt_int(result.items.size())});
  }
  table3.print();

  print_header(
      "EXP-T41d", "ExecutionContext thread sweep (filtering sampler)",
      "one seed, pool sizes {1,2,4,hw}: identical samples at every pool "
      "size; the Bernoulli/rejection machines of each filtering round "
      "fan out, paying off on multicore hardware");
  const std::size_t n4 = 96;
  const double sigma4 = 0.4;
  RandomStream rng4(96004);
  std::vector<double> spectrum4(n4);
  for (std::size_t i = 0; i < n4; ++i)
    spectrum4[i] = sigma4 * (0.25 + 0.75 * static_cast<double>(i) /
                                       static_cast<double>(n4 - 1));
  const Matrix kernel4 = kernel_with_spectrum(spectrum4, rng4);
  const Matrix l4 = ensemble_from_kernel(kernel4);
  const std::uint64_t seed4 = 515151;
  constexpr int kTrials = 15;

  report_thread_sweep(
      "theorem41_thread_sweep", "BENCH_theorem41_threads.json",
      {JsonSeries::number("n", n4), JsonSeries::number("sigma", sigma4, 3)},
      kTrials, [&](const ExecutionContext& ctx) {
        RandomStream run_rng(seed4);
        return sample_filtering_dpp(l4, run_rng, ctx);
      });
  return 0;
}
