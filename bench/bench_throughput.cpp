// EXP-THR — SamplerSession throughput: samples/sec vs pool size.
//
// The axis the theorem benches don't measure: how fast can the system
// serve *many independent samples* from one distribution? The baseline is
// the per-sample condition() path — what every pre-session entry point
// does: clone the oracle (cold caches), re-run the spectral preprocessing
// per draw, and materialize a fresh conditioned oracle per accepted
// round. The commit path (DESIGN.md §2 convention 7) pays the base
// preprocessing once per session and keeps every round incremental;
// draw_many additionally fans independent draws out on the pool.
//
// Contract checks folded into the measurement: the commit path's sample
// sequence is bit-identical to the condition() reference sequence from
// the same seed, at every pool size.
//
// The RBF family (the t10 kernel, n=144 k=36) is a measurement row: its
// power-trace basis passes the Newton guards only to a shallow depth, so
// most commits pay a spectral refresh. It records that refresh count and
// the cost per draw; its only gate is sample identity.
#include <cstdio>

#include "bench_util.h"
#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "sampling/session.h"
#include "support/random.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

struct ThroughputConfig {
  std::string family;
  std::size_t n = 0;
  std::size_t d = 0;  // 0 = dense symmetric
  std::size_t k = 0;
  std::size_t samples = 0;
  // Target speedup of the commit path over the condition() reference;
  // 0 marks a measurement row, gated on sample identity alone.
  double target = 0.0;
};

constexpr int kTrials = 9;

std::vector<std::vector<int>> items_of(std::vector<SampleResult> results) {
  std::vector<std::vector<int>> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r.items));
  return out;
}

std::size_t refreshes_of(const std::vector<SampleResult>& results) {
  std::size_t total = 0;
  for (const auto& r : results) total += r.diag.spectral_refreshes;
  return total;
}

bool run_config(const CountingOracle& oracle, const ThroughputConfig& config,
                JsonSeries& json) {
  SessionOptions commit_options;
  SessionOptions reference_options;
  reference_options.use_commit = false;
  SamplerSession commit_session(oracle, commit_options);
  SamplerSession reference_session(oracle, reference_options);
  const std::uint64_t seed = 884422;

  // Arms: the commit path at each pool size, then the per-sample
  // condition() reference, serial: every draw re-derives the base
  // preprocessing and every accepted round a conditioned oracle.
  const PoolArms pools;
  const std::size_t reference = pools.size();
  std::vector<std::vector<std::vector<int>>> items(pools.size() + 1);
  std::vector<std::size_t> refreshes(pools.size() + 1, 0);
  const Trials trials =
      run_trials(pools.size() + 1, kTrials, [&](std::size_t arm) {
        RandomStream rng(seed);
        auto results =
            arm == reference
                ? reference_session.draw_many(config.samples, rng,
                                              ExecutionContext::serial())
                : pools.run(arm, [&](const ExecutionContext& ctx) {
                    return commit_session.draw_many(config.samples, rng, ctx);
                  });
        refreshes[arm] = refreshes_of(results);
        items[arm] = items_of(std::move(results));
      });

  Table table({"pool", "best_ms", "median_ms", "iqr", "samples_per_sec",
               "vs_pool1_q1", "vs_condition_q1", "vs_condition_med",
               "refreshes", "identical", "gate"});
  bool any_regression = false;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const ArmTimes& arm = trials.arms[p];
    const bool identical =
        items[p] == items[0] && items[p] == items[reference];
    const RatioGate scaling = trials.gate(0, p, 1.0);
    // The acceptance target over the per-sample condition() reference
    // (7x low-rank, 14x dense symmetric). The commit path runs
    // factor-native (Cholesky downdates + Newton ESPs per accepted round)
    // while the reference re-runs the spectral preprocessing per draw.
    // The `refreshes` column counts eigensolve fallbacks paid by the
    // commit path — 0 on well-conditioned kernels.
    const RatioGate target = trials.gate(reference, p, config.target);
    const bool timed_gates = config.target > 0.0;
    const bool regression =
        !identical || (timed_gates && (!scaling.pass() || !target.pass()));
    any_regression = any_regression || regression;
    table.add_row(
        {fmt_int(pools.pool_size(p)), fmt(arm.best(), 1),
         fmt(arm.median(), 1), fmt(100.0 * arm.iqr() / arm.median(), 0) + "%",
         fmt(1000.0 * static_cast<double>(config.samples) / arm.median(), 1),
         fmt(scaling.q1, 2), fmt(target.q1, 1), fmt(target.median, 1),
         fmt_int(refreshes[p]), identical ? "yes" : "NO",
         regression ? "REGRESSION" : timed_gates ? "ok" : "identity"});
    JsonSeries::Record record{
        {JsonSeries::text("experiment", "session_throughput"),
         JsonSeries::text("family", config.family),
         JsonSeries::number("n", config.n), JsonSeries::number("d", config.d),
         JsonSeries::number("k", config.k),
         JsonSeries::number("samples", config.samples),
         JsonSeries::number("pool", pools.pool_size(p))},
        arm_fields("wall", arm),
        gate_fields("speedup", scaling),
        trial_fields(trials)};
    for (auto& field : arm_fields("condition", trials.arms[reference]))
      record.measurement.push_back(std::move(field));
    record.measurement.push_back(
        JsonSeries::number("spectral_refreshes", refreshes[p]));
    record.measurement.push_back(JsonSeries::number(
        "ms_per_draw", arm.median() / static_cast<double>(config.samples),
        2));
    // Session-lifetime guard-failure counter (convention 12): 0 unless a
    // PARDPP_FAILPOINTS schedule was armed under the bench.
    record.measurement.push_back(JsonSeries::number(
        "guard_failures", commit_session.health().failures));
    for (auto& field : gate_fields("vs_condition", target))
      record.gate.push_back(std::move(field));
    record.gate.push_back(
        JsonSeries::text("identical", identical ? "yes" : "no"));
    record.gate.push_back(JsonSeries::boolean("regression", regression));
    json.add_record(std::move(record));
  }
  std::printf("\ncondition() reference: best %.1f ms, median %.1f ms for %zu "
              "samples",
              trials.arms[reference].best(), trials.arms[reference].median(),
              config.samples);
  if (config.target > 0.0) {
    std::printf(" (target: commit path >= %.0fx at q1)\n", config.target);
  } else {
    std::printf(" (measurement row: gated on sample identity only)\n");
  }
  table.print();
  trials.print_note();
  return any_regression;
}

}  // namespace

int main() {
  print_header(
      "EXP-THR", "SamplerSession commit-path throughput",
      "amortized preprocessing + factor-native commit rounds serve >= 7x "
      "(low-rank) and >= 14x (dense symmetric, eigensolve-free rounds) the "
      "samples/sec of the per-sample condition() baseline at n >= 128, "
      "bit-identical samples at every pool size");
  JsonSeries json;
  bool any_regression = false;
  RandomStream setup(880099);

  {
    ThroughputConfig config{"feature", /*n=*/1024, /*d=*/24, /*k=*/8,
                            /*samples=*/24, /*target=*/7.0};
    std::printf("\n-- low-rank feature family: n=%zu d=%zu k=%zu --\n",
                config.n, config.d, config.k);
    const Matrix features = random_gaussian(config.n, config.d, setup);
    const FeatureKdppOracle oracle(features, config.k);
    any_regression = run_config(oracle, config, json) || any_regression;
  }
  {
    ThroughputConfig config{"symmetric", /*n=*/128, /*d=*/0, /*k=*/10,
                            /*samples=*/8, /*target=*/14.0};
    std::printf("\n-- dense symmetric family: n=%zu k=%zu --\n", config.n,
                config.k);
    const Matrix l = random_psd(config.n, config.n, setup, 1e-5);
    const SymmetricKdppOracle oracle(l, config.k, /*validate=*/false);
    any_regression = run_config(oracle, config, json) || any_regression;
  }

  {
    ThroughputConfig config{"rbf", /*n=*/144, /*d=*/0, /*k=*/36,
                            /*samples=*/4, /*target=*/0.0};
    std::printf("\n-- ill-conditioned RBF family: n=%zu k=%zu --\n",
                config.n, config.k);
    Matrix l = rbf_kernel(random_points(config.n, 2, setup), 0.25);
    for (std::size_t i = 0; i < config.n; ++i) l(i, i) += 1e-6;
    const SymmetricKdppOracle oracle(l, config.k, /*validate=*/false);
    any_regression = run_config(oracle, config, json) || any_regression;
  }

  if (any_regression)
    std::printf("\n! REGRESSION: a pool size lost to pool 1, the commit "
                "path missed its family target (7x low-rank, 14x dense "
                "symmetric) over the condition() reference, or a sample "
                "diverged from that reference (all gates at q1)\n");
  json.write(bench_out_path("BENCH_throughput.json"));
  return 0;
}
