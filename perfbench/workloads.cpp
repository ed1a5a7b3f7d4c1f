// The three in-process workloads: t10_rbf_single, t41_filter_single and
// distill_1m_stream. Every input (kernel, per-draw seeds) is derived from
// the run seed; pool sizes are fixed here, never read from the host. The
// pool goes to the samplers' ExecutionContext only: the global linalg
// pool stays detached, the library default (the serve daemon does not
// attach it either).
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dpp/ensemble.h"
#include "dpp/feature_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "layers.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "perfbench.h"
#include "sampling/batched.h"
#include "sampling/filtering.h"
#include "sampling/session.h"
#include "support/error.h"

namespace perfbench {

namespace {

using pardpp::ExecutionContext;
using pardpp::Matrix;
using pardpp::RandomStream;
using pardpp::SampleDiagnostics;
using pardpp::ThreadPool;

constexpr std::size_t kPool = 4;  // every in-process workload's pool size
// The single-draw workloads spread their draws over several kernels made
// from the seed, so one run does not hinge on one kernel's conditioning.
constexpr std::size_t kKernelsPerRun = 8;

// Seed sub-streams (derive_seed's second argument).
constexpr std::uint64_t kKernelStream = 1;
constexpr std::uint64_t kDrawStream = 1000;

/// One operation's outcome: a draw (or a batch of draws).
struct Outcome {
  std::vector<std::vector<int>> samples;
  SampleDiagnostics diag;  ///< summed over the operation's draws
  bool failed = false;     ///< typed SamplingFailure (counted, not wrong)
};

/// How one workload draws. `ctx` carries the pool; `traced` selects the
/// decorated oracle where the workload has one.
using DrawFn = std::function<Outcome(std::uint64_t draw_seed,
                                     const ExecutionContext& ctx,
                                     bool traced)>;

struct Spec {
  std::string name;
  std::size_t n = 0;
  std::size_t k = 0;  ///< 0 = sample size not fixed (filtering)
  std::size_t draws_per_op = 1;
  double slo_ms = 0.0;
  DrawFn draw;
};

double ms_since(double start) { return (now_s() - start) * 1e3; }

void check_outcome(Report& report, const Spec& spec, const Outcome& outcome,
                   const std::string& where) {
  if (outcome.failed) return;
  if (outcome.samples.size() != spec.draws_per_op)
    report.fail(where + ": expected " + std::to_string(spec.draws_per_op) +
                " samples, got " + std::to_string(outcome.samples.size()));
  for (const auto& items : outcome.samples)
    check_sample(report, items, spec.n, spec.k, where);
}

void compare(Report& report, const Outcome& a, const Outcome& b,
             const std::string& what, std::uint64_t draw_seed) {
  if (a.failed != b.failed || a.samples != b.samples)
    report.fail(what + " differs for draw seed " + std::to_string(draw_seed));
}

/// Runs `draw` on seed `s` at the given context, timing it.
Outcome timed(const Spec& spec, std::uint64_t s, const ExecutionContext& ctx,
              bool traced, double& ms) {
  const double start = now_s();
  Outcome outcome;
  try {
    outcome = spec.draw(s, ctx, traced);
  } catch (const pardpp::SamplingFailure&) {
    outcome.failed = true;
  }
  ms = ms_since(start);
  return outcome;
}

/// FNV-1a digest of an outcome's samples and failure flag: repeated draws
/// of one seed are compared through it, so a run keeps no samples alive
/// (retained samples would pin worker-allocated memory and inflate peak
/// RSS).
std::uint64_t digest(const Outcome& outcome) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(outcome.failed ? 1 : 0);
  for (const auto& items : outcome.samples) {
    mix(items.size());
    for (const int item : items) mix(static_cast<std::uint64_t>(item));
  }
  return h;
}

/// Closed loop, one client, in kPasses passes over one list of seeds. The
/// first pass draws fresh seeds until its share of the time budget is
/// spent; the later passes redraw the same seeds in the same order, each
/// redraw bit-identical to the first. The draws of one seed do identical
/// work, so the fastest of its timings is its cost with the least host
/// interference; latency and throughput are taken from those per-seed
/// best timings. Then the first few seeds are re-drawn at pool 1 for
/// bit-identity.
void measure_end_to_end(const Args& args, Report& report, const Spec& spec,
                        ThreadPool& pool) {
  const ExecutionContext parallel(&pool, nullptr);
  constexpr std::size_t kRedraws = 3;  // pool-1 bit-identity checks
  double ms = 0.0;
  for (std::uint64_t w = 0; w < 2; ++w)  // warm caches and the pool
    (void)timed(spec, derive_seed(args.seed, kDrawStream - 1 - w), parallel,
                false, ms);

  std::vector<std::uint64_t> seeds, digests;
  std::vector<double> best_ms;
  std::vector<bool> failed;
  std::size_t draws = 0;
  const auto account = [&](const Outcome& outcome) {
    check_outcome(report, spec, outcome, spec.name);
    ++report.attempted;
    if (outcome.failed) ++report.failed;
  };
  const double start = now_s();
  const double first_pass_end =
      start + args.seconds * 0.9 / static_cast<double>(kPasses);
  // A host slow enough to stretch the later passes past this cuts them
  // short; seeds left out keep the timings they have.
  const double hard_deadline = start + args.seconds * 2.0;
  for (std::uint64_t i = 0; i == 0 || now_s() < first_pass_end; ++i) {
    const std::uint64_t s = derive_seed(args.seed, kDrawStream + i);
    const Outcome outcome = timed(spec, s, parallel, false, ms);
    account(outcome);
    seeds.push_back(s);
    digests.push_back(digest(outcome));
    best_ms.push_back(ms);
    failed.push_back(outcome.failed);
    draws += outcome.samples.size();
  }
  for (std::size_t pass = 1; pass < kPasses && now_s() < hard_deadline; ++pass) {
    for (std::size_t i = 0; i < seeds.size() && now_s() < hard_deadline; ++i) {
      const Outcome outcome = timed(spec, seeds[i], parallel, false, ms);
      account(outcome);
      if (digest(outcome) != digests[i])
        report.fail(spec.name + ": pass " + std::to_string(pass) +
                    " re-draw differs for draw seed " + std::to_string(seeds[i]));
      best_ms[i] = std::min(best_ms[i], ms);
    }
  }

  std::vector<double> latencies;
  double busy_s = 0.0;
  std::size_t failed_seeds = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    busy_s += best_ms[i] / 1e3;
    if (failed[i]) {
      ++failed_seeds;
    } else {
      latencies.push_back(best_ms[i]);
    }
  }
  report.metric("requests_per_s",
                static_cast<double>(latencies.size()) / busy_s, "1/s");
  report.metric("draws_per_s", static_cast<double>(draws) / busy_s, "1/s");
  // Determinism contract: the same seeds at pool 1 give the same samples.
  for (std::size_t i = 0; i < std::min(kRedraws, seeds.size()); ++i) {
    const Outcome serial =
        timed(spec, seeds[i], ExecutionContext::serial(), false, ms);
    if (digest(serial) != digests[i])
      report.fail("pool-1 re-draw differs for draw seed " +
                  std::to_string(seeds[i]));
  }
  report_latency(report, latencies);
  report.metric("slo_met_frac",
                slo_fraction(latencies, failed_seeds, spec.slo_ms), "ratio");
  report.note("slo_ms", spec.slo_ms);
  report.note("passes", static_cast<double>(kPasses));
  report.note("seeds", static_cast<double>(seeds.size()));
  report.note("wall_s", now_s() - start);
}

}  // namespace

void report_layer_defaults(Report& report) {
  const char* ms[] = {"dpp.commit_ms_per_draw",     "dpp.query_many_ms_per_draw",
                      "dpp.restrict_ms_per_draw",   "dpp.partition_ms_per_draw",
                      "sampling.inner_ms_per_draw", "sampling.candidate_ms_per_draw",
                      "linalg.eigensolve_ms_n96",   "linalg.eigensolve_ms_n144",
                      "serving.parse_ms_p50",       "serving.gen_lag_ms_p99",
                      "serving.build_ms"};
  const char* counts[] = {"dpp.refreshes_per_commit",
                          "dpp.diag_refreshes_per_draw",
                          "sampling.rounds_per_draw",
                          "sampling.waves_per_draw",
                          "sampling.queries_per_wave",
                          "sampling.distill_pools_per_draw",
                          "serving.requests_per_batch",
                          "serving.queue_peak",
                          "serving.registry_misses",
                          "serving.evictions",
                          "serving.rejected"};
  const char* ratios[] = {"dpp.commit_share",          "sampling.acceptance_rate",
                          "parallel.speedup_vs_pool1", "serving.registry_hit_frac",
                          "trace.overhead_frac",       "failed_frac"};
  for (const char* name : ms) report.metric(name, 0.0, "ms");
  for (const char* name : counts) report.metric(name, 0.0, "count");
  for (const char* name : ratios) report.metric(name, 0.0, "ratio");
  report.metric("parallel.fork_join_us_p50", 0.0, "us");
}

void report_standalone_layers(const Args& args, Report& report) {
  RandomStream rng(derive_seed(args.seed, 7));
  for (const std::size_t n : {std::size_t{96}, std::size_t{144}}) {
    const Matrix l = pardpp::random_psd(n, n, rng, 1e-6);
    report.metric("linalg.eigensolve_ms_n" + std::to_string(n),
                  eigensolve_ms(l, 15), "ms");
  }
  report.metric("parallel.fork_join_us_p50", fork_join_us(kPool, 2000), "us");
}

namespace {

/// Traced run: per operation seed, an untraced pool-4 draw, a traced draw
/// at `trace_pool`, and an untraced pool-1 draw. The untraced and traced
/// draws swap order every seed, so warm-cache effects cancel. All three
/// must agree bit for bit. Ratios are medians of per-seed ratios: the
/// draws of one seed do identical work.
struct TracedRun {
  std::vector<SampleDiagnostics> traced_diag;  ///< per traced operation
  std::size_t traced_draws = 0;
  double traced_total_ms = 0.0;
};

TracedRun measure_traced(const Args& args, Report& report, const Spec& spec,
                         ThreadPool& pool, std::size_t trace_pool) {
  TracedRun run;
  std::vector<double> speedup, overhead;
  const ExecutionContext parallel(&pool, nullptr);
  const ExecutionContext traced_ctx =
      trace_pool == 1 ? ExecutionContext::serial() : parallel;
  const double deadline = now_s() + args.seconds * 0.8;
  for (std::uint64_t i = 0; now_s() < deadline || i < 2; ++i) {
    const std::uint64_t s = derive_seed(args.seed, kDrawStream + i);
    double a_ms = 0.0, b_ms = 0.0, c_ms = 0.0;
    Outcome a, b;
    const auto untraced = [&] { a = timed(spec, s, parallel, false, a_ms); };
    const auto traced = [&] { b = timed(spec, s, traced_ctx, true, b_ms); };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    const Outcome c = timed(spec, s, ExecutionContext::serial(), false, c_ms);
    check_outcome(report, spec, a, spec.name);
    compare(report, a, b, "traced draw", s);
    compare(report, a, c, "pool-1 re-draw", s);
    ++report.attempted;
    if (a.failed) {
      ++report.failed;
      continue;
    }
    speedup.push_back(c_ms / a_ms);
    overhead.push_back(b_ms / (trace_pool == 1 ? c_ms : a_ms) - 1.0);
    run.traced_total_ms += b_ms;
    run.traced_draws += b.samples.size();
    run.traced_diag.push_back(b.diag);
  }
  report.metric("parallel.speedup_vs_pool1", median(speedup), "ratio");
  report.metric("trace.overhead_frac", median(overhead), "ratio");
  report.metric("failed_frac",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::size_t>(report.attempted, 1)),
                "ratio");
  report.note("trace_pool", static_cast<double>(trace_pool));
  report.note("traced_operations", static_cast<double>(speedup.size()));
  return run;
}

/// Sampler-round counters averaged per draw over the traced outcomes.
void report_round_layers(Report& report, const TracedRun& run) {
  const double draws =
      static_cast<double>(std::max<std::size_t>(run.traced_draws, 1));
  double rounds = 0.0, waves = 0.0, wave_queries = 0.0, proposals = 0.0,
         accepted = 0.0, diag_refreshes = 0.0;
  for (const SampleDiagnostics& d : run.traced_diag) {
    rounds += static_cast<double>(d.rounds);
    waves += static_cast<double>(d.wave_count);
    wave_queries += static_cast<double>(d.wave_queries);
    proposals += static_cast<double>(d.proposals);
    accepted += static_cast<double>(d.accepted_batches);
    diag_refreshes += static_cast<double>(d.spectral_refreshes);
  }
  report.metric("sampling.rounds_per_draw", rounds / draws, "count");
  report.metric("sampling.waves_per_draw", waves / draws, "count");
  report.metric("sampling.queries_per_wave",
                waves > 0 ? wave_queries / waves : 0.0, "count");
  report.metric("sampling.acceptance_rate",
                proposals > 0 ? accepted / proposals : 0.0, "ratio");
  report.metric("dpp.diag_refreshes_per_draw", diag_refreshes / draws,
                "count");
}

/// Commit-path counters from the decorators, per traced draw.
void report_oracle_layers(Report& report, const TracedRun& run,
                          const LayerCounters& counters) {
  const double draws =
      static_cast<double>(std::max<std::size_t>(run.traced_draws, 1));
  const double commit_ms = static_cast<double>(counters.commit_ns) / 1e6;
  report.metric("dpp.commit_ms_per_draw", commit_ms / draws, "ms");
  report.metric("dpp.query_many_ms_per_draw",
                static_cast<double>(counters.query_many_ns) / 1e6 / draws, "ms");
  report.metric("dpp.commit_share",
                run.traced_total_ms > 0 ? commit_ms / run.traced_total_ms : 0.0,
                "ratio");
  const double commits = static_cast<double>(counters.commits);
  report.metric("dpp.refreshes_per_commit",
                commits > 0 ? static_cast<double>(counters.refreshes) / commits
                            : 0.0,
                "count");
}

Outcome single(pardpp::SampleResult result) {
  Outcome outcome;
  outcome.diag = result.diag;
  outcome.samples.push_back(std::move(result.items));
  return outcome;
}

}  // namespace

void run_t10_rbf_single(const Args& args, Report& report) {
  constexpr std::size_t n = 144, k = 36;
  RandomStream rng(derive_seed(args.seed, kKernelStream));
  std::vector<Matrix> ensembles;
  for (std::size_t c = 0; c < kKernelsPerRun; ++c) {
    const Matrix points = pardpp::random_points(n, 2, rng);
    Matrix l = pardpp::rbf_kernel(points, 0.25);
    for (std::size_t i = 0; i < n; ++i) l(i, i) += 1e-6;
    ensembles.push_back(std::move(l));
  }

  // Set-up per kernel: oracle construction plus priming. A build takes a
  // few milliseconds, so each is repeated and the last one is kept.
  std::vector<std::unique_ptr<pardpp::SymmetricKdppOracle>> oracles;
  std::vector<double> setup;
  for (const Matrix& l : ensembles) {
    for (int r = 0; r < 5; ++r) {
      const double start = now_s();
      auto oracle = std::make_unique<pardpp::SymmetricKdppOracle>(l, k, false);
      oracle->prepare_concurrent();
      setup.push_back(now_s() - start);
      if (r == 4) oracles.push_back(std::move(oracle));
    }
  }
  if (!args.trace) report.metric("setup_s", median(setup), "s");

  LayerCounters counters;
  std::vector<std::unique_ptr<TracedOracle>> traced;
  for (const auto& oracle : oracles)
    traced.push_back(std::make_unique<TracedOracle>(*oracle, counters));
  Spec spec{"t10_rbf_single", n, k, 1, 250.0,
            [&](std::uint64_t s, const ExecutionContext& ctx, bool use_traced) {
              const std::size_t c = s % kKernelsPerRun;
              RandomStream draw_rng(s);
              const pardpp::CountingOracle& mu =
                  use_traced ? static_cast<const pardpp::CountingOracle&>(*traced[c])
                             : *oracles[c];
              return single(pardpp::sample_batched(mu, draw_rng, ctx));
            }};
  ThreadPool pool(kPool);
  report.note("pool", static_cast<double>(kPool));
  report.note("kernels", static_cast<double>(kKernelsPerRun));
  if (!args.trace) {
    measure_end_to_end(args, report, spec, pool);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }
  report_layer_defaults(report);
  const TracedRun run = measure_traced(args, report, spec, pool, kPool);
  report_round_layers(report, run);
  report_oracle_layers(report, run, counters);
  report_standalone_layers(args, report);
}

void run_t41_filter_single(const Args& args, Report& report) {
  constexpr std::size_t n = 96;
  constexpr double sigma = 0.4;
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i)
    spectrum[i] = sigma * (0.25 + 0.75 * static_cast<double>(i) /
                                      static_cast<double>(n - 1));
  RandomStream rng(derive_seed(args.seed, kKernelStream));
  std::vector<Matrix> kernels;
  for (std::size_t c = 0; c < kKernelsPerRun; ++c)
    kernels.push_back(pardpp::kernel_with_spectrum(spectrum, rng));

  // Set-up per kernel: the ensemble L = K (I - K)^-1 the sampler takes.
  // A build takes about a millisecond, so each is repeated.
  std::vector<Matrix> ensembles;
  std::vector<double> setup;
  for (const Matrix& kernel : kernels) {
    for (int r = 0; r < 5; ++r) {
      const double start = now_s();
      Matrix l = pardpp::ensemble_from_kernel(kernel);
      setup.push_back(now_s() - start);
      if (r == 0) ensembles.push_back(std::move(l));
    }
  }
  if (!args.trace) report.metric("setup_s", median(setup), "s");

  // The filtering sampler takes the ensemble matrix, not an oracle: there
  // is nothing to decorate, so the traced draw only adds its diagnostics.
  Spec spec{"t41_filter_single", n, 0, 1, 250.0,
            [&](std::uint64_t s, const ExecutionContext& ctx, bool) {
              RandomStream draw_rng(s);
              return single(pardpp::sample_filtering_dpp(
                  ensembles[s % kKernelsPerRun], draw_rng, ctx));
            }};
  ThreadPool pool(kPool);
  report.note("pool", static_cast<double>(kPool));
  report.note("kernels", static_cast<double>(kKernelsPerRun));
  if (!args.trace) {
    measure_end_to_end(args, report, spec, pool);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }
  report_layer_defaults(report);
  const TracedRun run = measure_traced(args, report, spec, pool, kPool);
  report_round_layers(report, run);
  report_standalone_layers(args, report);
}

void run_distill_1m_stream(const Args& args, Report& report) {
  constexpr std::size_t n = 1000000, d = 24, k = 8, batch = 32;
  RandomStream rng(derive_seed(args.seed, kKernelStream));
  Matrix features = pardpp::random_gaussian(n, d, rng);

  pardpp::SessionOptions options;
  options.distill.enabled = true;
  double start = now_s();
  // Moved in: at n = 10^6 the feature matrix dominates memory.
  const pardpp::FeatureKdppOracle oracle(std::move(features), k);
  const double construct_s = now_s() - start;
  // Set-up: oracle construction plus the session's distillation prime,
  // which is repeated (the oracle construction is a single move).
  std::unique_ptr<pardpp::SamplerSession> session;
  std::vector<double> setup;
  for (int r = 0; r < (args.trace ? 1 : 5); ++r) {
    session.reset();
    const double t0 = now_s();
    session = std::make_unique<pardpp::SamplerSession>(oracle, options);
    setup.push_back(construct_s + (now_s() - t0));
  }
  if (!args.trace) report.metric("setup_s", median(setup), "s");

  LayerCounters counters;
  const TracedOracle traced(oracle, counters);
  std::unique_ptr<pardpp::SamplerSession> traced_session;
  if (args.trace)
    traced_session = std::make_unique<pardpp::SamplerSession>(traced, options);

  ThreadPool pool(kPool);
  Spec spec{"distill_1m_stream", n, k, batch, 40.0,
            [&](std::uint64_t s, const ExecutionContext& ctx, bool use_traced) {
              RandomStream draw_rng(s);
              pardpp::SamplerSession& target =
                  use_traced ? *traced_session : *session;
              Outcome outcome;
              for (auto& result : target.draw_many(batch, draw_rng, ctx)) {
                const SampleDiagnostics& d1 = result.diag;
                outcome.diag.rounds += d1.rounds;
                outcome.diag.proposals += d1.proposals;
                outcome.diag.accepted_batches += d1.accepted_batches;
                outcome.diag.wave_count += d1.wave_count;
                outcome.diag.wave_queries += d1.wave_queries;
                outcome.diag.spectral_refreshes += d1.spectral_refreshes;
                outcome.samples.push_back(std::move(result.items));
              }
              return outcome;
            }};
  report.note("pool", static_cast<double>(kPool));
  report.note("draws_per_batch", static_cast<double>(batch));
  if (!args.trace) {
    measure_end_to_end(args, report, spec, pool);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }
  report_layer_defaults(report);
  // Distilled draws run serially inside draw_many's workers, so the
  // per-draw breakdown is taken at pool 1, where per-draw wall time and
  // the sum of its layers are comparable.
  const TracedRun run = measure_traced(args, report, spec, pool, 1);
  report_round_layers(report, run);
  report_oracle_layers(report, run, counters);
  const double draws =
      static_cast<double>(std::max<std::size_t>(run.traced_draws, 1));
  const double restrict_ms = static_cast<double>(counters.restrict_ns) / 1e6;
  const double partition_ms = static_cast<double>(counters.partition_ns) / 1e6;
  const double inner_ms = static_cast<double>(counters.inner_ns) / 1e6;
  report.metric("sampling.distill_pools_per_draw",
                static_cast<double>(counters.restrict_calls) / draws, "count");
  report.metric("dpp.restrict_ms_per_draw", restrict_ms / draws, "ms");
  report.metric("dpp.partition_ms_per_draw", partition_ms / draws, "ms");
  report.metric("sampling.inner_ms_per_draw", inner_ms / draws, "ms");
  report.metric("sampling.candidate_ms_per_draw",
                (run.traced_total_ms - restrict_ms - partition_ms - inner_ms) /
                    draws,
                "ms");
  report_standalone_layers(args, report);
}

}  // namespace perfbench
