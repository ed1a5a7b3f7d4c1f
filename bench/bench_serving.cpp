// EXP-SRV — sampling-as-a-service: coalesced serving throughput.
//
// The serving question on top of EXP-THR: many *independent clients*
// each want a few draws from the same kernel. One-session-per-request
// serving (the pre-registry architecture) pays the session priming per
// request; the SamplingServer routes every request through the session
// registry (priming paid once per kernel) and coalesces concurrent
// requests for one fingerprint into a single draw_many_batched dispatch
// on the shared pool. The acceptance gate for the serving stack is a
// >= 1.5x sustained draws/sec advantage at the same pool size.
//
// Contract checks folded into the measurement: every coalesced
// request's draws are bit-identical to a standalone per-request serial
// session drawing from the same seed — coalescing must be invisible in
// the results — and the per-session baseline must agree too (the
// draw_many pool-independence contract).
#include <cstdio>
#include <future>

#include "bench_util.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/fingerprint.h"
#include "serving/registry.h"
#include "serving/server.h"
#include "support/random.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

// Dense symmetric family: session priming is the expensive part (the
// full n x n spectral preprocessing) while a commit-path draw is cheap —
// exactly the serving shape where one-session-per-request hurts. Each
// client asks for one draw, the worst case for amortization.
struct ServingBenchConfig {
  std::size_t n = 128;
  std::size_t k = 10;
  std::size_t requests = 16;           // concurrent clients per pass
  std::size_t draws_per_request = 1;   // each client asks for one draw
};

constexpr int kTrials = 9;

std::uint64_t request_seed(std::size_t r) { return 771000 + 37 * r; }

std::vector<std::vector<std::vector<int>>> items_of(
    std::vector<std::vector<SampleResult>> per_request) {
  std::vector<std::vector<std::vector<int>>> out(per_request.size());
  for (std::size_t r = 0; r < per_request.size(); ++r)
    for (auto& result : per_request[r])
      out[r].push_back(std::move(result.items));
  return out;
}

}  // namespace

int main() {
  print_header(
      "EXP-SRV", "sampling-as-a-service coalesced serving throughput",
      "registry + request coalescing sustain >= 1.5x the draws/sec of "
      "one-session-per-request serving at the same pool size, with every "
      "coalesced request bit-identical to its standalone serial draws");

  const ServingBenchConfig config;
  RandomStream setup(909011);
  const Matrix l = random_psd(config.n, config.n, setup, 1e-5);
  const SymmetricKdppOracle oracle(l, config.k, /*validate=*/false);
  const std::string canonical = serving::SessionConfig{}.to_string();
  const serving::KernelFingerprint fingerprint = serving::fingerprint_kernel(
      "kernel", l, config.k, canonical);
  const auto factory = [&l, k = config.k] {
    return std::unique_ptr<CountingOracle>(
        std::make_unique<SymmetricKdppOracle>(l, k, /*validate=*/false));
  };

  // Bit-identity reference: each request standalone — its own session,
  // its own stream from its own seed, serial execution.
  std::vector<std::vector<std::vector<int>>> reference;
  {
    std::vector<std::vector<SampleResult>> results(config.requests);
    for (std::size_t r = 0; r < config.requests; ++r) {
      SamplerSession session(oracle);
      RandomStream rng(request_seed(r));
      results[r] = session.draw_many(config.draws_per_request, rng,
                                     ExecutionContext::serial());
    }
    reference = items_of(std::move(results));
  }

  const std::size_t hw = physical_concurrency();
  std::vector<std::size_t> pools = {1};
  if (hw > 1) pools.push_back(hw);

  JsonSeries json;
  bool any_regression = false;
  Table table({"pool", "best_ms", "median_ms", "persession_best_ms",
               "persession_median_ms", "speedup_q1", "speedup_med",
               "coalesced/batch", "identical", "gate"});

  for (const std::size_t pool_size : pools) {
    // Arm 0: one session per request, what a registry-less server does
    // with every wire request: build the oracle from the kernel and prime
    // a fresh session (the exact work the registry factory pays once),
    // then draw. Sharing a warmed oracle across requests would hide the
    // whole cost being amortized. Arm 1: coalesced serving through the
    // registry-shared session with batched dispatch; its warmup call
    // primes the registry entry.
    serving::ServingConfig serving_config;
    serving_config.pool_threads = pool_size;
    serving::SamplingServer server(serving_config);
    ThreadPool pool(pool_size);
    const ExecutionContext ctx(&pool, nullptr);
    std::vector<std::vector<std::vector<std::vector<int>>>> items(2);
    const Trials trials = run_trials(2, kTrials, [&](std::size_t arm) {
      std::vector<std::vector<SampleResult>> results(config.requests);
      if (arm == 0) {
        for (std::size_t r = 0; r < config.requests; ++r) {
          const auto base = factory();     // oracle built per request
          SamplerSession session(*base);   // priming paid per request
          RandomStream rng(request_seed(r));
          results[r] = session.draw_many(config.draws_per_request, rng, ctx);
        }
      } else {
        std::vector<std::future<std::vector<SampleResult>>> futures;
        futures.reserve(config.requests);
        for (std::size_t r = 0; r < config.requests; ++r) {
          serving::ServerRequest request;
          request.fingerprint = fingerprint;
          request.resident_bytes = std::size_t{1} << 16;
          request.make_oracle = factory;
          request.count = config.draws_per_request;
          request.seed = request_seed(r);
          futures.push_back(server.submit(std::move(request)));
        }
        for (std::size_t r = 0; r < config.requests; ++r)
          results[r] = futures[r].get();
      }
      items[arm] = items_of(std::move(results));
    });
    std::printf("pool %zu: ", pool_size);
    trials.print_note();
    const serving::ServerStats stats = server.stats();
    const double coalesced_per_batch =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.coalesced_requests) /
                                 static_cast<double>(stats.batches);

    const bool identical = items[0] == reference && items[1] == reference;
    // The serving-stack acceptance gate: coalesced serving sustains
    // >= 1.5x the one-session-per-request draws/sec, results identical.
    const RatioGate gate = trials.gate(0, 1, 1.5);
    const bool regression = !gate.pass() || !identical;
    any_regression = any_regression || regression;

    const ArmTimes& serve = trials.arms[1];
    const ArmTimes& persession = trials.arms[0];
    table.add_row({fmt_int(pool_size), fmt(serve.best(), 1),
                   fmt(serve.median(), 1), fmt(persession.best(), 1),
                   fmt(persession.median(), 1), fmt(gate.q1, 2),
                   fmt(gate.median, 2), fmt(coalesced_per_batch, 1),
                   identical ? "yes" : "NO",
                   regression ? "REGRESSION" : "ok"});
    JsonSeries::Record record{
        {JsonSeries::text("experiment", "serving_coalescing"),
         JsonSeries::text("family", "symmetric"),
         JsonSeries::number("n", config.n), JsonSeries::number("k", config.k),
         JsonSeries::number("requests", config.requests),
         JsonSeries::number("draws_per_request", config.draws_per_request),
         JsonSeries::number("pool", pool_size)},
        arm_fields("wall", serve),
        gate_fields("speedup_vs_persession", gate),
        trial_fields(trials)};
    for (auto& field : arm_fields("persession_wall", persession))
      record.measurement.push_back(std::move(field));
    record.measurement.push_back(JsonSeries::number(
        "batches", static_cast<std::size_t>(stats.batches)));
    record.measurement.push_back(
        JsonSeries::number("coalesced_per_batch", coalesced_per_batch, 2));
    record.measurement.push_back(
        JsonSeries::number("queue_peak", stats.queue_peak));
    record.gate.push_back(
        JsonSeries::text("identical", identical ? "yes" : "no"));
    record.gate.push_back(JsonSeries::boolean("regression", regression));
    json.add_record(std::move(record));
  }

  std::printf("\n%zu requests x %zu draws, dense symmetric n=%zu k=%zu; "
              "baseline primes one session per request, serving primes "
              "once and coalesces\n",
              config.requests, config.draws_per_request, config.n,
              config.k);
  table.print();
  if (any_regression)
    std::printf("\n! REGRESSION: coalesced serving below 1.5x the "
                "one-session-per-request baseline, or results diverged "
                "from the standalone serial reference\n");
  json.write(bench_out_path("BENCH_serving.json"));
  return 0;
}
