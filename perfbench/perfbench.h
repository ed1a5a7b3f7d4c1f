// Shared pieces of the benchmark harness: arguments, the result report,
// seed derivation, order statistics and the sample-shape checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;   ///< path of the sample_cli binary (serve workload)
  std::string scratch;  ///< writable directory inside the checkout
};

/// What one run hands back: metrics by name, correctness failures,
/// operation counts and provenance. Serialized as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure; the run then reports no numbers.
  void fail(const std::string& what);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  /// Embeds a preformatted JSON value under `key` in the provenance.
  void note_json(const std::string& key, const std::string& json);

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] std::string to_json() const;

  std::size_t attempted = 0;
  std::size_t failed = 0;

 private:
  std::vector<std::string> errors_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> provenance_;  // key -> JSON value
};

/// Untraced runs measure in this many passes over the same operations and
/// keep each operation's best timing. On a shared host, per-core speed
/// swings by up to 2x in phases of several seconds; a pass lasts a few
/// seconds, so an operation's passes rarely all fall in slow phases.
constexpr std::size_t kPasses = 8;

/// Independent 64-bit seed for sub-stream `stream` of the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

/// Monotonic clock in seconds.
[[nodiscard]] double now_s() noexcept;

/// Harrell-Davis quantile estimate (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Checks one sample's shape: sorted, distinct, inside [0, n), and of
/// size k when k > 0. Failures go to the report, tagged with `where`.
void check_sample(Report& report, const std::vector<int>& items,
                  std::size_t n, std::size_t k, const std::string& where);

/// Shares of `latencies_ms` within `limit_ms`, counting `failed`
/// operations as misses.
[[nodiscard]] double slo_fraction(const std::vector<double>& latencies_ms,
                                  std::size_t failed, double limit_ms);

/// The latency quantiles every workload reports: p50 as a metric, p90 and
/// p99 in the provenance.
void report_latency(Report& report, const std::vector<double>& latencies_ms);

/// Host fields (nproc, CPU model, SIMD arm) as stamped by the repo's
/// bench JSON writer, returned as a JSON object.
[[nodiscard]] std::string host_provenance(const std::string& scratch);

/// Sets every per-layer metric to 0: a traced run reports them all, and a
/// layer its workload does not exercise reads 0.
void report_layer_defaults(Report& report);

/// Standalone probes measured on every traced run: the eigensolver at the
/// two in-process kernel sizes and an empty fork-join round at pool 4.
void report_standalone_layers(const Args& args, Report& report);

/// Aggregate CPU tick counters from /proc/stat (empty if unavailable),
/// and the share of ticks stolen by the hypervisor between two readings.
[[nodiscard]] std::vector<double> cpu_ticks();
[[nodiscard]] double steal_fraction(const std::vector<double>& before,
                                    const std::vector<double>& after);

/// One entry point per workload.
void run_t10_rbf_single(const Args& args, Report& report);
void run_t41_filter_single(const Args& args, Report& report);
void run_distill_1m_stream(const Args& args, Report& report);
void run_serve_daemon_mix(const Args& args, Report& report);

}  // namespace perfbench
