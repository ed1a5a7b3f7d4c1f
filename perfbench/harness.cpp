// Benchmark harness entry point: parses the run arguments, dispatches to
// one workload, and prints the run's report as the last stdout line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --daemon <sample_cli path> --scratch <dir>
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "perfbench.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& what) {
  // Keep the first few: one systematic defect would otherwise repeat per
  // operation.
  if (errors_.size() < 20) errors_.push_back(what);
}

void Report::note(const std::string& key, const std::string& value) {
  provenance_[key] = json_string(value);
}

void Report::note(const std::string& key, double value) {
  provenance_[key] = json_number(value);
}

void Report::note_json(const std::string& key, const std::string& json) {
  provenance_[key] = json;
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    out << (i ? ", " : "") << json_string(errors_[i]);
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(entry.first) << ", \"unit\": "
        << json_string(entry.second) << "}";
    first = false;
  }
  out << "}, \"provenance\": {";
  first = true;
  for (const auto& [key, value] : provenance_) {
    out << (first ? "" : ", ") << json_string(key) << ": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Continued fraction for the regularized incomplete beta function
// (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    for (const double aa :
         {m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
          -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))}) {
      d = 1.0 + aa * d;
      d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
      c = 1.0 + aa / c;
      if (std::abs(c) < kTiny) c = kTiny;
      h *= d * c;
    }
    if (std::abs(d * c - 1.0) < 1e-15) break;
  }
  return h;
}

/// I_x(a, b).
double incomplete_beta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(a * std::log(x) + b * std::log1p(-x) -
                                (std::lgamma(a) + std::lgamma(b) -
                                 std::lgamma(a + b)));
  if (x < (a + 1.0) / (a + b + 2.0))
    return front * beta_continued_fraction(a, b, x) / a;
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return values[0];
  // Harrell-Davis: a Beta(q(n+1), (1-q)(n+1))-weighted mean of all order
  // statistics. A tail quantile then rests on several samples instead of
  // one, which steadies p99 on runs of a few hundred draws.
  const double a = q * static_cast<double>(n + 1);
  const double b = (1.0 - q) * static_cast<double>(n + 1);
  if (a <= 0.0) return values.front();
  if (b <= 0.0) return values.back();
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double upto = incomplete_beta(
        static_cast<double>(i) / static_cast<double>(n), a, b);
    estimate += (upto - below) * values[i - 1];
    below = upto;
  }
  return estimate;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void check_sample(Report& report, const std::vector<int>& items,
                  std::size_t n, std::size_t k, const std::string& where) {
  if (k > 0 && items.size() != k) {
    report.fail(where + ": sample has " + std::to_string(items.size()) +
                " items, expected " + std::to_string(k));
    return;
  }
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (items[j] < 0 || static_cast<std::size_t>(items[j]) >= n) {
      report.fail(where + ": item " + std::to_string(items[j]) +
                  " out of range");
      return;
    }
    if (j > 0 && items[j] <= items[j - 1]) {
      report.fail(where + ": items not sorted and distinct");
      return;
    }
  }
}

double slo_fraction(const std::vector<double>& latencies_ms,
                    std::size_t failed, double limit_ms) {
  const std::size_t total = latencies_ms.size() + failed;
  if (total == 0) return 0.0;
  const auto met = static_cast<std::size_t>(
      std::count_if(latencies_ms.begin(), latencies_ms.end(),
                    [limit_ms](double ms) { return ms <= limit_ms; }));
  return static_cast<double>(met) / static_cast<double>(total);
}

void report_latency(Report& report, const std::vector<double>& latencies_ms) {
  report.metric("latency_ms_p50", quantile(latencies_ms, 0.50), "ms");
  // The tail quantiles follow host CPU contention (stolen time, stalled
  // vCPUs) more than the program on shared hosts, so they are reported
  // unbounded in the provenance; slo_met_frac is the bounded tail metric.
  report.note("latency_ms_p90", quantile(latencies_ms, 0.90));
  report.note("latency_ms_p99", quantile(latencies_ms, 0.99));
  report.note("latency_samples", static_cast<double>(latencies_ms.size()));
}

std::string host_provenance(const std::string& scratch) {
  // The repo's bench JSON writer stamps every record with the host
  // fields; write one empty record and read the stamped object back.
  const std::string path =
      (std::filesystem::path(scratch) / "host_record.json").string();
  {
    pardpp::bench::JsonSeries series;
    series.add_record({});
    series.write(path);
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const std::size_t open = all.find('{');
  const std::size_t close = all.rfind('}');
  if (open == std::string::npos || close == std::string::npos) return "{}";
  return all.substr(open, close - open + 1);
}

std::vector<double> cpu_ticks() {
  // Aggregate line of /proc/stat: user nice system idle iowait irq
  // softirq steal ...; empty where the file does not exist.
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<double> ticks;
  double value = 0.0;
  while (ticks.size() < 8 && stat >> value) ticks.push_back(value);
  return ticks;
}

double steal_fraction(const std::vector<double>& before,
                      const std::vector<double>& after) {
  if (before.size() < 8 || after.size() < 8) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < 8; ++i) total += after[i] - before[i];
  return total > 0 ? (after[7] - before[7]) / total : 0.0;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --daemon <path> --scratch <dir>\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.scratch.empty()) usage("--scratch is required");

  perfbench::Report report;
  report.note("workload", args.workload);
  report.note("seed", static_cast<double>(args.seed));
  report.note("trace", args.trace ? 1.0 : 0.0);
  report.note_json("host", perfbench::host_provenance(args.scratch));
  // Time the hypervisor gave other guests while this run wanted a CPU: the
  // main source of run-to-run spread on shared hosts.
  const std::vector<double> ticks_before = perfbench::cpu_ticks();
  try {
    if (args.workload == "t10_rbf_single") {
      perfbench::run_t10_rbf_single(args, report);
    } else if (args.workload == "t41_filter_single") {
      perfbench::run_t41_filter_single(args, report);
    } else if (args.workload == "distill_1m_stream") {
      perfbench::run_distill_1m_stream(args, report);
    } else if (args.workload == "serve_daemon_mix") {
      if (args.daemon.empty()) usage("--daemon is required for serve");
      perfbench::run_serve_daemon_mix(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("unexpected exception: ") + e.what());
  }
  report.note("host_steal_frac",
              perfbench::steal_fraction(ticks_before, perfbench::cpu_ticks()));
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
