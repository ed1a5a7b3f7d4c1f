// Shared helpers for the experiment harness binaries.
//
// Every bench prints: a header naming the experiment (DESIGN.md §3, the
// experiment index), the paper claim being reproduced, and an aligned
// table of measured series. Every timed comparison goes through
// run_trials (warmed arms, interleaved trials, every trial's time kept),
// and every timing gate through RatioGate: two arms are compared trial
// by trial, and the gate passes only when the lower quartile of those
// per-trial speedups clears its bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "linalg/simd.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/diagnostics.h"
#include "support/timer.h"

namespace pardpp::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& artifact,
                         const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("# %s — %s\n", experiment_id.c_str(), artifact.c_str());
  std::printf("# claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Prints one aligned table: a row of column names then value rows.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(const std::vector<std::string>& values) {
    rows_.push_back(values);
  }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
      widths[c] = columns_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
        widths[c] = std::max(widths[c], row[c].size());
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      std::printf("\n");
    };
    print_row(columns_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_int(std::size_t v) { return std::to_string(v); }

/// Resolves a bench artifact name to its path under `bench-out/`
/// (creating the directory on first use). Every emitted `BENCH_*.json`
/// goes through this: artifacts land in a gitignored output directory —
/// never in the repo root, where a stale copy could be committed — and CI
/// uploads `bench-out/` wholesale.
inline std::string bench_out_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench-out", ec);
  if (ec) return name;  // fall back to the cwd, still reported by write()
  return (std::filesystem::path("bench-out") / name).string();
}

/// Linear-interpolation quantile (numpy's default rule) of the non-empty
/// `values` at `q` in [0, 1].
inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// One arm's wall clocks from run_trials, one per trial in trial order.
struct ArmTimes {
  std::vector<double> ms;

  [[nodiscard]] double best() const {
    return *std::min_element(ms.begin(), ms.end());
  }
  [[nodiscard]] double median() const { return quantile(ms, 0.5); }
  [[nodiscard]] double iqr() const {
    return quantile(ms, 0.75) - quantile(ms, 0.25);
  }
};

/// A gate on per-trial speedups. It passes only when their lower quartile
/// is at or above the bound: about three trials in four must clear it, so
/// neither one lucky trial passes a gate nor one unlucky trial fails it.
struct RatioGate {
  double q1 = 0.0;
  double median = 0.0;
  double bound = 0.0;

  [[nodiscard]] bool pass() const { return q1 >= bound; }
};

inline RatioGate ratio_gate(const std::vector<double>& speedups,
                            double bound) {
  return {quantile(speedups, 0.25), quantile(speedups, 0.5), bound};
}

/// The aggregate tick counters of /proc/stat (user nice system idle
/// iowait irq softirq steal); empty where the file does not exist.
inline std::vector<double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<double> ticks;
  double value = 0.0;
  while (ticks.size() < 8 && stat >> value) ticks.push_back(value);
  return ticks;
}

/// What run_trials measured: every arm's per-trial wall clocks, and the
/// share of host CPU time the hypervisor stole while they ran.
struct Trials {
  std::vector<ArmTimes> arms;
  double steal_frac = 0.0;

  /// Per-trial speedup of `arm` over `base`: base's time over arm's time
  /// within each trial.
  [[nodiscard]] std::vector<double> speedups(std::size_t base,
                                             std::size_t arm) const {
    std::vector<double> out(arms[arm].ms.size());
    for (std::size_t t = 0; t < out.size(); ++t)
      out[t] = arms[base].ms[t] / arms[arm].ms[t];
    return out;
  }
  [[nodiscard]] RatioGate gate(std::size_t base, std::size_t arm,
                               double bound) const {
    return ratio_gate(speedups(base, arm), bound);
  }
  /// Divides every time by `units`, for arms whose call does `units`
  /// units of work.
  void per(double units) {
    for (ArmTimes& arm : arms)
      for (double& ms : arm.ms) ms /= units;
  }
  void print_note() const {
    std::printf("%zu interleaved trials per arm, host steal %.1f%%; gates "
                "read the lower quartile (q1)\n",
                arms[0].ms.size(), 100.0 * steal_frac);
  }
};

/// The one measurement protocol of every timed comparison in the benches.
/// `run(a)` runs arm `a` once: a pool size, a dispatch arm, a serving
/// architecture, a reference path. Every arm first runs once untimed
/// (allocator, caches, lazy set-up); then each of `trials` trials runs
/// every arm once, the order of the arms rotating from trial to trial so
/// neither host drift nor position within a trial favours an arm. The
/// arms of one trial run back to back, which is why gates compare arms
/// trial by trial. `run` must reseed its own streams so every call does
/// the same work.
template <typename RunArm>
Trials run_trials(std::size_t arms, int trials, RunArm&& run) {
  for (std::size_t a = 0; a < arms; ++a) run(a);
  Trials out;
  out.arms.resize(arms);
  const std::vector<double> before = cpu_ticks();
  for (int t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < arms; ++i) {
      const std::size_t a = (static_cast<std::size_t>(t) + i) % arms;
      const Timer timer;
      run(a);
      out.arms[a].ms.push_back(timer.millis());
    }
  }
  const std::vector<double> after = cpu_ticks();
  if (before.size() == 8 && after.size() == 8) {
    double total = 0.0;
    for (std::size_t i = 0; i < 8; ++i) total += after[i] - before[i];
    if (total > 0.0) out.steal_frac = (after[7] - before[7]) / total;
  }
  return out;
}

/// One thread pool per pool size {1, 2, 4, hardware}, deduped ascending:
/// the arms of a scaling sweep, arm 0 being pool size 1. Pools wider than
/// the hardware still run (the determinism check across pool sizes is
/// what matters there); only their speedups depend on the core count.
class PoolArms {
 public:
  PoolArms() {
    std::vector<std::size_t> sizes = {1, 2, 4};
    if (std::thread::hardware_concurrency() > 4)
      sizes.push_back(std::thread::hardware_concurrency());
    for (const std::size_t size : sizes)
      pools_.push_back(std::make_unique<ThreadPool>(size));
  }

  [[nodiscard]] std::size_t size() const { return pools_.size(); }
  [[nodiscard]] std::size_t pool_size(std::size_t arm) const {
    return pools_[arm]->size();
  }

  /// fn(ctx) on an ExecutionContext over arm's pool, with the pool also
  /// attached to the linalg hook for the call (and detached after it,
  /// even when fn throws).
  template <typename Fn>
  auto run(std::size_t arm, Fn&& fn, PramLedger* ledger = nullptr) const {
    struct LinalgHook {
      explicit LinalgHook(ThreadPool* pool) { set_linalg_pool(pool); }
      ~LinalgHook() { set_linalg_pool(nullptr); }
    } const hook(pools_[arm].get());
    return fn(ExecutionContext(pools_[arm].get(), ledger));
  }

 private:
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

/// Accumulates flat records and writes them as a JSON array — the
/// machine-readable counterpart of one printed table (BENCH_*.json).
/// Every record declares the role of each of its fields in a "roles"
/// object, which scripts/compare_bench.py reads:
///   - identity: what was measured; matches records across runs;
///   - measurement: this run's values; its `*_ms` fields are the timings
///     compared across runs;
///   - gate: a verdict (`regression`) and the statistic behind it;
///   - provenance: how and where the record was measured (the host
///     fields below are added to every record).
class JsonSeries {
 public:
  using Field = std::pair<std::string, std::string>;

  /// `number(...)` fields are emitted bare; `text(...)` fields quoted.
  static Field number(std::string key, double value, int precision = 6) {
    return {std::move(key), fmt(value, precision)};
  }
  static Field number(std::string key, std::size_t value) {
    return {std::move(key), fmt_int(value)};
  }
  /// Emitted as a bare JSON boolean — `"regression": true` is what the CI
  /// gate greps for, so the flag must not be quoted.
  static Field boolean(std::string key, bool value) {
    return {std::move(key), value ? "true" : "false"};
  }
  static Field text(std::string key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    return {std::move(key), std::move(quoted)};
  }

  /// One record's fields, grouped by role.
  struct Record {
    std::vector<Field> identity;
    std::vector<Field> measurement;
    std::vector<Field> gate;
    std::vector<Field> provenance;
  };

  /// Host provenance is stamped on every record, so cross-PR comparisons
  /// can tell a code regression from a host change: wall-clock deltas
  /// measured on different hardware are advisory, not gating.
  void add_record(Record record) {
    for (const Field& field : host_fields())
      record.provenance.push_back(field);
    const std::pair<const char*, const std::vector<Field>*> roles[] = {
        {"identity", &record.identity},
        {"measurement", &record.measurement},
        {"gate", &record.gate},
        {"provenance", &record.provenance}};
    std::string fields;
    std::string declared;
    for (const auto& [role, list] : roles) {
      std::string names;
      for (const Field& field : *list) {
        fields += "\"" + field.first + "\": " + field.second + ", ";
        names += (names.empty() ? "\"" : ", \"") + field.first + "\"";
      }
      declared += (declared.empty() ? "\"" : ", \"") + std::string(role) +
                  "\": [" + names + "]";
    }
    records_.push_back("  {" + fields + "\"roles\": {" + declared + "}}");
  }

  /// Writes `path` ("BENCH_<name>.json") and reports where.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::printf("! could not write %s\n", path.c_str());
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << records_[i];
      if (i + 1 < records_.size()) out << ",";
      out << "\n";
    }
    out << "]\n";
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  /// Cached host descriptors: logical CPU count two ways (the standard
  /// library's view and the OS's online-processor count, which diverge
  /// under cgroup/affinity limits) plus the CPU model string.
  static const std::vector<Field>& host_fields() {
    static const std::vector<Field> fields = [] {
      std::vector<Field> out;
      out.push_back(number(
          "host_cpus",
          static_cast<std::size_t>(std::thread::hardware_concurrency())));
      std::size_t nproc = 0;
#if defined(_SC_NPROCESSORS_ONLN)
      const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
      if (online > 0) nproc = static_cast<std::size_t>(online);
#endif
      out.push_back(number("host_nproc", nproc));
      std::string model = "unknown";
      std::ifstream cpuinfo("/proc/cpuinfo");
      std::string line;
      while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          model = line.substr(colon + 1);
          const std::size_t start = model.find_first_not_of(" \t");
          model = start == std::string::npos ? "unknown" : model.substr(start);
        }
        break;
      }
      out.push_back(text("host_cpu_model", model));
      // Selected dispatch arm (latched PARDPP_SIMD resolution). Wall
      // clocks measured on different arms are not comparable — the
      // comparator treats a mismatch like a host change (advisory).
      out.push_back(text("simd", simd::path_name()));
      return out;
    }();
    return fields;
  }

  std::vector<std::string> records_;
};

/// An arm's measurement fields: best and median wall clock in ms, and the
/// IQR as a fraction of the median.
inline std::vector<JsonSeries::Field> arm_fields(const std::string& prefix,
                                                 const ArmTimes& arm) {
  return {JsonSeries::number(prefix + "_ms", arm.best()),
          JsonSeries::number(prefix + "_median_ms", arm.median()),
          JsonSeries::number(prefix + "_iqr_frac", arm.iqr() / arm.median(),
                             3)};
}

/// A gate's fields: the lower quartile and median of its per-trial
/// speedups, and its bound.
inline std::vector<JsonSeries::Field> gate_fields(const std::string& prefix,
                                                  const RatioGate& gate) {
  return {JsonSeries::number(prefix + "_q1", gate.q1, 3),
          JsonSeries::number(prefix + "_median", gate.median, 3),
          JsonSeries::number(prefix + "_bound", gate.bound, 1)};
}

/// A run's provenance fields: the trial count and the host steal share.
inline std::vector<JsonSeries::Field> trial_fields(const Trials& trials) {
  return {JsonSeries::number("timed_trials", trials.arms[0].ms.size()),
          JsonSeries::number("host_steal_frac", trials.steal_frac, 4)};
}

/// The pool-size sweep of one deterministic sample (EXP-T10d, EXP-T41d):
/// run_trials over PoolArms, each call on a fresh PramLedger so its result
/// carries its own PRAM stats. Each pool's speedup over pool 1 is gated at
/// 1.0, and its sample must equal pool 1's. Prints the table, writes
/// `file` under bench-out/.
template <typename SampleFn>
void report_thread_sweep(const std::string& experiment,
                         const std::string& file,
                         const std::vector<JsonSeries::Field>& identity,
                         int trials, SampleFn&& sample) {
  const PoolArms pools;
  std::vector<SampleResult> last(pools.size());
  const Trials timed = run_trials(pools.size(), trials, [&](std::size_t p) {
    PramLedger ledger;
    last[p] = pools.run(p, sample, &ledger);
  });
  Table table({"pool", "best_ms", "median_ms", "iqr", "speedup_q1",
               "speedup_med", "rounds", "pram_depth", "q_per_wave", "|S|",
               "identical", "gate"});
  JsonSeries json;
  bool any_regression = false;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const ArmTimes& arm = timed.arms[p];
    const RatioGate gate = timed.gate(0, p, 1.0);
    const SampleResult& result = last[p];
    const bool identical = result.items == last[0].items;
    const bool regression = !gate.pass() || !identical;
    any_regression = any_regression || regression;
    table.add_row({fmt_int(pools.pool_size(p)), fmt(arm.best(), 1),
                   fmt(arm.median(), 1),
                   fmt(100.0 * arm.iqr() / arm.median(), 0) + "%",
                   fmt(gate.q1, 2), fmt(gate.median, 2),
                   fmt_int(result.diag.pram.rounds),
                   fmt(result.diag.pram.depth, 1),
                   fmt(result.diag.queries_per_wave(), 2),
                   fmt_int(result.items.size()), identical ? "yes" : "NO",
                   regression ? "REGRESSION" : "ok"});
    JsonSeries::Record record{{JsonSeries::text("experiment", experiment)},
                              arm_fields("wall", arm),
                              gate_fields("speedup", gate),
                              trial_fields(timed)};
    record.identity.insert(record.identity.end(), identity.begin(),
                           identity.end());
    record.identity.push_back(
        JsonSeries::number("pool", pools.pool_size(p)));
    record.gate.push_back(
        JsonSeries::text("identical", identical ? "yes" : "no"));
    record.gate.push_back(JsonSeries::boolean("regression", regression));
    json.add_record(std::move(record));
  }
  table.print();
  timed.print_note();
  if (any_regression)
    std::printf("! REGRESSION: a pool size's speedup q1 is below 1.0, or "
                "its sample diverged from pool 1's\n");
  json.write(bench_out_path(file));
}

}  // namespace pardpp::bench
