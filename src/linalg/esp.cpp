#include "linalg/esp.h"

#include <algorithm>
#include <cmath>

#include "parallel/execution.h"
#include "support/error.h"

namespace pardpp {

namespace {

// log of one input value, clamping roundoff negatives to zero.
double log_value(double v) { return v > 0.0 ? std::log(v) : kNegInf; }

// One step of the esp recurrence in log domain:
// e_j <- e_j + v * e_{j-1}, applied descending in j.
void esp_step(std::vector<double>& log_e, double log_v, std::size_t jmax) {
  if (log_v == kNegInf) return;
  for (std::size_t j = jmax; j >= 1; --j) {
    log_e[j] = log_add(log_e[j], log_v + log_e[j - 1]);
  }
}

}  // namespace

std::vector<double> log_esp(std::span<const double> lambda, std::size_t jmax) {
  std::vector<double> log_e(jmax + 1, kNegInf);
  log_e[0] = 0.0;
  for (const double v : lambda) esp_step(log_e, log_value(v), jmax);
  return log_e;
}

LogEspTable::LogEspTable(std::span<const double> lambda, std::size_t jmax)
    : n_(lambda.size()), jmax_(jmax) {
  prefix_.resize(n_ + 1);
  suffix_.resize(n_ + 1);
  // The two per-shift recurrence sweeps are independent of each other;
  // they run as one fork-join pair on the linalg pool when the table is
  // big enough to pay the dispatch (a grain of 2 keeps both serial).
  const auto build_prefix = [&] {
    prefix_[0].assign(jmax + 1, kNegInf);
    prefix_[0][0] = 0.0;
    for (std::size_t m = 0; m < n_; ++m) {
      prefix_[m + 1] = prefix_[m];
      esp_step(prefix_[m + 1], log_value(lambda[m]), jmax);
    }
  };
  const auto build_suffix = [&] {
    suffix_[n_].assign(jmax + 1, kNegInf);
    suffix_[n_][0] = 0.0;
    for (std::size_t m = n_; m-- > 0;) {
      suffix_[m] = suffix_[m + 1];
      esp_step(suffix_[m], log_value(lambda[m]), jmax);
    }
  };
  linalg_context().for_each(
      0, 2,
      [&](std::size_t side) { side == 0 ? build_prefix() : build_suffix(); },
      n_ * (jmax + 1) >= 1u << 12 ? 1 : 2);
}

NewtonEsp esp_from_power_traces(std::span<const double> power_traces,
                                std::size_t jmax) {
  check_arg(power_traces.size() >= jmax,
            "esp_from_power_traces: need traces up to jmax");
  NewtonEsp out;
  out.e.assign(jmax + 1, 0.0);
  out.abs.assign(jmax + 1, 0.0);
  out.e[0] = 1.0;
  out.abs[0] = 1.0;
  for (std::size_t j = 1; j <= jmax; ++j) {
    double acc = 0.0;
    double acc_abs = 0.0;
    double sign = 1.0;
    for (std::size_t v = 1; v <= j; ++v) {
      const double t = power_traces[v - 1];
      acc += sign * out.e[j - v] * t;
      acc_abs += out.abs[j - v] * std::abs(t);
      sign = -sign;
    }
    out.e[j] = acc / static_cast<double>(j);
    out.abs[j] = acc_abs / static_cast<double>(j);
  }
  return out;
}

std::size_t newton_depth(std::span<const double> traces,
                         std::span<const double> traces_abs,
                         std::size_t jmax) {
  check_arg(traces_abs.size() >= jmax,
            "newton_depth: need |term| companions up to jmax");
  const NewtonEsp ne = esp_from_power_traces(traces, jmax);
  double trace_ratio = 1.0;
  double esp_ratio = 1.0;
  for (std::size_t j = 1; j <= jmax; ++j) {
    const double t = traces[j - 1];
    const double ta = traces_abs[j - 1];
    if (!std::isfinite(t) || !std::isfinite(ta) || t <= 0.0 ||
        ta > kTraceCondGuard * t || !ne.well_conditioned(j, kEspCancelGuard))
      return j - 1;
    trace_ratio = std::max(trace_ratio, ta / t);
    esp_ratio = std::max(esp_ratio, ne.abs[j] / ne.e[j]);
    if (trace_ratio * esp_ratio > kNewtonProductGuard) return j - 1;
  }
  return jmax;
}

double LogEspTable::log_e(std::size_t j) const {
  check_arg(j <= jmax_, "LogEspTable: j out of range");
  return prefix_[n_][j];
}

double LogEspTable::log_e_without(std::size_t m, std::size_t j) const {
  check_arg(m < n_, "LogEspTable: index out of range");
  check_arg(j <= jmax_, "LogEspTable: j out of range");
  // e_j(lambda \ m) = sum_{a+b=j} e_a(prefix before m) e_b(suffix after m).
  double acc = kNegInf;
  for (std::size_t a = 0; a <= j; ++a) {
    const double lhs = prefix_[m][a];
    if (lhs == kNegInf) continue;
    const double rhs = suffix_[m + 1][j - a];
    if (rhs == kNegInf) continue;
    acc = log_add(acc, lhs + rhs);
  }
  return acc;
}

}  // namespace pardpp
