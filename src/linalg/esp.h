// Elementary symmetric polynomials of nonnegative spectra, in log domain.
//
// For a symmetric PSD ensemble matrix L with eigenvalues lambda, the k-DPP
// partition function is e_k(lambda) and joint/singleton marginals reduce to
// ratios of e_j's, including "leave-one-out" values e_j(lambda \ m). These
// quantities overflow double at tiny problem sizes, so everything here is
// carried as logarithms and combined with log_add.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "support/logsum.h"

namespace pardpp {

/// Returns {log e_0, ..., log e_jmax} of the nonnegative values `lambda`
/// (negative inputs are clamped to zero — they only arise as roundoff on
/// PSD spectra). e_0 = 1 by convention.
[[nodiscard]] std::vector<double> log_esp(std::span<const double> lambda,
                                          std::size_t jmax);

/// Clamps roundoff-level eigenvalues to exact zeros, so rank deficiency
/// is detected by the ESP recurrence (e_j of a rank-r spectrum must
/// vanish for j > r). The floor is the single numerically load-bearing
/// tolerance of the determinantal oracles — every path that feeds a
/// conditional spectrum into log_esp must clamp with this one helper so
/// the incremental and from-scratch resolves agree on what counts as
/// zero.
inline void clamp_spectrum_to_rank(std::vector<double>& lambda) {
  double top = 0.0;
  for (const double v : lambda) top = std::max(top, v);
  const double floor = top * 1e-12 * static_cast<double>(lambda.size());
  for (double& v : lambda) {
    if (v < floor) v = 0.0;
  }
}

/// Prefix/suffix table of log elementary symmetric polynomials supporting
/// leave-one-out queries, the standard device behind k-DPP marginals:
/// P[i in S] = sum_m lambda_m V_im^2 e_{k-1}(lambda \ m) / e_k(lambda).
class LogEspTable {
 public:
  /// Builds the table for queries with j <= jmax.
  LogEspTable(std::span<const double> lambda, std::size_t jmax);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t jmax() const noexcept { return jmax_; }

  /// log e_j over the full value set.
  [[nodiscard]] double log_e(std::size_t j) const;

  /// log e_j(lambda \ {m}).
  [[nodiscard]] double log_e_without(std::size_t m, std::size_t j) const;

 private:
  std::size_t n_;
  std::size_t jmax_;
  // prefix_[m] = log esp of lambda[0..m) (row length jmax+1);
  // suffix_[m] = log esp of lambda[m..n).
  std::vector<std::vector<double>> prefix_;
  std::vector<std::vector<double>> suffix_;
};

/// Elementary symmetric polynomials recovered from power traces via
/// Newton's identities, in *linear* domain:
///   j e_j = sum_{v=1..j} (-1)^{v-1} e_{j-v} t_v,   t_v = tr(M^v).
/// This is the factor-native counting transform of the commit path
/// (DESIGN.md §2 convention 9): the traces of a conditional ensemble are
/// maintainable under rank-1/block downdates without an eigensolve, and
/// the e_j follow from them in O(jmax^2).
///
/// The alternating sum cancels catastrophically on near-rank-deficient
/// spectra, so each value carries a conditioning monitor: `abs[j]`
/// accumulates the recurrence with |terms| instead of signed terms, and
/// the result is trustworthy only while e_j stays a guarded fraction of
/// that accumulation. Callers must check `well_conditioned` and fall back
/// to a spectral evaluation when it fails — the monitor is what keeps the
/// fast path inside the oracles' 1e-10 agreement contract.
struct NewtonEsp {
  std::vector<double> e;    ///< e_0..e_jmax of the input's spectrum
  std::vector<double> abs;  ///< |term| accumulation feeding each e_j

  /// True when e_j is positive, finite, and at least 1/guard of its
  /// |term| accumulation — i.e. the relative error from cancellation is
  /// bounded by ~guard * machine epsilon.
  [[nodiscard]] bool well_conditioned(std::size_t j, double guard) const {
    return j < e.size() && std::isfinite(e[j]) && e[j] > 0.0 &&
           abs[j] <= guard * e[j];
  }
};

/// Default cancellation guard for NewtonEsp consumers: with
/// abs/e <= 1e3 the cancellation error stays ~1e-13 relative, two orders
/// under the 1e-10 oracle agreement gate.
inline constexpr double kEspCancelGuard = 1e3;

/// Builds NewtonEsp from `power_traces`, where power_traces[v-1] =
/// tr(M^v) for v = 1..jmax (all nonnegative for PSD M; callers pass
/// traces of a *scaled* matrix M/s to keep e_j inside double range and
/// shift the results by j log s afterwards).
[[nodiscard]] NewtonEsp esp_from_power_traces(
    std::span<const double> power_traces, std::size_t jmax);

/// Per-trace drift guard: a trace is trusted while its |term| companion
/// stays within this factor of the value.
inline constexpr double kTraceCondGuard = 1e3;
/// Combined guard on (worst trace ratio) x (worst esp ratio): trace drift
/// is amplified by exactly the esp cancellation ratio, so the product is
/// what bounds the relative error of e_j (~eps * product).
inline constexpr double kNewtonProductGuard = 1e5;

/// Newton depth of a power-trace basis: the largest j <= jmax such that
/// esp_from_power_traces(traces, j) is trustworthy — every trace t_v,
/// v <= j, positive, finite and within kTraceCondGuard of its |term|
/// companion `traces_abs[v-1]`; every e_v, v <= j, well_conditioned under
/// kEspCancelGuard; and the product of the worst trace ratio and the
/// worst esp ratio within kNewtonProductGuard. Every condition is a
/// prefix condition, so a Newton evaluation to depth j passes exactly
/// when j <= newton_depth(traces, traces_abs, j') for any j' >= j.
/// O(jmax^2).
[[nodiscard]] std::size_t newton_depth(std::span<const double> traces,
                                       std::span<const double> traces_abs,
                                       std::size_t jmax);

/// Eigenmode selection weights of a k-DPP with spectrum `lambda`:
/// w_m = lambda_m e_{k-1}(lambda \ m) / e_k(lambda), written into `w`
/// (resized to lambda.size()). The w_m are the probabilities that
/// eigenvector m participates in the sample's projection mixture — they
/// sum to k, and p_i = sum_m w_m V_im^2 recovers the singleton marginals.
/// `table` must be the LogEspTable of `lambda` with jmax >= k, and
/// e_k(lambda) must be nonzero.
inline void esp_mode_weights(std::span<const double> lambda,
                             const LogEspTable& table, std::size_t k,
                             std::vector<double>& w) {
  w.assign(lambda.size(), 0.0);
  if (k == 0) return;
  const double log_z = table.log_e(k);
  for (std::size_t m = 0; m < lambda.size(); ++m) {
    if (lambda[m] <= 0.0) continue;
    w[m] = std::exp(std::log(lambda[m]) + table.log_e_without(m, k - 1) -
                    log_z);
  }
}

}  // namespace pardpp
