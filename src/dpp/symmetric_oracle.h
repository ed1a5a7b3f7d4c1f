// Counting oracle for symmetric k-DPPs (Definition 3 + Definition 6).
//
// For symmetric PSD L with spectrum lambda and eigenbasis V:
//   Z            = e_k(lambda)
//   P[i ∈ S]     = sum_m lambda_m V_im^2 e_{k-1}(lambda \ m) / e_k(lambda)
//   P[T ⊆ S]     = det(L_T) e_{k-t}(spectrum of L^T) / e_k(lambda)
// where L^T is the Schur-complement conditional ensemble (paper §3.2).
// Elementary symmetric polynomials are evaluated in log domain (esp.h);
// the base oracle's eigendecomposition is cached lazily.
//
// The commit path is *factorization-native* (DESIGN.md §2 convention 9):
// instead of refreshing the spectrum after every accepted round, the
// committed state maintains power traces and diagonal moments of the
// (scaled) conditional ensemble — d_v[i] = (Mhat^v)_ii, t_v = tr(Mhat^v)
// — and downdates them through the accepted block's Cholesky factor
// (BlockMomentProbe in linalg/schur.h). Counting queries recover e_j via
// Newton's identities (esp_from_power_traces) and singleton marginals via
// the adjugate expansion p_i = sum_v (-1)^{v-1} e_{k-v} d_v[i] / e_k.
// Every fast-path quantity carries a |term| accumulation; when a
// cancellation / drift guard trips, the state falls back to one full
// spectral refresh (and reseeds the moment basis from the clamped
// spectrum), so answers stay inside the 1e-10 agreement contract with
// make_condition_reference at all times.
//
// Batch queries go through a ConditionalState (oracle.h): the shared
// factors are cached here and primed once by prepare_concurrent(); the
// state answers |T| = 1 queries by a cached marginal lookup, small
// extensions by the factor-side moment probe against the shared power
// basis, and the rest by an incrementally grown Cholesky factor feeding a
// scratch-reusing Schur complement + eigensolve — no per-query
// refactorization of the shared prefix.
#pragma once

#include <optional>

#include "distributions/oracle.h"
#include "linalg/esp.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"

namespace pardpp {

class SymmetricKdppOracle final : public CountingOracle {
 public:
  /// Wraps the k-DPP with ensemble matrix `l` (symmetric PSD). With
  /// `validate` the matrix is checked for symmetry and PSD-ness; internal
  /// conditioning steps skip the check.
  SymmetricKdppOracle(Matrix l, std::size_t k, bool validate = true);

  [[nodiscard]] std::size_t ground_size() const override { return l_.rows(); }
  [[nodiscard]] std::size_t sample_size() const override { return k_; }
  [[nodiscard]] double log_joint_marginal(std::span<const int> t) const override;
  [[nodiscard]] std::vector<double> marginals() const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const override;
  /// Restriction to (possibly repeated) items with per-row scales:
  /// gathers the principal block and scales it symmetrically,
  /// diag(s) L_items diag(s) — PSD by construction, so validation is
  /// skipped.
  [[nodiscard]] std::unique_ptr<CountingOracle> restrict_to(
      std::span<const int> items,
      std::span<const double> scales) const override;
  /// weights[i] = L_ii, rank_bound = n. One pass over the diagonal.
  [[nodiscard]] DistillationProfile distillation_profile() const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> clone() const override;
  [[nodiscard]] std::string name() const override {
    return "symmetric-kdpp";
  }
  void prepare_concurrent() const override;
  [[nodiscard]] std::unique_ptr<ConditionalState> make_conditional_state()
      const override;
  /// Commit-path state: factor-native moment downdates + Newton-identity
  /// counting on persistent scratch, with the committed base-prefix
  /// Cholesky grown across rounds (DESIGN.md §2 conventions 7 and 9).
  [[nodiscard]] std::unique_ptr<CommittedOracle> make_committed()
      const override;

  /// The (conditional) ensemble matrix.
  [[nodiscard]] const Matrix& ensemble() const noexcept { return l_; }

  /// log Z = log e_k(lambda).
  [[nodiscard]] double log_partition() const override;

 private:
  class State;
  class Committed;

  /// Shared moment basis of the scaled ensemble Mhat = L / scale: power
  /// traces t_v = tr(Mhat^v) and diagonal moments d_v[i] = (Mhat^v)_ii
  /// for v = 1..jmax, each with a parallel nonnegative |term|
  /// accumulation bounding the roundoff/drift the stored value may carry
  /// (DESIGN.md §2 convention 9). The fixed per-run scale keeps e_j
  /// inside double range; log-domain results are shifted by j*log_scale.
  /// `depth` is the traces' own newton_depth (esp.h), measured once per
  /// basis: a query or commit needing e_j with j > depth skips the
  /// factor-side probe and takes the spectral path.
  struct PowerBasis {
    double scale = 1.0;
    double log_scale = 0.0;
    std::size_t depth = 0;
    std::vector<double> traces;      ///< t_v, v = 1..jmax
    std::vector<double> traces_abs;  ///< |term| companions of t_v
    std::vector<double> diag;        ///< d_v[i] at [(v-1)*n + i]
    std::vector<double> diag_abs;    ///< |term| companions of d_v[i]
  };

  const SymmetricEigen& eigen() const;
  const LogEspTable& esp() const;
  const std::vector<double>& marginal_cache() const;
  const std::vector<double>& log_marginal_cache() const;
  const PowerBasis& power_basis() const;

  Matrix l_;
  std::size_t k_;
  mutable std::optional<SymmetricEigen> eigen_;
  mutable std::optional<LogEspTable> esp_;
  mutable std::optional<std::vector<double>> marginals_;
  mutable std::optional<std::vector<double>> log_marginals_;
  mutable std::optional<PowerBasis> power_;
};

}  // namespace pardpp
