// Unconstrained DPPs (no cardinality constraint), via the marginal kernel.
//
// P[A ⊆ Y] = det(K_A) with K = L(I+L)^{-1}, for symmetric and
// nonsymmetric ensembles alike (paper §3.2). The class does not implement
// the fixed-size CountingOracle interface — sampling an unconstrained DPP
// goes through Remark 15 (draw |S| from the cardinality distribution, then
// run a k-DPP sampler) or through the filtering algorithm of Theorem 41.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace pardpp {

class UnconstrainedDpp {
 public:
  explicit UnconstrainedDpp(Matrix l, bool symmetric, bool validate = true);

  [[nodiscard]] std::size_t ground_size() const { return l_.rows(); }
  [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }
  [[nodiscard]] const Matrix& ensemble() const noexcept { return l_; }

  /// K = L (I + L)^{-1}, cached.
  [[nodiscard]] const Matrix& kernel() const;

  /// log P[T ⊆ Y] = log det(K_T).
  [[nodiscard]] double log_joint_marginal(std::span<const int> t) const;

  /// P[i ∈ Y] = K_ii.
  [[nodiscard]] std::vector<double> marginals() const;

  /// log(det(L_S) / det(I + L)) — the exact mass of a specific set, used
  /// by enumeration ground truth.
  [[nodiscard]] double log_mass(std::span<const int> s) const;

  /// log det(I + L) (cached).
  [[nodiscard]] double log_partition() const;

 private:
  Matrix l_;
  bool symmetric_;
  mutable std::optional<Matrix> kernel_;
  mutable std::optional<double> log_partition_;
};

}  // namespace pardpp
