// LU decomposition with partial pivoting, templated over real and complex
// scalars.
//
// This is the workhorse behind every determinant-based counting oracle in
// the library: log-determinants of (I + zL) at complex interpolation nodes,
// Schur-complement conditioning, marginal-kernel computation, and matrix
// inversion all reduce to it. Determinants are reported in log-magnitude +
// phase form so partition functions never overflow.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "linalg/matrix.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

/// Result of a pivoted LU factorization P*A = L*U (Doolittle, unit lower
/// triangle stored below the diagonal of `lu`).
template <typename T>
class LuDecomposition {
 public:
  LuDecomposition(BasicMatrix<T> packed, std::vector<int> pivots,
                  int permutation_sign, bool singular)
      : lu_(std::move(packed)),
        pivots_(std::move(pivots)),
        permutation_sign_(permutation_sign),
        singular_(singular) {}

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }
  [[nodiscard]] bool singular() const noexcept { return singular_; }

  /// log |det A|; -inf when singular.
  [[nodiscard]] double log_abs_det() const {
    if (singular_) return kNegInf;
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
      acc += std::log(std::abs(lu_(i, i)));
    return acc;
  }

  /// det A / |det A| as a complex phase (for real T this is ±1); 0 when
  /// singular.
  [[nodiscard]] std::complex<double> det_phase() const {
    if (singular_) return {0.0, 0.0};
    std::complex<double> phase(static_cast<double>(permutation_sign_), 0.0);
    for (std::size_t i = 0; i < size(); ++i) {
      const std::complex<double> d(lu_(i, i));
      const double mag = std::abs(d);
      if (mag == 0.0) return {0.0, 0.0};
      phase *= d / mag;
    }
    return phase;
  }

  /// Determinant in the form value = phase * exp(log_abs); avoids overflow.
  struct LogDet {
    double log_abs = kNegInf;
    std::complex<double> phase{0.0, 0.0};
  };
  [[nodiscard]] LogDet log_det() const { return {log_abs_det(), det_phase()}; }

  /// Solves A x = b.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const {
    BasicMatrix<T> x(b.size(), 1);
    std::copy(b.begin(), b.end(), x.flat().begin());
    x = solve_matrix(std::move(x));
    return {x.flat().begin(), x.flat().end()};
  }

  /// Solves A X = B for all right-hand sides at once: the substitutions
  /// run as row axpys over X, each element seeing the operations of a
  /// one-column solve in the same order.
  [[nodiscard]] BasicMatrix<T> solve_matrix(BasicMatrix<T> x) const {
    check_arg(x.rows() == size(), "lu solve: size mismatch");
    check_numeric(!singular_, "lu solve: singular matrix");
    const std::size_t n = size();
    const auto subtract = [m = x.cols()](std::span<T> xi, T coef,
                                         std::span<const T> xj) {
      for (std::size_t c = 0; c < m; ++c) xi[c] -= coef * xj[c];
    };
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::size_t>(pivots_[i]);
      if (p != i) std::ranges::swap_ranges(x.row(i), x.row(p));
    }
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j)
        subtract(x.row(i), lu_(i, j), x.row(j));
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t j = i + 1; j < n; ++j)
        subtract(x.row(i), lu_(i, j), x.row(j));
      const T pivot = lu_(i, i);
      for (T& xic : x.row(i)) xic /= pivot;
    }
    return x;
  }

  /// A^{-1} (dense).
  [[nodiscard]] BasicMatrix<T> inverse() const {
    return solve_matrix(BasicMatrix<T>::identity(size()));
  }

 private:
  BasicMatrix<T> lu_;
  std::vector<int> pivots_;
  int permutation_sign_;
  bool singular_;
};

/// Factors a square matrix with partial (row) pivoting. Never throws on
/// singular input; the result reports `singular()` instead, because the
/// counting oracles legitimately meet zero determinants (events of
/// probability zero).
template <typename T>
[[nodiscard]] LuDecomposition<T> lu_factor(BasicMatrix<T> a,
                                           double tiny = 1e-300) {
  check_arg(a.square(), "lu_factor: matrix not square");
  const std::size_t n = a.rows();
  std::vector<int> pivots(n);
  int sign = 1;
  bool singular = false;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude on/below the diagonal.
    std::size_t best = col;
    double best_mag = std::abs(a(col, col));
    for (std::size_t i = col + 1; i < n; ++i) {
      const double mag = std::abs(a(i, col));
      if (mag > best_mag) {
        best_mag = mag;
        best = i;
      }
    }
    pivots[col] = static_cast<int>(best);
    if (best != col) {
      sign = -sign;
      auto r0 = a.row(col);
      auto r1 = a.row(best);
      for (std::size_t j = 0; j < n; ++j) std::swap(r0[j], r1[j]);
    }
    const T pivot = a(col, col);
    if (best_mag <= tiny) {
      singular = true;
      continue;
    }
    for (std::size_t i = col + 1; i < n; ++i) {
      const T factor = a(i, col) / pivot;
      a(i, col) = factor;
      if (factor == T{}) continue;
      const auto src = a.row(col);
      auto dst = a.row(i);
      for (std::size_t j = col + 1; j < n; ++j) dst[j] -= factor * src[j];
    }
  }
  return LuDecomposition<T>(std::move(a), std::move(pivots), sign, singular);
}

/// Convenience: log|det A| and sign for a real matrix.
struct SignedLogDet {
  double log_abs = kNegInf;
  int sign = 0;  ///< -1, 0, +1
};

[[nodiscard]] inline SignedLogDet signed_log_det(const Matrix& a) {
  const auto lu = lu_factor(a);
  if (lu.singular()) return {kNegInf, 0};
  const auto phase = lu.det_phase();
  return {lu.log_abs_det(), phase.real() >= 0.0 ? 1 : -1};
}

/// Plain determinant of a small real matrix (overflow is the caller's
/// responsibility; intended for t x t blocks).
[[nodiscard]] inline double det_small(const Matrix& a) {
  const auto sld = signed_log_det(a);
  if (sld.sign == 0) return 0.0;
  return sld.sign * std::exp(sld.log_abs);
}

}  // namespace pardpp
