// Cholesky (L L^T) factorization for symmetric positive (semi)definite
// matrices, plus PSD validation helpers.
//
// The symmetric DPP code paths use Cholesky both as the fast determinant /
// solve backend and as the arbiter of "is this kernel actually PSD"
// (failure injection tests rely on the strictness of that check).
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logsum.h"

namespace pardpp {

/// Lower-triangular Cholesky factor with solve/determinant helpers.
class CholeskyDecomposition {
 public:
  explicit CholeskyDecomposition(Matrix lower) : lower_(std::move(lower)) {}

  [[nodiscard]] std::size_t size() const noexcept { return lower_.rows(); }
  [[nodiscard]] const Matrix& lower() const noexcept { return lower_; }

  /// log det A = 2 * sum log diag(L).
  [[nodiscard]] double log_det() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i) acc += std::log(lower_(i, i));
    return 2.0 * acc;
  }

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const {
    check_arg(b.size() == size(), "cholesky solve: size mismatch");
    const std::size_t n = size();
    const simd::KernelTable& kernels = simd::active_kernels();
    for (std::size_t i = 0; i < n; ++i) {
      const double acc = b[i] - kernels.dot(lower_.row(i).data(), b.data(), i);
      b[i] = acc / lower_(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = b[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lower_(j, ii) * b[j];
      b[ii] = acc / lower_(ii, ii);
    }
    return b;
  }

  /// Solves A X = B.
  [[nodiscard]] Matrix solve_matrix(const Matrix& b) const {
    Matrix x(b.rows(), b.cols());
    std::vector<double> col(b.rows());
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
      col = solve(std::move(col));
      for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
    }
    return x;
  }

 private:
  Matrix lower_;
};

/// Incrementally grown Cholesky factorization of a principal submatrix
/// chain A_1 ⊂ A_2 ⊂ ... — the per-query factor behind the batch
/// counting queries: a ConditionalState factors L_T one bordered row per
/// batch element in reused scratch, and `truncate()` can pop back to a
/// shared prefix for callers whose queries literally extend one another.
/// The row-by-row arithmetic is identical to `cholesky()` below, so
/// determinants and solves agree to the last bit with a from-scratch
/// factorization of the same matrix.
///
/// A *committed prefix* supports the cross-round reuse of the sampler
/// commit path (DESIGN.md §2 convention 7): `commit_prefix()` marks the
/// rows factored so far as permanent, after which `truncate()` (and
/// `truncate(size)`) can only pop back to that floor — the accepted
/// rounds' bordered rows are absorbed instead of discarded, and
/// `log_det()` keeps accumulating across rounds. `clear()` resets the
/// floor along with everything else.
class IncrementalCholesky {
 public:
  /// Reserves room for matrices up to `capacity` rows (grows on demand).
  explicit IncrementalCholesky(std::size_t capacity = 0, double tol = 1e-12)
      : tol_(tol) {
    reserve(capacity);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void reserve(std::size_t capacity) {
    if (capacity > cap_) {
      Matrix grown(capacity, capacity);
      for (std::size_t i = 0; i < size_; ++i)
        for (std::size_t j = 0; j <= i; ++j) grown(i, j) = lower_(i, j);
      lower_ = std::move(grown);
      cap_ = capacity;
    }
  }

  /// Drops all rows (reuse the scratch for a fresh matrix).
  /// `max_abs_diag` seeds the positive-definiteness threshold with the
  /// full matrix's largest |diagonal| when the caller knows it upfront —
  /// matching `cholesky()`'s global threshold exactly, where the running
  /// row-by-row maximum alone would judge early pivots more leniently
  /// (and make the verdict depend on the append order).
  void clear(double max_abs_diag = 0.0) noexcept {
    size_ = 0;
    committed_ = 0;
    seed_diag_ = max_abs_diag;
    max_diag_ = max_abs_diag;
    log_det_ = 0.0;
  }

  /// Marks every row factored so far as permanent: `truncate` can no
  /// longer pop below this point. The commit-path hook — accepted rows
  /// join the persistent factor; speculative extensions beyond them stay
  /// poppable.
  void commit_prefix() noexcept { committed_ = size_; }

  [[nodiscard]] std::size_t committed_size() const noexcept {
    return committed_;
  }

  /// Pops every row appended since the last `commit_prefix()`.
  void truncate() { truncate(committed_); }

  /// Pops back to the first `prefix` rows — the factor of the prefix's
  /// principal submatrix, exactly as it was before the later appends:
  /// the tolerance scale is rebuilt from the retained rows' diagonals
  /// (reconstructed from the factor) plus the clear() seed, so the
  /// positive-definiteness verdict of later appends does not depend on
  /// rows that were appended and popped in between.
  void truncate(std::size_t prefix) {
    check_arg(prefix <= size_, "IncrementalCholesky: truncate past size");
    check_arg(prefix >= committed_,
              "IncrementalCholesky: truncate below the committed prefix");
    size_ = prefix;
    max_diag_ = seed_diag_;
    log_det_ = 0.0;
    for (std::size_t i = 0; i < size_; ++i) {
      const double d = lower_(i, i);
      max_diag_ = std::max(max_diag_, d * d + dot(i, i));
      log_det_ += std::log(d);
    }
    log_det_ *= 2.0;
  }

  /// Appends the bordered row `row` = A(r, 0..r) of the grown matrix
  /// (row.size() == size() + 1, last entry the new diagonal). Returns
  /// false — leaving the factor unchanged — when the extended matrix is
  /// not positive definite beyond the tolerance, mirroring `cholesky()`'s
  /// failure condition (P[T ⊆ S] = 0 in oracle terms).
  [[nodiscard]] bool append(std::span<const double> row) {
    check_arg(row.size() == size_ + 1, "IncrementalCholesky: row size");
    if (size_ + 1 > cap_) reserve(std::max<std::size_t>(2 * cap_, size_ + 1));
    const std::size_t r = size_;
    // The threshold scale is committed only on success: a rejected
    // extension must leave the factor — including the tolerance state —
    // exactly as it was, so probe-style callers (try i, truncate, try j)
    // are not poisoned by a rejected row's large diagonal.
    const double max_diag = std::max(max_diag_, std::abs(row[r]));
    const double threshold = std::max(tol_ * max_diag, 1e-300);
    const simd::KernelTable& kernels = simd::active_kernels();
    for (std::size_t j = 0; j < r; ++j) {
      const double acc =
          row[j] - kernels.dot(lower_.row(r).data(), lower_.row(j).data(), j);
      lower_(r, j) = acc / lower_(j, j);
    }
    const double* row_r = lower_.row(r).data();
    const double diag = row[r] - kernels.dot(row_r, row_r, r);
    if (diag <= threshold) return false;
    lower_(r, r) = std::sqrt(diag);
    log_det_ += 2.0 * std::log(lower_(r, r));
    max_diag_ = max_diag;
    size_ = r + 1;
    return true;
  }

  /// log det of the factored principal submatrix.
  [[nodiscard]] double log_det() const noexcept { return log_det_; }

  [[nodiscard]] double entry(std::size_t i, std::size_t j) const noexcept {
    return lower_(i, j);
  }

  /// Solves R y = b in place (forward substitution with the lower factor),
  /// column-wise over `b`'s `cols` columns of length size() stored
  /// row-major with stride `stride`. With A = R R^T this yields
  /// Y = R^{-1} B, whose Gram Y^T Y equals B^T A^{-1} B — the half-solve
  /// form the incremental Schur complement consumes.
  void forward_solve_rows(double* b, std::size_t cols,
                          std::size_t stride) const {
    const simd::KernelTable& kernels = simd::active_kernels();
    for (std::size_t i = 0; i < size_; ++i) {
      double* bi = b + i * stride;
      for (std::size_t k = 0; k < i; ++k) {
        const double l = lower_(i, k);
        if (l == 0.0) continue;
        kernels.axpy(bi, -l, b + k * stride, cols);
      }
      kernels.scaled_copy(bi, 1.0 / lower_(i, i), bi, cols);
    }
  }

 private:
  [[nodiscard]] double dot(std::size_t i, std::size_t j) const noexcept {
    return simd::dot(lower_.row(i).data(), lower_.row(j).data(),
                     std::min(i, j));
  }

  Matrix lower_;
  std::size_t size_ = 0;
  std::size_t committed_ = 0;
  std::size_t cap_ = 0;
  double tol_ = 1e-12;
  double seed_diag_ = 0.0;  // clear()'s threshold seed, kept for truncate()
  double max_diag_ = 0.0;
  double log_det_ = 0.0;
};

/// Attempts a Cholesky factorization; returns nullopt when the matrix is
/// not positive definite beyond `tol` (relative to the largest diagonal).
[[nodiscard]] inline std::optional<CholeskyDecomposition> cholesky(
    const Matrix& a, double tol = 1e-12) {
  check_arg(a.square(), "cholesky: matrix not square");
  const std::size_t n = a.rows();
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diag = std::max(max_diag, std::abs(a(i, i)));
  const double threshold = std::max(tol * max_diag, 1e-300);
  Matrix lower(n, n);
  // Same dispatched dot as IncrementalCholesky::append, so the two
  // factorizations of one matrix agree to the last bit.
  const simd::KernelTable& kernels = simd::active_kernels();
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = lower.row(j).data();
    const double diag = a(j, j) - kernels.dot(row_j, row_j, j);
    if (diag <= threshold) return std::nullopt;
    const double ljj = std::sqrt(diag);
    lower(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double acc = a(i, j) - kernels.dot(lower.row(i).data(), row_j, j);
      lower(i, j) = acc / ljj;
    }
  }
  return CholeskyDecomposition(std::move(lower));
}

/// Cholesky that throws NumericalError on non-PD input.
[[nodiscard]] inline CholeskyDecomposition cholesky_or_throw(const Matrix& a,
                                                             double tol = 1e-12) {
  check_numeric(!failpoint("linalg.cholesky.pivot"),
                "cholesky: injected pivot failure "
                "[failpoint linalg.cholesky.pivot]");
  auto result = cholesky(a, tol);
  check_numeric(result.has_value(), "cholesky: matrix not positive definite");
  return std::move(*result);
}

/// True when the symmetric matrix is PSD up to `jitter` on the diagonal.
/// (A + jitter*I must be positive definite.)
[[nodiscard]] inline bool is_psd(const Matrix& a, double jitter = 1e-9) {
  if (!a.square() || !a.is_symmetric(1e-8)) return false;
  Matrix shifted = a;
  double scale = a.max_abs();
  if (scale == 0.0) scale = 1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) shifted(i, i) += jitter * scale;
  return cholesky(shifted).has_value();
}

/// True when L + L^T is PSD, i.e. L is nonsymmetric positive semidefinite
/// in the sense of Definition 4 of the paper.
[[nodiscard]] inline bool is_npsd(const Matrix& l, double jitter = 1e-9) {
  if (!l.square()) return false;
  return is_psd(l.symmetric_part(), jitter);
}

}  // namespace pardpp
