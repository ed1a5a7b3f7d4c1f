// Dense matrix type used throughout pardpp.
//
// The library deliberately ships its own small dense-linear-algebra layer
// instead of depending on an external BLAS/LAPACK: the counting oracles the
// paper relies on (determinants, Schur complements, characteristic
// polynomials, Pfaffians) are part of the system being reproduced, and the
// test suite validates them against brute-force enumeration.
//
// `BasicMatrix<T>` is row-major and contiguous; `Matrix` is the real
// (double) instantiation and `CMatrix` the complex one (used by the
// roots-of-unity characteristic-polynomial oracle). Storage is 64-byte
// aligned (AlignedAllocator) and the double hot paths run on the
// runtime-dispatched microkernels of linalg/simd.h (DESIGN.md §2
// convention 10).
#pragma once

#include <complex>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "linalg/simd.h"
#include "parallel/execution.h"
#include "support/error.h"

namespace pardpp {

/// Minimal allocator carrying a 64-byte alignment guarantee. Matrix
/// storage allocated through it starts on a cache-line (and full AVX-512
/// vector) boundary, so the dispatched microkernels' unaligned-load
/// instructions run at aligned-load speed on row 0 — and on *every* row
/// whenever the row length is a multiple of 8 doubles, which the hot
/// shapes (d = 24 feature blocks, n = 128 Schur ensembles) satisfy. The
/// leading dimension is deliberately *not* padded: `flat()` exposes
/// contiguity (rows*cols elements) that gather/scatter and scratch-reuse
/// code relies on, so padding would not be free here.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  // The non-type Alignment parameter defeats the library's automatic
  // allocator rebinding, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two covering alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

template <typename T>
class BasicMatrix {
 public:
  using value_type = T;

  BasicMatrix() = default;

  /// rows x cols matrix, zero-initialized.
  BasicMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// rows x cols matrix with every entry set to `fill`.
  BasicMatrix(std::size_t rows, std::size_t cols, T fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// n x n identity.
  [[nodiscard]] static BasicMatrix identity(std::size_t n) {
    BasicMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  /// Diagonal matrix from a vector.
  [[nodiscard]] static BasicMatrix diagonal(std::span<const T> diag) {
    BasicMatrix m(diag.size(), diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Contiguous view of row i.
  [[nodiscard]] std::span<T> row(std::size_t i) noexcept {
    return std::span<T>(data_.data() + i * cols_, cols_);
  }
  [[nodiscard]] std::span<const T> row(std::size_t i) const noexcept {
    return std::span<const T>(data_.data() + i * cols_, cols_);
  }

  [[nodiscard]] std::span<T> flat() noexcept { return std::span<T>(data_); }
  [[nodiscard]] std::span<const T> flat() const noexcept {
    return std::span<const T>(data_);
  }

  /// Gathered submatrix with the given row and column index lists
  /// (indices may repeat or reorder).
  [[nodiscard]] BasicMatrix gather(std::span<const int> row_idx,
                                   std::span<const int> col_idx) const {
    BasicMatrix out(row_idx.size(), col_idx.size());
    for (std::size_t i = 0; i < row_idx.size(); ++i) {
      const auto r = static_cast<std::size_t>(row_idx[i]);
      check_arg(r < rows_, "gather: row index out of range");
      for (std::size_t j = 0; j < col_idx.size(); ++j) {
        const auto c = static_cast<std::size_t>(col_idx[j]);
        check_arg(c < cols_, "gather: col index out of range");
        out(i, j) = (*this)(r, c);
      }
    }
    return out;
  }

  /// Principal submatrix on an index set.
  [[nodiscard]] BasicMatrix principal(std::span<const int> idx) const {
    return gather(idx, idx);
  }

  [[nodiscard]] BasicMatrix transpose() const {
    BasicMatrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
  }

  BasicMatrix& operator+=(const BasicMatrix& o) {
    check_arg(rows_ == o.rows_ && cols_ == o.cols_, "matrix +=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }

  BasicMatrix& operator-=(const BasicMatrix& o) {
    check_arg(rows_ == o.rows_ && cols_ == o.cols_, "matrix -=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }

  BasicMatrix& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  [[nodiscard]] friend BasicMatrix operator+(BasicMatrix a, const BasicMatrix& b) {
    a += b;
    return a;
  }
  [[nodiscard]] friend BasicMatrix operator-(BasicMatrix a, const BasicMatrix& b) {
    a -= b;
    return a;
  }
  [[nodiscard]] friend BasicMatrix operator*(BasicMatrix a, T scalar) {
    a *= scalar;
    return a;
  }
  [[nodiscard]] friend BasicMatrix operator*(T scalar, BasicMatrix a) {
    a *= scalar;
    return a;
  }

  /// Matrix product (ikj loop order for cache friendliness). Row blocks
  /// fan out on the linalg execution context when the matrix is large
  /// enough to amortize the dispatch; each body owns a disjoint output row.
  [[nodiscard]] friend BasicMatrix operator*(const BasicMatrix& a,
                                             const BasicMatrix& b) {
    check_arg(a.cols_ == b.rows_, "matrix *: inner dimension mismatch");
    BasicMatrix out(a.rows_, b.cols_);
    // Deliberately *not* routed through the dispatched kernels: the
    // inlined loop auto-vectorizes, and an indirect call per (i, k)
    // pair costs more than the wider vectors win at the small inner
    // lengths this generic product mostly sees. The double hot paths
    // that matter (Gram, A Bᵀ) have coarse-grained dispatched kernels
    // (multiply_transposed_b, sym_rank_k_update) instead.
    const auto compute_row = [&](std::size_t i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        const T* brow = b.data_.data() + k * b.cols_;
        T* orow = out.data_.data() + i * out.cols_;
        for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
      }
    };
    const ExecutionContext& ctx = linalg_context();
    if (a.rows_ >= 64 && ctx.can_fan_out()) {
      ctx.for_each(0, a.rows_, compute_row);
    } else {
      for (std::size_t i = 0; i < a.rows_; ++i) compute_row(i);
    }
    return out;
  }

  /// Matrix-vector product. The double instantiation runs on the
  /// dispatched row-dot kernel, with the table lookup hoisted out of
  /// the row loop (one override/latch resolution per matvec, not per
  /// row).
  [[nodiscard]] std::vector<T> apply(std::span<const T> x) const {
    check_arg(x.size() == cols_, "apply: vector size mismatch");
    std::vector<T> y(rows_, T{});
    if constexpr (std::is_same_v<T, double>) {
      const simd::KernelTable& kernels = simd::active_kernels();
      for (std::size_t i = 0; i < rows_; ++i)
        y[i] = kernels.dot(data_.data() + i * cols_, x.data(), cols_);
    } else {
      for (std::size_t i = 0; i < rows_; ++i) {
        const T* row_ptr = data_.data() + i * cols_;
        T acc{};
        for (std::size_t j = 0; j < cols_; ++j) acc += row_ptr[j] * x[j];
        y[i] = acc;
      }
    }
    return y;
  }

  [[nodiscard]] T trace() const {
    check_arg(square(), "trace: matrix not square");
    T acc{};
    for (std::size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
    return acc;
  }

  /// Largest absolute entry (complex: largest modulus).
  [[nodiscard]] double max_abs() const {
    double best = 0.0;
    for (const auto& v : data_) best = std::max(best, std::abs(v));
    return best;
  }

  /// True when |A - A^T|_max <= tol (only meaningful for square A).
  [[nodiscard]] bool is_symmetric(double tol = 1e-10) const {
    if (!square()) return false;
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = i + 1; j < cols_; ++j)
        if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    return true;
  }

  /// Symmetrization (A + A^T)/2.
  [[nodiscard]] BasicMatrix symmetric_part() const {
    check_arg(square(), "symmetric_part: matrix not square");
    BasicMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j)
        out(i, j) = ((*this)(i, j) + (*this)(j, i)) / T{2};
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, AlignedAllocator<T>> data_;
};

using Matrix = BasicMatrix<double>;
using CMatrix = BasicMatrix<std::complex<double>>;

/// C = A B^T for row-major A (m x k) and B (n x k). Both operands stream
/// their *rows*, so every inner product walks contiguous memory — the
/// cache-friendly orientation for the Gram/projection hot paths, where the
/// naive `a * b.transpose()` would first materialize the transpose. The
/// whole tiled loop nest runs behind one kernel dispatch (simd::gemm_nt):
/// at the d = 24 feature widths the inner products are too short to pay
/// an indirect call each.
[[nodiscard]] inline Matrix multiply_transposed_b(const Matrix& a,
                                                  const Matrix& b) {
  check_arg(a.cols() == b.cols(),
            "multiply_transposed_b: inner dimension mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k = a.cols();
  Matrix out(m, n);
  if (m == 0 || n == 0) return out;
  simd::gemm_nt(out.flat().data(), n, a.flat().data(), k, m, b.flat().data(),
                k, n, k);
  return out;
}

/// Blocked symmetric rank-k update C += alpha * A^T A, where A is `r` rows
/// of length `n` stored row-major with stride `stride` (a raw scratch
/// buffer, e.g. the half-solved Y of an incremental Schur complement).
/// Only the upper triangle is accumulated, then mirrored — C must be
/// symmetric n x n on entry. The blocked triangle pass runs behind one
/// kernel dispatch (simd::syrk_ut): rows of A are consumed in fixed
/// blocks, fused four at a time, so a resident strip of A is reused
/// across C's triangle without an indirect call per rank-1 update.
inline void sym_rank_k_update(Matrix& c, double alpha, const double* a,
                              std::size_t r, std::size_t n,
                              std::size_t stride) {
  check_arg(c.rows() == n && c.cols() == n,
            "sym_rank_k_update: output shape mismatch");
  if (n == 0) return;
  simd::syrk_ut(c.flat().data(), n, alpha, a, r, n, stride);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) c(j, i) = c(i, j);
}

/// Promotes a real matrix to complex.
[[nodiscard]] inline CMatrix to_complex(const Matrix& m) {
  CMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j);
  return out;
}

}  // namespace pardpp
