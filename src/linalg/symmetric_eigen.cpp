#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "parallel/execution.h"
#include "support/error.h"

namespace pardpp {

namespace {

// Householder reduction of a symmetric matrix to tridiagonal form (classic
// tred2) on the lower triangle. On exit `d` holds the diagonal and `e` the
// subdiagonal (e[0] unused). With `want_vectors` the orthogonal
// transformation Q is accumulated *transposed*: row j of `z` is column j
// of Q. Every inner loop walks a row; each output element sees the same
// operations in the same order as the textbook column walk.
void tred2(Matrix& z, std::vector<double>& d, std::vector<double>& e,
           bool want_vectors) {
  const std::size_t n = z.rows();
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* u = z.row(i).data();
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        // e = A u from the lower triangle, one row at a time: row r holds
        // the leading terms of e[r] and term r of every e[j], j < r.
        for (std::size_t r = 0; r <= l; ++r) {
          const double* zr = z.row(r).data();
          g = 0.0;
          for (std::size_t k = 0; k <= r; ++k) g += zr[k] * u[k];
          for (std::size_t k = 0; k < r; ++k) e[k] += zr[k] * u[r];
          e[r] = g;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * u[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = u[j];
          g = e[j] - hh * f;
          e[j] = g;
          double* zj = z.row(j).data();
          for (std::size_t k = 0; k <= j; ++k) zj[k] -= f * e[k] + g * u[k];
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  if (!want_vectors) {
    for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
    return;
  }
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      // Householder i applied to the accumulated block: row j of Q^T
      // reads only u (row i) and v = u / h, and writes only itself, so
      // the rows are one parallel round. This is the O(n^3) term of the
      // reduction.
      const double* u = z.row(i).data();
      for (std::size_t k = 0; k < i; ++k) v[k] = u[k] / d[i];
      const auto rotate_rows = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          double* w = z.row(j).data();
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += u[k] * w[k];
          for (std::size_t k = 0; k < i; ++k) w[k] -= g * v[k];
        }
      };
      if (i >= 128) {
        linalg_context().for_each_chunk(0, i, rotate_rows, 16);
      } else {
        rotate_rows(0, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) z(j, i) = z(i, j) = 0.0;
  }
}

// Implicit-shift QL iteration on a tridiagonal matrix (classic tqli). With
// `want_vectors` the rotations are accumulated into the transposed basis
// `z` from tred2, so each one updates two contiguous rows. The local
// deflation test can stall on a fast-decaying spectrum, so an eigenvalue
// that has taken kLocalIterations also deflates on the EISPACK norm test.
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix& z,
          bool want_vectors) {
  constexpr int kLocalIterations = 64;
  constexpr int kMaxIterations = 128;
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    norm = std::max(norm, std::abs(d[i]) + std::abs(e[i]));
  const double norm_floor =
      4.0 * std::numeric_limits<double>::epsilon() * norm;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd) break;
        if (iter >= kLocalIterations && std::abs(e[m]) <= norm_floor) break;
      }
      if (m != l) {
        check_numeric(iter++ < kMaxIterations,
                      "tql2: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (want_vectors) {
            double* zi = z.row(i).data();
            double* zi1 = z.row(i + 1).data();
            for (std::size_t k = 0; k < n; ++k) {
              f = zi1[k];
              zi1[k] = s * zi[k] + c * f;
              zi[k] = c * zi[k] - s * f;
            }
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

// Sorts eigenpairs ascending by eigenvalue; row j of `zt` is the
// eigenvector of d[j].
SymmetricEigen sorted(std::vector<double> d, const Matrix& zt) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&d](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    const auto vec = zt.row(order[j]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = vec[i];
  }
  return out;
}

// Eigenvalues (unsorted) of the symmetric matrix in `z`; with
// `want_vectors`, `z` ends as the transposed eigenbasis.
std::vector<double> tridiagonal_ql(Matrix& z, bool want_vectors) {
  const std::size_t n = z.rows();
  std::vector<double> d(n, 0.0);
  if (n == 0) return d;
  std::vector<double> e(n, 0.0);
  tred2(z, d, e, want_vectors);
  tql2(d, e, z, want_vectors);
  return d;
}

}  // namespace

SymmetricEigen symmetric_eigen(const Matrix& a) {
  check_arg(a.square(), "symmetric_eigen: matrix not square");
  Matrix z = a;
  std::vector<double> d = tridiagonal_ql(z, /*want_vectors=*/true);
  return sorted(std::move(d), z);
}

SymmetricEigen jacobi_eigen(const Matrix& a, int max_sweeps, double tol) {
  check_arg(a.square(), "jacobi_eigen: matrix not square");
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix vt = Matrix::identity(n);  // row p is eigenvector column p
  const double scale = std::max(a.max_abs(), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    if (std::sqrt(off) <= tol * scale * static_cast<double>(n)) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        const auto vp = vt.row(p);
        const auto vq = vt.row(q);
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = m(i, i);
  return sorted(std::move(d), vt);
}

std::vector<double> symmetric_eigenvalues(const Matrix& a) {
  check_arg(a.square(), "symmetric_eigenvalues: matrix not square");
  Matrix z = a;
  std::vector<double> d = tridiagonal_ql(z, /*want_vectors=*/false);
  std::sort(d.begin(), d.end());
  return d;
}

double spectral_norm_symmetric(const Matrix& a) {
  double best = 0.0;
  for (const double v : symmetric_eigenvalues(a))
    best = std::max(best, std::abs(v));
  return best;
}

}  // namespace pardpp
