#include "linalg/factory.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace pardpp {

Matrix random_gaussian(std::size_t rows, std::size_t cols, RandomStream& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  return m;
}

Matrix random_psd(std::size_t n, std::size_t rank, RandomStream& rng,
                  double ridge) {
  check_arg(rank >= 1, "random_psd: rank must be positive");
  const Matrix b = random_gaussian(n, rank, rng);
  Matrix l = b * b.transpose();
  l *= 1.0 / static_cast<double>(rank);
  for (std::size_t i = 0; i < n; ++i) l(i, i) += ridge;
  return l;
}

Matrix random_npsd(std::size_t n, RandomStream& rng, double skew_scale,
                   std::size_t rank) {
  if (rank == 0) rank = n;
  Matrix s = random_psd(n, rank, rng, 1e-4);
  const double s_scale = std::max(s.max_abs(), 1e-12);
  Matrix l = std::move(s);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.normal() * skew_scale * s_scale /
                       std::sqrt(static_cast<double>(n));
      l(i, j) += w;
      l(j, i) -= w;
    }
  }
  return l;
}

Matrix random_points(std::size_t n, std::size_t dim, RandomStream& rng) {
  Matrix pts(n, dim);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < dim; ++d) pts(i, d) = rng.uniform();
  return pts;
}

Matrix rbf_kernel(const Matrix& points, double bandwidth) {
  check_arg(bandwidth > 0.0, "rbf_kernel: bandwidth must be positive");
  const std::size_t n = points.rows();
  Matrix k(n, n);
  const double inv = 1.0 / (2.0 * bandwidth * bandwidth);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < points.cols(); ++d) {
        const double diff = points(i, d) - points(j, d);
        d2 += diff * diff;
      }
      const double v = std::exp(-d2 * inv);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

Matrix random_orthonormal(std::size_t n, std::size_t k, RandomStream& rng) {
  check_arg(k <= n, "random_orthonormal: need k <= n");
  Matrix v = random_gaussian(n, k, rng);
  // Modified Gram-Schmidt with re-orthogonalization pass.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t prev = 0; prev < j; ++prev) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += v(i, j) * v(i, prev);
        for (std::size_t i = 0; i < n; ++i) v(i, j) -= dot * v(i, prev);
      }
      double norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) norm += v(i, j) * v(i, j);
      norm = std::sqrt(norm);
      check_numeric(norm > 1e-12, "random_orthonormal: degenerate column");
      for (std::size_t i = 0; i < n; ++i) v(i, j) /= norm;
    }
  }
  return v;
}

Matrix kernel_with_spectrum(std::span<const double> spectrum,
                            RandomStream& rng) {
  const std::size_t n = spectrum.size();
  const Matrix q = random_orthonormal(n, n, rng);
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t m = 0; m < n; ++m)
        acc += q(i, m) * spectrum[m] * q(j, m);
      k(i, j) = acc;
    }
  }
  // Exact symmetry despite roundoff.
  return k.symmetric_part();
}

std::vector<int> random_partition(std::size_t n, std::size_t r,
                                  RandomStream& rng) {
  check_arg(r >= 1 && r <= n, "random_partition: need 1 <= r <= n");
  std::vector<int> part(n);
  // Guarantee non-empty parts, then fill uniformly.
  for (std::size_t i = 0; i < r; ++i) part[i] = static_cast<int>(i);
  for (std::size_t i = r; i < n; ++i)
    part[i] = static_cast<int>(rng.uniform_index(r));
  rng.shuffle(part);
  return part;
}

}  // namespace pardpp
