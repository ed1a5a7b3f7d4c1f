// Random and structured kernel factories.
//
// The paper's experiments need families of ensemble matrices with
// controllable structure: symmetric PSD kernels (Wishart, RBF, low-rank,
// projection-like), nonsymmetric PSD kernels (Definition 4: L + L^T PSD),
// and spectrally bounded marginal kernels for the filtering algorithm.
// Every generator takes an explicit RandomStream for reproducibility.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "support/random.h"

namespace pardpp {

/// rows x cols matrix of i.i.d. standard normals.
[[nodiscard]] Matrix random_gaussian(std::size_t rows, std::size_t cols,
                                     RandomStream& rng);

/// Random symmetric PSD matrix of the given rank: B B^T / rank with B an
/// n x rank Gaussian, plus `ridge` * I to keep principal blocks invertible.
[[nodiscard]] Matrix random_psd(std::size_t n, std::size_t rank,
                                RandomStream& rng, double ridge = 1e-6);

/// Random nonsymmetric PSD matrix (Definition 4): S + W with S symmetric
/// PD and W skew-symmetric scaled by `skew_scale` relative to S. Any skew
/// part preserves L + L^T = 2S >= 0.
[[nodiscard]] Matrix random_npsd(std::size_t n, RandomStream& rng,
                                 double skew_scale = 0.5,
                                 std::size_t rank = 0);

/// n points uniform in the unit cube of dimension `dim`, rows of the
/// returned matrix.
[[nodiscard]] Matrix random_points(std::size_t n, std::size_t dim,
                                   RandomStream& rng);

/// Gaussian RBF kernel K_ij = exp(-|x_i - x_j|^2 / (2 bandwidth^2)) over
/// the rows of `points` — the classic data-summarization DPP kernel.
[[nodiscard]] Matrix rbf_kernel(const Matrix& points, double bandwidth);

/// Random n x k matrix with orthonormal columns (Gaussian + modified
/// Gram-Schmidt).
[[nodiscard]] Matrix random_orthonormal(std::size_t n, std::size_t k,
                                        RandomStream& rng);

/// Symmetric kernel with the given spectrum and a random eigenbasis.
[[nodiscard]] Matrix kernel_with_spectrum(std::span<const double> spectrum,
                                          RandomStream& rng);

/// Random balanced partition of {0..n-1} into r non-empty parts;
/// part_of[i] in [0, r).
[[nodiscard]] std::vector<int> random_partition(std::size_t n, std::size_t r,
                                                RandomStream& rng);

}  // namespace pardpp
