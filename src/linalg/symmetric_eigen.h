// Symmetric eigendecomposition.
//
// Two independent implementations are provided:
//  * `symmetric_eigen`: Householder tridiagonalization (tred2) followed by
//    the implicit-shift QL iteration (tql2) — the production path, O(n^3)
//    with a small constant;
//  * `jacobi_eigen`: cyclic Jacobi rotations — slower but algorithmically
//    unrelated, used by the test suite to cross-validate the former.
//
// Both return eigenvalues in ascending order with matching eigenvector
// columns. The symmetric-DPP counting oracle (marginals via elementary
// symmetric polynomials of the spectrum) and the HKPV exact sampler sit on
// top of these.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace pardpp {

/// Eigenvalues (ascending) and eigenvectors (columns of `vectors`, aligned
/// with `values`) of a real symmetric matrix.
struct SymmetricEigen {
  std::vector<double> values;
  Matrix vectors;
};

/// Householder + implicit-shift QL eigendecomposition of a symmetric
/// matrix. Throws NumericalError if the QL iteration fails to converge
/// (practically unreachable for symmetric input).
[[nodiscard]] SymmetricEigen symmetric_eigen(const Matrix& a);

/// Cyclic Jacobi eigendecomposition (cross-check implementation).
[[nodiscard]] SymmetricEigen jacobi_eigen(const Matrix& a,
                                          int max_sweeps = 100,
                                          double tol = 1e-13);

/// Eigenvalues only (ascending) — skips eigenvector accumulation, roughly
/// 3x faster, and equal bit for bit to `symmetric_eigen(a).values`; the
/// joint-marginal oracle queries and the filtering sampler use this path.
[[nodiscard]] std::vector<double> symmetric_eigenvalues(const Matrix& a);

/// Largest |eigenvalue| of a symmetric matrix.
[[nodiscard]] double spectral_norm_symmetric(const Matrix& a);

}  // namespace pardpp
