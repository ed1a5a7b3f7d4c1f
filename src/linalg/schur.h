// Schur complements.
//
// Conditioning a determinantal distribution on the inclusion of a set T is
// exactly a Schur complement of the ensemble matrix (paper §3.2):
//   L^T = L_{~T} - L_{~T,T} (L_{T,T})^{-1} L_{T,~T},
// and the chain rule det(L_{T ∪ F}) = det(L_{T,T}) det((L^T)_F) is what
// keeps counting consistent across conditioning steps. The elimination
// block is factored with Cholesky when symmetric and pivoted LU otherwise.
#pragma once

#include <span>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "support/logsum.h"

namespace pardpp {

/// Result of eliminating the block indexed by `elim`.
struct SchurResult {
  Matrix reduced;            ///< M_KK - M_KE M_EE^{-1} M_EK, in `keep` order
  double log_abs_det_elim;   ///< log |det M_EE|
  int det_sign_elim;         ///< sign of det M_EE (0 when singular)
};

/// Computes the Schur complement of M with respect to the `elim` block.
/// `keep` and `elim` must be disjoint index sets into M. When `symmetric`
/// is true the elimination block must be positive definite (throws
/// NumericalError otherwise); the general path throws on a singular block.
[[nodiscard]] SchurResult schur_complement(const Matrix& m,
                                           std::span<const int> keep,
                                           std::span<const int> elim,
                                           bool symmetric);

/// Incremental symmetric Schur complement: eliminates the `elim` block of
/// symmetric `m` using an already-built IncrementalCholesky of
/// m.principal(elim) — the factor a shared-prefix batch query grew row by
/// row — instead of refactoring it. Writes
///   reduced = M_KK - Y^T Y,   Y = R^{-1} M_EK   (M_EE = R R^T),
/// which equals the symmetric `schur_complement` path to roundoff while
/// doing one forward substitution instead of a full solve. `reduced` and
/// `y_scratch` are caller-owned scratch, reused across the queries of a
/// wave; `reduced` is reallocated only when the kept block's size changes.
void schur_complement_sym_into(const Matrix& m, std::span<const int> keep,
                               std::span<const int> elim,
                               const IncrementalCholesky& chol,
                               std::vector<double>& y_scratch,
                               Matrix& reduced);

/// Convenience for ensemble conditioning: eliminates T, keeps the
/// complement of T in ascending original order.
[[nodiscard]] SchurResult condition_ensemble(const Matrix& l,
                                             std::span<const int> t,
                                             bool symmetric);

/// Symmetric `condition_ensemble` on caller-owned scratch — the
/// commit-path conditioning step of the round loops: factors the
/// elimination block L_TT into `chol` one bordered row at a time (throws
/// NumericalError when the block is not PD, i.e. conditioning on a
/// probability-zero event), then writes the Schur complement into
/// `reduced` via the half-solve. No oracle, no per-round allocations once
/// the scratch has warmed up.
void condition_ensemble_sym_into(const Matrix& l, std::span<const int> t,
                                 IncrementalCholesky& chol,
                                 std::vector<double>& y_scratch,
                                 std::vector<int>& keep_scratch,
                                 Matrix& reduced);

/// The complement of a sorted-or-not index set within {0..n-1}, ascending.
[[nodiscard]] std::vector<int> complement_indices(std::size_t n,
                                                  std::span<const int> subset);

/// Factor-side moment probe of a symmetric elimination (DESIGN.md §2
/// convention 9): the machinery that turns a Schur-complement
/// conditioning step into *downdated power traces and diagonal moments*
/// — the counting quantities of the conditional — without forming the
/// reduced matrix or running an eigensolve.
///
/// For symmetric M with elimination block t, the conditional is
/// M^t = M - Uhat Uhat^T on the kept indices, where Uhat^T = R^{-1}
/// M[t,:] is the half-solve against the block factor M_tt = R R^T (the
/// same forward substitution `schur_complement_sym_into` uses). With the
/// Krylov blocks W_a = Mhat^a Uhat (Mhat = M/scale), moment matrices
/// T_w = Uhat^T W_w, and the Gamma chain
///   Gamma_0 = -I,   Gamma_m = -sum_{w<m} Gamma_{m-1-w} T_w,
/// every power of the downdate expands exactly as
///   (Mhat - Uhat Uhat^T)^v = Mhat^v
///     + sum_{a+b+m=v-1} Mhat^a Uhat Gamma_m Uhat^T Mhat^b,
/// so traces and diagonals of the conditional follow from the base ones
/// by O(|t|^2) bilinear forms per entry. Cost: (orders-1)|t| matvecs to
/// build, versus the O(n^3) eigensolve it replaces.
///
/// Every output carries a parallel |term| accumulation (the same
/// cancellation-monitor convention as NewtonEsp): consumers must guard
/// value/abs ratios and fall back to the spectral path when conditioning
/// degrades.
class BlockMomentProbe {
 public:
  /// Prepares the probe for eliminating `elim` from symmetric `m`,
  /// scaled by 1/`scale`. `chol` must hold the factor of
  /// m.principal(elim) (as grown by the commit/query paths). `orders`
  /// Krylov blocks are built, supporting downdated quantities up to
  /// power vmax = orders.
  void build(const Matrix& m, double scale, std::span<const int> elim,
             const IncrementalCholesky& chol, std::size_t orders);

  /// Downdated traces: out[v-1] = tr(Mhat_t^v) for v = 1..vmax, given
  /// base[v-1] = tr(Mhat^v). Requires vmax <= orders.
  void downdated_traces(std::span<const double> base,
                        std::span<const double> base_abs, std::size_t vmax,
                        std::vector<double>& out,
                        std::vector<double>& out_abs) const;

  /// Downdated diagonal moments of the listed rows:
  /// out[(v-1)*rows.size() + j] = (Mhat_t^v)_ii with i = rows[j], for
  /// v = 1..vmax, given base[(v-1)*n + i] = (Mhat^v)_ii over the full
  /// index set. Each row's output depends on that row alone. Rows of the
  /// eliminated block land at exactly zero up to accumulated drift — the
  /// commit path's drift observable. Requires vmax <= orders. Cost per
  /// row: vmax(vmax+1)/2 s x s mat-vecs plus about vmax^3/12 length-s
  /// dot products.
  void downdated_diag(std::span<const int> rows,
                      std::span<const double> base,
                      std::span<const double> base_abs, std::size_t vmax,
                      std::vector<double>& out,
                      std::vector<double>& out_abs) const;

 private:
  // Adds row i's downdate terms to out[(v-1)*stride], v = 1..vmax, and
  // their |term| sums to out_abs. gw, gw_abs: vmax*vmax*s_ scratch each.
  void add_row_downdate(std::size_t i, std::size_t vmax, double* gw,
                        double* gw_abs, double* out, double* out_abs,
                        std::size_t stride) const;

  std::size_t n_ = 0;
  std::size_t s_ = 0;
  std::size_t orders_ = 0;
  std::vector<double> w_;      // orders_ blocks of n_ x s_ (row-major)
  std::vector<double> t_;      // orders_ blocks of s_ x s_
  std::vector<double> g_;      // Gamma chain, s_ x s_ per order
  std::vector<double> g_abs_;  // |term| chain of Gamma
  std::vector<double> rows_scratch_;
};

}  // namespace pardpp
