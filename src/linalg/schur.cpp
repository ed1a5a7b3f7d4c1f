#include "linalg/schur.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "support/error.h"

namespace pardpp {

std::vector<int> complement_indices(std::size_t n, std::span<const int> subset) {
  std::vector<bool> in_subset(n, false);
  for (const int i : subset) {
    check_arg(i >= 0 && static_cast<std::size_t>(i) < n,
              "complement_indices: index out of range");
    check_arg(!in_subset[static_cast<std::size_t>(i)],
              "complement_indices: duplicate index");
    in_subset[static_cast<std::size_t>(i)] = true;
  }
  std::vector<int> out;
  out.reserve(n - subset.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!in_subset[i]) out.push_back(static_cast<int>(i));
  return out;
}

SchurResult schur_complement(const Matrix& m, std::span<const int> keep,
                             std::span<const int> elim, bool symmetric) {
  check_arg(m.square(), "schur_complement: matrix not square");
  if (elim.empty()) {
    return {m.gather(keep, keep), 0.0, 1};
  }
  const Matrix mee = m.gather(elim, elim);
  const Matrix mek = m.gather(elim, keep);
  const Matrix mke = m.gather(keep, elim);
  Matrix x;  // M_EE^{-1} M_EK
  double log_det = kNegInf;
  int sign = 0;
  if (symmetric) {
    auto chol = cholesky(mee);
    check_numeric(chol.has_value(),
                  "schur_complement: symmetric elimination block not PD "
                  "(conditioning on a probability-zero event?)");
    x = chol->solve_matrix(mek);
    log_det = chol->log_det();
    sign = 1;
  } else {
    const auto lu = lu_factor(mee);
    check_numeric(!lu.singular(),
                  "schur_complement: singular elimination block "
                  "(conditioning on a probability-zero event?)");
    x = lu.solve_matrix(mek);
    log_det = lu.log_abs_det();
    sign = lu.det_phase().real() >= 0.0 ? 1 : -1;
  }
  Matrix reduced = m.gather(keep, keep);
  reduced -= mke * x;
  return {std::move(reduced), log_det, sign};
}

void schur_complement_sym_into(const Matrix& m, std::span<const int> keep,
                               std::span<const int> elim,
                               const IncrementalCholesky& chol,
                               std::vector<double>& y_scratch,
                               Matrix& reduced) {
  check_arg(m.square(), "schur_complement_sym_into: matrix not square");
  check_arg(chol.size() == elim.size(),
            "schur_complement_sym_into: factor size mismatch");
  const std::size_t nk = keep.size();
  const std::size_t ne = elim.size();
  if (reduced.rows() != nk || reduced.cols() != nk) reduced = Matrix(nk, nk);
  // Y = R^{-1} M_EK, one row per eliminated element.
  y_scratch.resize(ne * nk);
  for (std::size_t r = 0; r < ne; ++r) {
    const auto er = static_cast<std::size_t>(elim[r]);
    double* row = y_scratch.data() + r * nk;
    for (std::size_t j = 0; j < nk; ++j)
      row[j] = m(er, static_cast<std::size_t>(keep[j]));
  }
  chol.forward_solve_rows(y_scratch.data(), nk, nk);
  // reduced = M_KK - Y^T Y: gather the kept block (symmetric), then a
  // blocked rank-ne downdate instead of the naive per-entry reduction.
  for (std::size_t i = 0; i < nk; ++i) {
    const auto ki = static_cast<std::size_t>(keep[i]);
    for (std::size_t j = i; j < nk; ++j) {
      const double v = m(ki, static_cast<std::size_t>(keep[j]));
      reduced(i, j) = v;
      reduced(j, i) = v;
    }
  }
  sym_rank_k_update(reduced, -1.0, y_scratch.data(), ne, nk, nk);
}

SchurResult condition_ensemble(const Matrix& l, std::span<const int> t,
                               bool symmetric) {
  const auto keep = complement_indices(l.rows(), t);
  return schur_complement(l, keep, t, symmetric);
}

void condition_ensemble_sym_into(const Matrix& l, std::span<const int> t,
                                 IncrementalCholesky& chol,
                                 std::vector<double>& y_scratch,
                                 std::vector<int>& keep_scratch,
                                 Matrix& reduced) {
  check_arg(l.square(), "condition_ensemble_sym_into: matrix not square");
  const std::size_t n = l.rows();
  const std::size_t tsize = t.size();
  // Seed the PD threshold with the block's largest diagonal so the
  // verdict matches a from-scratch cholesky(L_TT) (element-order
  // independent).
  double max_diag = 0.0;
  for (const int i : t) {
    check_arg(i >= 0 && static_cast<std::size_t>(i) < n,
              "condition_ensemble_sym_into: index out of range");
    max_diag = std::max(max_diag, std::abs(l(static_cast<std::size_t>(i),
                                             static_cast<std::size_t>(i))));
  }
  chol.clear(max_diag);
  std::vector<double>& row = y_scratch;  // reused before the half-solve
  row.resize(tsize);
  for (std::size_t r = 0; r < tsize; ++r) {
    const auto tr = static_cast<std::size_t>(t[r]);
    for (std::size_t c = 0; c <= r; ++c)
      row[c] = l(tr, static_cast<std::size_t>(t[c]));
    check_numeric(chol.append(std::span<const double>(row.data(), r + 1)),
                  "condition_ensemble_sym_into: elimination block not PD "
                  "(conditioning on a probability-zero event?)");
  }
  keep_scratch = complement_indices(n, t);
  schur_complement_sym_into(l, keep_scratch, t, chol, y_scratch, reduced);
}

void BlockMomentProbe::build(const Matrix& m, double scale,
                             std::span<const int> elim,
                             const IncrementalCholesky& chol,
                             std::size_t orders) {
  check_arg(m.square(), "BlockMomentProbe: matrix not square");
  check_arg(chol.size() == elim.size(),
            "BlockMomentProbe: factor size mismatch");
  check_arg(scale > 0.0, "BlockMomentProbe: scale must be positive");
  check_arg(orders >= 1, "BlockMomentProbe: need at least one order");
  n_ = m.rows();
  s_ = elim.size();
  orders_ = orders;
  w_.assign(orders_ * n_ * s_, 0.0);
  t_.assign(orders_ * s_ * s_, 0.0);
  g_.assign(orders_ * s_ * s_, 0.0);
  g_abs_.assign(orders_ * s_ * s_, 0.0);
  if (s_ == 0) return;
  // Uhat^T = R^{-1} M[elim,:] / sqrt(scale): gather the eliminated rows
  // and run the same forward substitution the Schur path uses.
  rows_scratch_.resize(s_ * n_);
  for (std::size_t r = 0; r < s_; ++r) {
    const auto er = static_cast<std::size_t>(elim[r]);
    double* row = rows_scratch_.data() + r * n_;
    for (std::size_t j = 0; j < n_; ++j) row[j] = m(er, j);
  }
  chol.forward_solve_rows(rows_scratch_.data(), n_, n_);
  const double inv_sqrt_scale = 1.0 / std::sqrt(scale);
  double* w0 = w_.data();  // W_0 = Uhat, n_ x s_
  for (std::size_t r = 0; r < s_; ++r) {
    const double* row = rows_scratch_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) w0[i * s_ + r] = row[i] * inv_sqrt_scale;
  }
  // Krylov blocks W_{a+1} = Mhat W_a.
  const double inv_scale = 1.0 / scale;
  for (std::size_t a = 0; a + 1 < orders_; ++a) {
    const double* wa = w_.data() + a * n_ * s_;
    double* wnext = w_.data() + (a + 1) * n_ * s_;
    for (std::size_t i = 0; i < n_; ++i) {
      double* out_row = wnext + i * s_;
      for (std::size_t j = 0; j < n_; ++j) {
        const double coeff = m(i, j) * inv_scale;
        if (coeff == 0.0) continue;
        const double* in_row = wa + j * s_;
        for (std::size_t c = 0; c < s_; ++c) out_row[c] += coeff * in_row[c];
      }
    }
  }
  // Moment matrices T_w = Uhat^T W_w.
  for (std::size_t w = 0; w < orders_; ++w) {
    const double* ww = w_.data() + w * n_ * s_;
    double* tw = t_.data() + w * s_ * s_;
    for (std::size_t i = 0; i < n_; ++i) {
      const double* u_row = w0 + i * s_;
      const double* w_row = ww + i * s_;
      for (std::size_t r = 0; r < s_; ++r) {
        const double ur = u_row[r];
        if (ur == 0.0) continue;
        for (std::size_t c = 0; c < s_; ++c) tw[r * s_ + c] += ur * w_row[c];
      }
    }
  }
  // Gamma chain: Gamma_0 = -I; Gamma_m = -sum_{w<m} Gamma_{m-1-w} T_w.
  // Gamma_m is symmetric in exact arithmetic (every composition word
  // appears with both orientations), so symmetrize to kill drift. The
  // g_abs_ chain propagates |terms| for the cancellation monitor.
  for (std::size_t r = 0; r < s_; ++r) {
    g_[r * s_ + r] = -1.0;
    g_abs_[r * s_ + r] = 1.0;
  }
  for (std::size_t m_ord = 1; m_ord < orders_; ++m_ord) {
    double* gm = g_.data() + m_ord * s_ * s_;
    double* gm_abs = g_abs_.data() + m_ord * s_ * s_;
    for (std::size_t w = 0; w < m_ord; ++w) {
      const double* gprev = g_.data() + (m_ord - 1 - w) * s_ * s_;
      const double* gprev_abs = g_abs_.data() + (m_ord - 1 - w) * s_ * s_;
      const double* tw = t_.data() + w * s_ * s_;
      for (std::size_t r = 0; r < s_; ++r) {
        for (std::size_t p = 0; p < s_; ++p) {
          const double gv = gprev[r * s_ + p];
          const double ga = gprev_abs[r * s_ + p];
          for (std::size_t c = 0; c < s_; ++c) {
            gm[r * s_ + c] -= gv * tw[p * s_ + c];
            gm_abs[r * s_ + c] += ga * std::abs(tw[p * s_ + c]);
          }
        }
      }
    }
    for (std::size_t r = 0; r < s_; ++r) {
      for (std::size_t c = r + 1; c < s_; ++c) {
        const double sym = 0.5 * (gm[r * s_ + c] + gm[c * s_ + r]);
        gm[r * s_ + c] = sym;
        gm[c * s_ + r] = sym;
        const double sym_abs = 0.5 * (gm_abs[r * s_ + c] + gm_abs[c * s_ + r]);
        gm_abs[r * s_ + c] = sym_abs;
        gm_abs[c * s_ + r] = sym_abs;
      }
    }
  }
}

void BlockMomentProbe::downdated_traces(std::span<const double> base,
                                        std::span<const double> base_abs,
                                        std::size_t vmax,
                                        std::vector<double>& out,
                                        std::vector<double>& out_abs) const {
  check_arg(vmax <= orders_, "BlockMomentProbe: vmax exceeds built orders");
  check_arg(base.size() >= vmax && base_abs.size() >= vmax,
            "BlockMomentProbe: base traces too short");
  out.assign(base.begin(), base.begin() + static_cast<std::ptrdiff_t>(vmax));
  out_abs.assign(base_abs.begin(),
                 base_abs.begin() + static_cast<std::ptrdiff_t>(vmax));
  if (s_ == 0) return;
  // t'_v = t_v + sum_{m+w=v-1} (w+1) tr(Gamma_m T_w).
  for (std::size_t v = 1; v <= vmax; ++v) {
    double acc = 0.0;
    double acc_abs = 0.0;
    for (std::size_t w = 0; w < v; ++w) {
      const std::size_t m_ord = v - 1 - w;
      const double* gm = g_.data() + m_ord * s_ * s_;
      const double* gm_abs = g_abs_.data() + m_ord * s_ * s_;
      const double* tw = t_.data() + w * s_ * s_;
      double tr = 0.0;
      double tr_abs = 0.0;
      for (std::size_t r = 0; r < s_; ++r) {
        for (std::size_t c = 0; c < s_; ++c) {
          tr += gm[r * s_ + c] * tw[c * s_ + r];
          tr_abs += gm_abs[r * s_ + c] * std::abs(tw[c * s_ + r]);
        }
      }
      const auto mult = static_cast<double>(w + 1);
      acc += mult * tr;
      acc_abs += mult * tr_abs;
    }
    out[v - 1] += acc;
    out_abs[v - 1] += acc_abs;
  }
}

void BlockMomentProbe::downdated_diag(std::span<const int> rows,
                                      std::span<const double> base,
                                      std::span<const double> base_abs,
                                      std::size_t vmax,
                                      std::vector<double>& out,
                                      std::vector<double>& out_abs) const {
  check_arg(vmax <= orders_, "BlockMomentProbe: vmax exceeds built orders");
  check_arg(base.size() >= vmax * n_ && base_abs.size() >= vmax * n_,
            "BlockMomentProbe: base diagonal moments too short");
  const std::size_t nr = rows.size();
  out.resize(vmax * nr);
  out_abs.resize(vmax * nr);
  for (std::size_t j = 0; j < nr; ++j) {
    check_arg(rows[j] >= 0 && static_cast<std::size_t>(rows[j]) < n_,
              "BlockMomentProbe: row index out of range");
    const auto i = static_cast<std::size_t>(rows[j]);
    for (std::size_t v = 0; v < vmax; ++v) {
      out[v * nr + j] = base[v * n_ + i];
      out_abs[v * nr + j] = base_abs[v * n_ + i];
    }
  }
  if (s_ == 0) return;
  std::vector<double> gw(vmax * vmax * s_), gw_abs(vmax * vmax * s_);
  for (std::size_t j = 0; j < nr; ++j)
    add_row_downdate(static_cast<std::size_t>(rows[j]), vmax, gw.data(),
                     gw_abs.data(), out.data() + j, out_abs.data() + j, nr);
}

void BlockMomentProbe::add_row_downdate(std::size_t i, std::size_t vmax,
                                        double* gw, double* gw_abs,
                                        double* out, double* out_abs,
                                        std::size_t stride) const {
  // d'_v[i] = d_v[i] + sum_{a+b+m=v-1} w_a[i]^T Gamma_m w_b[i]. Each
  // product Gamma_m w_b[i] (m + b < vmax) is formed once, into slot
  // (m * vmax + b) of gw, and shared by every a that pairs with it.
  for (std::size_t m_ord = 0; m_ord < vmax; ++m_ord) {
    const double* gm = g_.data() + m_ord * s_ * s_;
    const double* gm_abs = g_abs_.data() + m_ord * s_ * s_;
    for (std::size_t b = 0; m_ord + b < vmax; ++b) {
      const double* wb = w_.data() + b * n_ * s_ + i * s_;
      double* prod = gw + (m_ord * vmax + b) * s_;
      double* prod_abs = gw_abs + (m_ord * vmax + b) * s_;
      for (std::size_t r = 0; r < s_; ++r) {
        double dot = 0.0;
        double dot_abs = 0.0;
        for (std::size_t c = 0; c < s_; ++c) {
          dot += gm[r * s_ + c] * wb[c];
          dot_abs += gm_abs[r * s_ + c] * std::abs(wb[c]);
        }
        prod[r] = dot;
        prod_abs[r] = dot_abs;
      }
    }
  }
  // The (a,b) and (b,a) terms agree because Gamma_m is symmetric, so
  // sweep a <= b with a factor of two off the diagonal.
  for (std::size_t v = 1; v <= vmax; ++v) {
    double acc = 0.0;
    double acc_abs = 0.0;
    for (std::size_t a = 0; a < v; ++a) {
      const double* wa = w_.data() + a * n_ * s_ + i * s_;
      for (std::size_t b = a; a + b < v; ++b) {
        const std::size_t slot = ((v - 1 - a - b) * vmax + b) * s_;
        const double* prod = gw + slot;
        const double* prod_abs = gw_abs + slot;
        double q = 0.0;
        double q_abs = 0.0;
        for (std::size_t r = 0; r < s_; ++r) {
          q += wa[r] * prod[r];
          q_abs += std::abs(wa[r]) * prod_abs[r];
        }
        const double mult = (a == b) ? 1.0 : 2.0;
        acc += mult * q;
        acc_abs += mult * q_abs;
      }
    }
    out[(v - 1) * stride] += acc;
    out_abs[(v - 1) * stride] += acc_abs;
  }
}

}  // namespace pardpp
