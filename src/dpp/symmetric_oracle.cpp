#include "dpp/symmetric_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "dpp/ensemble.h"
#include "linalg/cholesky.h"
#include "linalg/schur.h"
#include "support/combinatorics.h"
#include "support/failpoint.h"
#include "support/logsum.h"

namespace pardpp {

namespace {

// Guard constants of the factor-native commit path (DESIGN.md §2
// convention 9), beside the Newton guards of newton_depth (esp.h). A trip
// on any of them forces one spectral refresh — correctness never depends
// on the fast path being well-conditioned.
constexpr double kMarginalItemGuard = 1e-4;   // numer / |term| floor
constexpr double kMarginalSumTol = 1e-8;      // |sum p - k| / k
constexpr double kCommitDriftGuard = 1e-8;    // eliminated-row residual
constexpr std::size_t kMaxMarginalFixups = 4; // exact per-item resolves

// From-scratch joint marginal of the k-DPP with ensemble `l` and partition
// log_z = log e_k(lambda(l)) — the arithmetic both the base oracle and the
// commit-path state resolve reference queries with.
double log_joint_scratch(const Matrix& l, std::size_t k, double log_z,
                         std::span<const int> t) {
  const std::size_t tsize = t.size();
  if (tsize > k) return kNegInf;
  if (tsize == 0) return 0.0;
  // det(L_T): zero (or numerically non-PD) blocks mean P[T ⊆ S] = 0.
  const Matrix lt = l.principal(t);
  const auto chol_t = cholesky(lt);
  if (!chol_t.has_value()) return kNegInf;
  const double log_det_t = chol_t->log_det();
  if (tsize == k) return log_det_t - log_z;
  // e_{k-t} of the conditional ensemble's spectrum.
  const auto keep = complement_indices(l.rows(), t);
  const auto schur = schur_complement(l, keep, t, /*symmetric=*/true);
  auto lambda = symmetric_eigenvalues(schur.reduced);
  clamp_spectrum_to_rank(lambda);
  const auto log_e = log_esp(lambda, k - tsize);
  const double tail = log_e[k - tsize];
  if (tail == kNegInf) return kNegInf;
  return log_det_t + tail - log_z;
}

// Marginal vector p_i = sum_m w_m V_im^2 from the cached spectral factors.
std::vector<double> marginals_from_spectrum(const SymmetricEigen& eig,
                                            const LogEspTable& table,
                                            std::size_t k) {
  const std::size_t n = eig.values.size();
  std::vector<double> p(n, 0.0);
  if (k == 0 || n == 0) return p;
  const double log_z = table.log_e(k);
  check_numeric(log_z != kNegInf,
                "SymmetricKdppOracle: partition function is zero "
                "(rank of L below k)");
  // The weights are probabilities of eigenvector selection (they sum to
  // k), so the accumulation is safe in linear domain.
  std::vector<double> w;
  esp_mode_weights(eig.values, table, k, w);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      const double v = eig.vectors(i, m);
      acc += w[m] * v * v;
    }
    p[i] = std::min(acc, 1.0);
  }
  return p;
}

// Seeds a PowerBasis (passed generically — the type is private to the
// oracle) from a clamped spectrum: d_v[i] = sum_m lamhat_m^v V_im^2,
// t_v = sum_m lamhat_m^v, with |term| companions equal to the values
// (every contribution is nonnegative). This is both the base oracle's
// basis construction and the drift reset of a commit-path spectral
// refresh. `basis.scale` must be set by the caller. The basis' Newton
// depth is measured here, once per seeded basis.
template <typename Basis>
void seed_basis_from_spectrum(const SymmetricEigen& eig,
                              std::span<const double> clamped,
                              std::size_t jmax, Basis& basis) {
  const std::size_t n = clamped.size();
  basis.log_scale = std::log(basis.scale);
  basis.traces.assign(jmax, 0.0);
  basis.diag.assign(jmax * n, 0.0);
  for (std::size_t m = 0; m < n; ++m) {
    const double lam = clamped[m] / basis.scale;
    if (lam <= 0.0) continue;
    double p = 1.0;
    for (std::size_t v = 1; v <= jmax; ++v) {
      p *= lam;
      basis.traces[v - 1] += p;
      double* row = basis.diag.data() + (v - 1) * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double vi = eig.vectors(i, m);
        row[i] += p * vi * vi;
      }
    }
  }
  basis.traces_abs = basis.traces;
  basis.diag_abs = basis.diag;
  basis.depth = newton_depth(basis.traces, basis.traces_abs, jmax);
}

}  // namespace

SymmetricKdppOracle::SymmetricKdppOracle(Matrix l, std::size_t k,
                                         bool validate)
    : l_(std::move(l)), k_(k) {
  check_arg(l_.square(), "SymmetricKdppOracle: matrix not square");
  check_arg(k_ <= l_.rows(), "SymmetricKdppOracle: k exceeds ground size");
  if (validate) validate_ensemble(l_, /*symmetric=*/true);
}

const SymmetricEigen& SymmetricKdppOracle::eigen() const {
  if (!eigen_.has_value()) eigen_ = symmetric_eigen(l_);
  return *eigen_;
}

const LogEspTable& SymmetricKdppOracle::esp() const {
  if (!esp_.has_value()) {
    // Clamp roundoff-level eigenvalues to exact zeros so rank deficiency
    // is detected (e_k of a rank-r spectrum must vanish for k > r).
    std::vector<double> lambda = eigen().values;
    clamp_spectrum_to_rank(lambda);
    esp_ = LogEspTable(lambda, k_);
  }
  return *esp_;
}

const SymmetricKdppOracle::PowerBasis& SymmetricKdppOracle::power_basis()
    const {
  if (!power_.has_value()) {
    PowerBasis basis;
    double max_diag = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
      max_diag = std::max(max_diag, std::abs(l_(i, i)));
    basis.scale = max_diag > 0.0 ? max_diag : 1.0;
    std::vector<double> lambda = eigen().values;
    clamp_spectrum_to_rank(lambda);
    seed_basis_from_spectrum(eigen(), lambda, k_, basis);
    power_ = std::move(basis);
  }
  return *power_;
}

double SymmetricKdppOracle::log_partition() const { return esp().log_e(k_); }

const std::vector<double>& SymmetricKdppOracle::marginal_cache() const {
  if (!marginals_.has_value()) {
    if (k_ == 0 || ground_size() == 0) {
      marginals_ = std::vector<double>(ground_size(), 0.0);
    } else {
      marginals_ = marginals_from_spectrum(eigen(), esp(), k_);
    }
  }
  return *marginals_;
}

const std::vector<double>& SymmetricKdppOracle::log_marginal_cache() const {
  if (!log_marginals_.has_value())
    log_marginals_ = log_probabilities(marginal_cache());
  return *log_marginals_;
}

std::vector<double> SymmetricKdppOracle::marginals() const {
  return marginal_cache();
}

double SymmetricKdppOracle::log_joint_marginal(std::span<const int> t) const {
  if (t.size() > k_) return kNegInf;
  if (t.empty()) return 0.0;
  return log_joint_scratch(l_, k_, log_partition(), t);
}

// Wave-scoped incremental query evaluator (oracle.h): answers each query
// against the shared prefix already folded into the view it was created
// from — the base oracle's caches, or the commit-path state's refreshed
// caches — extending by the proposal batch with an incrementally grown
// Cholesky factor. Singleton extensions short-circuit to the cached
// marginals; small extensions resolve *factor-side* through the shared
// power basis (BlockMomentProbe + Newton identities, no eigensolve); the
// rest fall back to a scratch-reusing Schur complement + eigensolve.
class SymmetricKdppOracle::State final : public ConditionalState {
 public:
  State(const Matrix& l, std::size_t k, double log_z,
        const std::vector<double>* log_marginals, const PowerBasis* basis)
      : l_(l), k_(k), log_z_(log_z), log_marginals_(log_marginals),
        basis_(basis), chol_(k) {}

  [[nodiscard]] double log_joint(std::span<const int> t) override {
    const std::size_t tsize = t.size();
    const std::size_t n = l_.rows();
    if (tsize > k_) return kNegInf;
    if (tsize == 0) return 0.0;
    for (const int i : t)
      check_arg(i >= 0 && static_cast<std::size_t>(i) < n,
                "log_joint: index out of range");
    if (tsize == 1 && log_z_ != kNegInf && log_marginals_ != nullptr)
      return (*log_marginals_)[static_cast<std::size_t>(t[0])];
    // Incremental Cholesky of L_T, one bordered row per element; a
    // non-PD extension means P[T ⊆ S] = 0 (duplicates land here too).
    // The threshold is seeded with the whole block's largest diagonal so
    // the singularity verdict matches the from-scratch cholesky(L_T)
    // exactly, independent of the batch's element order.
    double max_diag = 0.0;
    for (const int i : t)
      max_diag = std::max(max_diag, std::abs(l_(static_cast<std::size_t>(i),
                                               static_cast<std::size_t>(i))));
    chol_.clear(max_diag);
    row_.resize(tsize);
    for (std::size_t r = 0; r < tsize; ++r) {
      const auto tr = static_cast<std::size_t>(t[r]);
      for (std::size_t c = 0; c <= r; ++c)
        row_[c] = l_(tr, static_cast<std::size_t>(t[c]));
      if (!chol_.append(std::span<const double>(row_.data(), r + 1)))
        return kNegInf;
    }
    const double log_det_t = chol_.log_det();
    if (tsize == k_) return log_det_t - log_z_;
    // Factor-side tail: downdate the shared power basis through the
    // already-built block factor and recover e_{k-t} by Newton's
    // identities — no reduced matrix, no eigensolve. Gated by the basis'
    // own Newton depth (a downdate deeper than it is not observed to pass
    // the guards, so that probe is not built), the cost heuristic (probe
    // = |T|(k-|T|) matvecs vs one n^3 eigensolve) and the conditioning
    // guards; any trip falls through to the spectral path, which also
    // owns the exact rank-deficiency (-inf) semantics.
    const std::size_t vmax = k_ - tsize;
    if (basis_ != nullptr && vmax <= basis_->depth && tsize * vmax <= 2 * n) {
      probe_.build(l_, basis_->scale, t, chol_, vmax);
      probe_.downdated_traces(basis_->traces, basis_->traces_abs, vmax,
                              traces_, traces_abs_);
      // The failpoint forces the cancellation guard's fallback branch —
      // the spectral path below, which is exact — so recovery tests can
      // exercise it on well-conditioned kernels.
      if (newton_depth(traces_, traces_abs_, vmax) == vmax &&
          !failpoint("symmetric.query.guard")) {
        const NewtonEsp ne = esp_from_power_traces(traces_, vmax);
        const double tail = std::log(ne.e[vmax]) +
                            static_cast<double>(vmax) * basis_->log_scale;
        return log_det_t + tail - log_z_;
      }
    }
    // e_{k-t} of the conditional spectrum, via the already-built factor.
    complement_into(t, n);
    schur_complement_sym_into(l_, keep_, t, chol_, y_, reduced_);
    lambda_ = symmetric_eigenvalues(reduced_);
    clamp_spectrum_to_rank(lambda_);
    const auto log_e = log_esp(lambda_, k_ - tsize);
    const double tail = log_e[k_ - tsize];
    if (tail == kNegInf) return kNegInf;
    return log_det_t + tail - log_z_;
  }

 private:
  // complement_indices into reused storage (t is distinct by the time the
  // Cholesky of L_T succeeded).
  void complement_into(std::span<const int> t, std::size_t n) {
    mask_.assign(n, 0);
    for (const int i : t) mask_[static_cast<std::size_t>(i)] = 1;
    keep_.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (mask_[i] == 0) keep_.push_back(static_cast<int>(i));
  }

  const Matrix& l_;
  std::size_t k_;
  double log_z_;
  const std::vector<double>* log_marginals_;
  const PowerBasis* basis_;
  IncrementalCholesky chol_;
  BlockMomentProbe probe_;
  std::vector<double> traces_;
  std::vector<double> traces_abs_;
  std::vector<double> row_;
  std::vector<char> mask_;
  std::vector<int> keep_;
  std::vector<double> y_;
  std::vector<double> lambda_;
  Matrix reduced_;
};

std::unique_ptr<ConditionalState> SymmetricKdppOracle::make_conditional_state()
    const {
  const double log_z = log_partition();
  const std::vector<double>* lm =
      log_z != kNegInf ? &log_marginal_cache() : nullptr;
  return std::make_unique<State>(l_, k_, log_z, lm, &power_basis());
}

// ---- the commit path (DESIGN.md §2 conventions 7 and 9) ----
//
// One long-lived conditional: `commit(batch)` folds the accepted batch
// into the state in place — the batch's bordered Cholesky rows are
// appended to the persistent factors, the conditional ensemble is updated
// by the half-solve Schur complement on reused buffers, and the counting
// caches are refreshed *factor-natively*: the power-trace / diagonal-
// moment basis is downdated through the accepted block's factor
// (BlockMomentProbe), e_j recovered by Newton's identities, and the
// marginal vector by the adjugate expansion — no per-round eigensolve.
// Cancellation monitors ride every quantity; a guard trip (or eliminated-
// row drift past its bound) forces one spectral refresh, which also
// reseeds the basis from the clamped spectrum. Until the first commit
// every query reads the base oracle's shared caches, so a session that
// primes the base once amortizes the O(n^3) spectral preprocessing across
// every draw.
class SymmetricKdppOracle::Committed final : public CommittedOracle {
 public:
  explicit Committed(const SymmetricKdppOracle& base)
      : base_(&base), k_cur_(base.k_) {
    base_chol_.reserve(base.k_);
    reset();
  }

  void commit(std::span<const int> batch, double /*log_joint*/) override {
    const std::size_t tsize = batch.size();
    if (tsize == 0) return;
    check_arg(tsize <= k_cur_, "commit: |batch| exceeds k");
    const Matrix& src = ensemble();
    const std::size_t n = src.rows();
    for (const int i : batch)
      check_arg(i >= 0 && static_cast<std::size_t>(i) < n,
                "commit: index out of range");
    // Factor the elimination block of the *current* conditional — the
    // accepted trial's bordered rows, the same arithmetic the query state
    // used to answer it. This validates the batch (P[batch ⊆ S] > 0)
    // before anything else mutates, so a throw here leaves the state
    // exactly as it was.
    check_numeric(!failpoint("symmetric.commit.pivot"),
                  "commit: injected pivot failure "
                  "[failpoint symmetric.commit.pivot]");
    double max_diag = 0.0;
    for (const int i : batch)
      max_diag = std::max(max_diag, std::abs(src(static_cast<std::size_t>(i),
                                                 static_cast<std::size_t>(i))));
    elim_chol_.clear(max_diag);
    row_.resize(tsize);
    for (std::size_t r = 0; r < tsize; ++r) {
      const auto tr = static_cast<std::size_t>(batch[r]);
      for (std::size_t c = 0; c <= r; ++c)
        row_[c] = src(tr, static_cast<std::size_t>(batch[c]));
      check_numeric(
          elim_chol_.append(std::span<const double>(row_.data(), r + 1)),
          "commit: conditioning on a probability-zero event");
    }
    // Grow the committed base-prefix factor (chol of L_base[T, T], one
    // bordered row per accepted element, in commit order). Kept behind
    // commit_prefix() so log_committed_mass() stays O(1); a numerically
    // borderline block only disables the diagnostic, never the commit.
    if (base_ok_) {
      const Matrix& lb = base_->l_;
      for (std::size_t r = 0; r < tsize && base_ok_; ++r) {
        const auto br = static_cast<std::size_t>(
            ids_[static_cast<std::size_t>(batch[r])]);
        row_.resize(base_chol_.size() + 1);
        for (std::size_t c = 0; c < committed_ids_.size(); ++c)
          row_[c] = lb(br, static_cast<std::size_t>(committed_ids_[c]));
        for (std::size_t c = 0; c < r; ++c)
          row_[committed_ids_.size() + c] =
              lb(br, static_cast<std::size_t>(
                         ids_[static_cast<std::size_t>(batch[c])]));
        row_[base_chol_.size()] = lb(br, br);
        base_ok_ = base_chol_.append(row_);
      }
      if (base_ok_) {
        base_chol_.commit_prefix();
      } else {
        base_chol_.truncate();  // drop this batch's partial rows
      }
    }
    // The kept rows, ascending: the conditional's index set.
    mask_.assign(n, 0);
    for (const int i : batch) mask_[static_cast<std::size_t>(i)] = 1;
    keep_.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (mask_[i] == 0) keep_.push_back(static_cast<int>(i));
    // Stage the factor-native moment downdate against the pre-commit
    // ensemble (the probe reads `src`, which the swap below retires).
    const std::size_t k_next = k_cur_ - tsize;
    std::optional<NewtonEsp> fast;
    if (k_next > 0) fast = stage_downdate(src, batch, k_next);
    // Condition in place by the half-solve Schur complement on
    // persistent scratch.
    schur_complement_sym_into(src, keep_, batch, elim_chol_, y_, next_);
    std::swap(m_, next_);
    // Record the accepted ids in batch order — the same order their
    // bordered rows joined the committed factor. Then re-index: delete +
    // compact, order preserved (condition() semantics).
    for (const int b : batch)
      committed_ids_.push_back(ids_[static_cast<std::size_t>(b)]);
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask_[i] == 0) ids_[w++] = ids_[i];
    ids_.resize(w);
    k_cur_ = k_next;
    ++rounds_;
    if (k_cur_ == 0) {
      trivial_refresh();
    } else if (fast.has_value()) {
      adopt_staged_basis();
      finalize_fast(*fast);
    } else {
      spectral_refresh();
    }
  }

  void reset() override {
    k_cur_ = base_->k_;
    rounds_ = 0;
    ids_.clear();
    for (std::size_t i = 0; i < base_->ground_size(); ++i)
      ids_.push_back(static_cast<int>(i));
    committed_ids_.clear();
    base_ok_ = true;
    double max_diag = 0.0;
    for (std::size_t i = 0; i < base_->ground_size(); ++i)
      max_diag = std::max(max_diag, std::abs(base_->l_(i, i)));
    base_chol_.clear(max_diag);
    // The run-fixed moment scale matches the base power basis'
    // construction (same formula over the same diagonal); the basis data
    // itself is populated on first commit, off the base oracle's primed
    // basis. spectral_refreshes_ is deliberately *not* rewound — it is a
    // monotone counter and sessions report per-run deltas.
    basis_ = PowerBasis{};
    basis_.scale = max_diag > 0.0 ? max_diag : 1.0;
    basis_.log_scale = std::log(basis_.scale);
    log_e_.clear();
    eig_.reset();
    esp_.reset();
    marginals_.reset();
    log_marginals_.reset();
  }

  [[nodiscard]] std::size_t committed_count() const override {
    return committed_ids_.size();
  }

  [[nodiscard]] double log_committed_mass() const override {
    if (!base_ok_) return std::numeric_limits<double>::quiet_NaN();
    // Chain rule: P[T ⊆ S] = det(L_T) e_{k-t}(lambda(L^T)) / e_k(lambda).
    return base_chol_.log_det() + log_partition() - base_->log_partition();
  }

  [[nodiscard]] std::size_t spectral_refreshes() const override {
    return spectral_refreshes_;
  }

  [[nodiscard]] std::size_t ground_size() const override {
    return rounds_ == 0 ? base_->ground_size() : m_.rows();
  }
  [[nodiscard]] std::size_t sample_size() const override { return k_cur_; }

  [[nodiscard]] double log_joint_marginal(
      std::span<const int> t) const override {
    if (t.size() > k_cur_) return kNegInf;
    if (t.empty()) return 0.0;
    return log_joint_scratch(ensemble(), k_cur_, log_partition(), t);
  }

  [[nodiscard]] std::vector<double> marginals() const override {
    return marginal_cache();
  }

  [[nodiscard]] std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const override {
    check_arg(t.size() <= k_cur_, "condition: |T| exceeds k");
    const auto result = condition_ensemble(ensemble(), t, /*symmetric=*/true);
    return std::make_unique<SymmetricKdppOracle>(result.reduced,
                                                 k_cur_ - t.size(),
                                                 /*validate=*/false);
  }

  [[nodiscard]] std::unique_ptr<CountingOracle> clone() const override {
    return std::make_unique<SymmetricKdppOracle>(ensemble(), k_cur_,
                                                 /*validate=*/false);
  }

  [[nodiscard]] std::string name() const override { return base_->name(); }

  void prepare_concurrent() const override {
    // Post-commit state is refreshed eagerly by commit() itself; only the
    // base oracle's shared caches are lazy.
    if (rounds_ == 0) base_->prepare_concurrent();
  }

  [[nodiscard]] std::unique_ptr<ConditionalState> make_conditional_state()
      const override {
    const double log_z = log_partition();
    const std::vector<double>* lm =
        log_z != kNegInf ? &log_marginal_cache() : nullptr;
    const PowerBasis* basis =
        rounds_ == 0 ? &base_->power_basis() : &basis_;
    return std::make_unique<State>(ensemble(), k_cur_, log_z, lm, basis);
  }

 private:
  [[nodiscard]] const Matrix& ensemble() const {
    return rounds_ == 0 ? base_->l_ : m_;
  }
  [[nodiscard]] double log_partition() const {
    return rounds_ == 0 ? base_->log_partition() : log_e_[k_cur_];
  }
  [[nodiscard]] const std::vector<double>& marginal_cache() const {
    if (rounds_ == 0) return base_->marginal_cache();
    check_numeric(marginals_.has_value(),
                  "SymmetricKdppOracle: partition function is zero "
                  "(rank of L below k)");
    return *marginals_;
  }
  [[nodiscard]] const std::vector<double>& log_marginal_cache() const {
    if (rounds_ == 0) return base_->log_marginal_cache();
    check_numeric(log_marginals_.has_value(),
                  "SymmetricKdppOracle: partition function is zero "
                  "(rank of L below k)");
    return *log_marginals_;
  }

  // Runs the fast path's checks cheapest first: the current basis' Newton
  // depth against k_next (a downdate deeper than the basis passes its
  // guards is not built), then — over the moment probe of the accepted
  // block's factor — the eliminated rows' residual moments against the
  // drift bound (zero in exact arithmetic, so their magnitude *is* the
  // accumulated factorization drift), the Newton guards on the downdated
  // traces, and the symmetric.commit.guard failpoint. Only when all pass
  // does it stage the diagonal downdate of the kept rows (keep_, already
  // in the conditional's order) and return the Newton ESPs; nullopt means
  // the caller refactorizes spectrally.
  std::optional<NewtonEsp> stage_downdate(const Matrix& src,
                                          std::span<const int> batch,
                                          std::size_t k_next) {
    const PowerBasis& pb = rounds_ == 0 ? base_->power_basis() : basis_;
    if (k_next > pb.depth) return std::nullopt;
    probe_.build(src, pb.scale, batch, elim_chol_, k_next);
    probe_.downdated_traces(pb.traces, pb.traces_abs, k_next, staged_traces_,
                            staged_traces_abs_);
    const std::size_t vcheck = std::min<std::size_t>(2, k_next);
    probe_.downdated_diag(batch, pb.diag, pb.diag_abs, vcheck, staged_diag_,
                          staged_diag_abs_);
    for (std::size_t j = 0; j < staged_diag_.size(); ++j) {
      if (!(std::abs(staged_diag_[j]) <=
            kCommitDriftGuard * staged_diag_abs_[j]))
        return std::nullopt;
    }
    // The failpoint demotes the round to a spectral refresh — the same
    // exact fallback a genuine cancellation-guard trip pays.
    if (newton_depth(staged_traces_, staged_traces_abs_, k_next) < k_next ||
        failpoint("symmetric.commit.guard"))
      return std::nullopt;
    probe_.downdated_diag(keep_, pb.diag, pb.diag_abs, k_next, staged_diag_,
                          staged_diag_abs_);
    return esp_from_power_traces(staged_traces_, k_next);
  }

  // Adopts the staged basis for the new conditional. The scale is fixed
  // per run — the base basis and reset() derive it from the same
  // diagonal — so it carries over unchanged. The staged traces passed
  // the Newton guards at their full length, which is therefore their
  // depth.
  void adopt_staged_basis() {
    basis_.depth = staged_traces_.size();
    basis_.traces.swap(staged_traces_);
    basis_.traces_abs.swap(staged_traces_abs_);
    basis_.diag.swap(staged_diag_);
    basis_.diag_abs.swap(staged_diag_abs_);
  }

  // Factor-native refresh: e_j from the staged Newton ESPs (already
  // guarded), the marginal vector from the adjugate expansion over the
  // downdated diagonal moments. Items whose numerator fails its
  // cancellation floor (small marginals amplify the alternating sum's
  // roundoff) are resolved exactly one by one; more than
  // kMaxMarginalFixups of them — or a non-finite numerator, or the sum
  // rule |sum p - k| — demotes the whole round to a spectral refresh.
  void finalize_fast(const NewtonEsp& ne) {
    const std::size_t n = m_.rows();
    const std::size_t kc = k_cur_;
    std::vector<double> p(n, 0.0);
    fixups_.clear();
    const double ek = ne.e[kc];
    for (std::size_t i = 0; i < n; ++i) {
      double numer = 0.0;
      double numer_abs = 0.0;
      double sign = 1.0;
      for (std::size_t v = 1; v <= kc; ++v) {
        numer += sign * ne.e[kc - v] * basis_.diag[(v - 1) * n + i];
        numer_abs += ne.abs[kc - v] * basis_.diag_abs[(v - 1) * n + i];
        sign = -sign;
      }
      if (!std::isfinite(numer) || !std::isfinite(numer_abs)) {
        spectral_refresh();
        return;
      }
      if (numer >= kMarginalItemGuard * numer_abs) {
        p[i] = std::min(numer / ek, 1.0);
      } else {
        fixups_.push_back(i);
        if (fixups_.size() > kMaxMarginalFixups) {
          spectral_refresh();
          return;
        }
      }
    }
    log_e_.assign(kc + 1, 0.0);
    for (std::size_t j = 1; j <= kc; ++j)
      log_e_[j] =
          std::log(ne.e[j]) + static_cast<double>(j) * basis_.log_scale;
    for (const std::size_t i : fixups_) {
      const int idx = static_cast<int>(i);
      const double lp = log_joint_scratch(m_, kc, log_e_[kc],
                                          std::span<const int>(&idx, 1));
      p[i] = lp == kNegInf ? 0.0 : std::min(std::exp(lp), 1.0);
    }
    double sum = 0.0;
    for (const double v : p) sum += v;
    if (!(std::abs(sum - static_cast<double>(kc)) <=
          kMarginalSumTol * static_cast<double>(kc))) {
      spectral_refresh();
      return;
    }
    eig_.reset();
    esp_.reset();
    marginals_ = std::move(p);
    log_marginals_ = log_probabilities(*marginals_);
  }

  // Full spectral fallback: one eigensolve of the conditional, log e_j
  // from the clamped spectrum's table, marginals from the spectrum, and
  // the moment basis reseeded exactly — the forced refactorization of
  // DESIGN.md §2 convention 9, after which accumulated drift is zero.
  void spectral_refresh() {
    ++spectral_refreshes_;
    eig_ = symmetric_eigen(m_);
    std::vector<double> lambda = eig_->values;
    clamp_spectrum_to_rank(lambda);
    esp_ = LogEspTable(lambda, k_cur_);
    log_e_.resize(k_cur_ + 1);
    for (std::size_t j = 0; j <= k_cur_; ++j) log_e_[j] = esp_->log_e(j);
    seed_basis_from_spectrum(*eig_, lambda, k_cur_, basis_);
    if (log_e_[k_cur_] == kNegInf) {
      // Degenerate conditional: marginal access must keep throwing like
      // the from-scratch resolve would, so the vectors stay unset.
      marginals_.reset();
      log_marginals_.reset();
    } else {
      marginals_ = marginals_from_spectrum(*eig_, *esp_, k_cur_);
      log_marginals_ = log_probabilities(*marginals_);
    }
  }

  // k has been exhausted: e_0 = 1 is the only counting fact left, and
  // every marginal is zero.
  void trivial_refresh() {
    eig_.reset();
    esp_.reset();
    log_e_.assign(1, 0.0);
    basis_.traces.clear();
    basis_.traces_abs.clear();
    basis_.diag.clear();
    basis_.diag_abs.clear();
    basis_.depth = 0;
    marginals_ = std::vector<double>(m_.rows(), 0.0);
    log_marginals_ = log_probabilities(*marginals_);
  }

  const SymmetricKdppOracle* base_;
  std::size_t k_cur_;
  std::size_t rounds_ = 0;
  std::size_t spectral_refreshes_ = 0;
  Matrix m_;                       // conditional ensemble (valid after round 1)
  std::vector<int> ids_;           // current index -> base index
  std::vector<int> committed_ids_; // base ids in commit order
  bool base_ok_ = true;
  IncrementalCholesky base_chol_;  // committed prefix over the base matrix
  IncrementalCholesky elim_chol_;  // per-commit elimination block factor
  PowerBasis basis_;               // factor-native counting basis
  std::vector<double> log_e_;      // log e_j of the conditional, j=0..k_cur_
  std::optional<SymmetricEigen> eig_;  // spectral-fallback caches
  std::optional<LogEspTable> esp_;
  std::optional<std::vector<double>> marginals_;
  std::optional<std::vector<double>> log_marginals_;
  // reused scratch
  BlockMomentProbe probe_;
  std::vector<double> staged_traces_;
  std::vector<double> staged_traces_abs_;
  std::vector<double> staged_diag_;
  std::vector<double> staged_diag_abs_;
  std::vector<std::size_t> fixups_;
  std::vector<double> row_;
  std::vector<char> mask_;
  std::vector<int> keep_;
  std::vector<double> y_;
  Matrix next_;
};

std::unique_ptr<CommittedOracle> SymmetricKdppOracle::make_committed() const {
  return std::make_unique<Committed>(*this);
}

std::unique_ptr<CountingOracle> SymmetricKdppOracle::condition(
    std::span<const int> t) const {
  check_arg(t.size() <= k_, "condition: |T| exceeds k");
  const auto result = condition_ensemble(l_, t, /*symmetric=*/true);
  return std::make_unique<SymmetricKdppOracle>(result.reduced, k_ - t.size(),
                                               /*validate=*/false);
}

std::unique_ptr<CountingOracle> SymmetricKdppOracle::restrict_to(
    std::span<const int> items, std::span<const double> scales) const {
  check_arg(items.size() >= k_, "restrict_to: fewer items than k");
  check_arg(scales.empty() || scales.size() == items.size(),
            "restrict_to: scales/items size mismatch");
  const std::size_t m = items.size();
  for (const int item : items)
    check_arg(item >= 0 && static_cast<std::size_t>(item) < l_.rows(),
              "restrict_to: index out of range");
  Matrix sub(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    const double sa = scales.empty() ? 1.0 : scales[a];
    for (std::size_t b = a; b < m; ++b) {
      const double sb = scales.empty() ? 1.0 : scales[b];
      const double v = sa * sb *
                       l_(static_cast<std::size_t>(items[a]),
                          static_cast<std::size_t>(items[b]));
      sub(a, b) = v;
      sub(b, a) = v;
    }
  }
  return std::make_unique<SymmetricKdppOracle>(std::move(sub), k_,
                                               /*validate=*/false);
}

DistillationProfile SymmetricKdppOracle::distillation_profile() const {
  DistillationProfile profile;
  profile.rank_bound = l_.rows();
  profile.weights.resize(l_.rows());
  for (std::size_t i = 0; i < l_.rows(); ++i) profile.weights[i] = l_(i, i);
  return profile;
}

std::unique_ptr<CountingOracle> SymmetricKdppOracle::clone() const {
  return std::make_unique<SymmetricKdppOracle>(l_, k_, /*validate=*/false);
}

void SymmetricKdppOracle::prepare_concurrent() const {
  (void)eigen();
  (void)esp();
  (void)power_basis();
  // Rank-deficient ensembles (e_k = 0) keep the degenerate from-scratch
  // semantics; marginals would throw, so only prime the feasible case.
  if (log_partition() != kNegInf) (void)log_marginal_cache();
}

}  // namespace pardpp
