// Intermediate sampling (distillation) front end — exact draws whose
// per-draw cost is independent of the ground-set size n (DESIGN.md §2
// convention 8; Anari–Liu–Vuong 2204.02570, Barthelmé–Tremblay–Amblard
// 2210.17358).
//
// The exact samplers pay O(n)-and-worse preprocessing per conditional
// round, which caps practical n at a few thousand. Distillation first
// i.i.d.-downsamples a small candidate pool under per-item weight
// over-estimates read off the ensemble diagonal, runs the existing exact
// sampler on the weight-rescaled restriction to the pool, and
// accepts/rejects on the restricted partition function — and the output
// law is *exactly* the target k-DPP:
//
//   Draw m candidates c_1..c_m i.i.d. ~ q, q_i = w_i / τ (w = ensemble
//   diagonal, τ = Σw), and restrict the ensemble to the c_j with row
//   scales s_j = sqrt(τ / (m w_{c_j})) — so every diagonal entry of the
//   restricted ensemble is exactly τ/m and its trace is exactly τ.
//   Accept the pool with probability Z(C)/M, where Z(C) = e_k(restricted
//   spectrum) and M = C(r,k)(τ/r)^k with r = min(rank_bound, m): by
//   Maclaurin's inequality e_k of any PSD spectrum with at most r nonzero
//   values summing to τ is at most M, so the ratio is a probability for
//   EVERY pool — that is what makes the scheme exact rather than
//   approximate. On acceptance, sample positions J from the restricted
//   k-DPP (law ∝ det of the restricted ensemble block) and output
//   {c_j : j ∈ J}. Marginalizing over pools, the probability of emitting
//   a fixed size-k set S factorizes —
//     P(S) = (1/M) E_C[ Σ_J 1{c_J ≅ S} det(L̃_J) ]
//          = (m!/((m-k)! m^k)) det(L_S) / M  ∝  det(L_S)
//   — because each ordered injection of S into the pool contributes
//   Π_{i∈S} q_i from the proposal times Π_{i∈S} τ/(m w_i) from the row
//   scales, which cancels to m^{-k} independently of S; repeated items
//   yield parallel rows (det 0), so collisions never emit an invalid set.
//   Rejected pools are redrawn, which leaves the conditional law
//   untouched. The acceptance rate is (Π_{j<k}(1 - j/m)) · Z/M: the
//   first factor is the position-collision mass (Ω(1) once m ≳ k²), the
//   second how far the spectrum is from the uniform one Maclaurin is
//   tight on.
//
// Determinism protocol (a per-plan invariant, like the commit path's
// draw protocols): one attempt consumes exactly m+1 uniforms — m
// candidate draws in pool order, then one acceptance uniform (consumed
// even when Z(C) = 0 forces rejection) — and the inner sampler consumes
// its own family protocol only on the accepted pool. Everything is drawn
// from the caller's stream, so SamplerSession's per-draw stream forking
// makes distilled draws bit-reproducible at every pool size.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "distributions/oracle.h"
#include "sampling/diagnostics.h"
#include "support/random.h"

namespace pardpp {

struct DistillOptions {
  /// Routes SamplerSession draws through the distillation front end.
  bool enabled = false;
  /// Candidate-pool size m (0 = auto: max(64, 4k²), the point where the
  /// position-collision factor Π(1 - j/m) stays above ~7/8).
  std::size_t candidate_budget = 0;
  /// Candidate pools proposed per draw before SamplingFailure. The
  /// acceptance rate is ensemble-dependent (near 1 for flat spectra); a
  /// run hitting this bound signals a spectrum distillation fits badly.
  std::size_t max_attempts = 100000;

  /// Throws InvalidArgument naming the offending field. `k` is the
  /// target sample size when known (0 skips the k-relative check): a
  /// candidate budget below k can never seat k distinct items, which
  /// would otherwise surface as guaranteed starvation deep inside a
  /// draw. Called by DistillationPlan's constructor and by
  /// SessionOptions::validate.
  void validate(std::size_t k = 0) const;
};

/// Carries the forensic trail of a distillation run that exhausted
/// max_attempts: `diag.proposals` holds the attempts consumed and
/// `diag.duplicate_rejects` the roundoff-promoted duplicate selections —
/// the acceptance-rate starvation evidence the plain what() string used
/// to discard.
class DistillationStarvation : public SamplingFailure {
 public:
  DistillationStarvation(const std::string& message, SampleDiagnostics diag)
      : SamplingFailure(message), diag(diag) {}

  SampleDiagnostics diag;
};

/// The distillation plan for one base oracle: proposal weights, their
/// cumulative table and the Maclaurin acceptance bound, computed once at
/// session-prime time in O(n) from the oracle's DistillationProfile —
/// never forcing the full-n spectral caches. The tables are immutable
/// after construction; concurrent draws share them read-only.
class DistillationPlan {
 public:
  /// Runs the exact sampler on one accepted restricted oracle,
  /// consuming the draw's stream (SamplerSession passes its kind +
  /// commit/reference dispatch).
  using InnerSampler =
      std::function<SampleResult(const CountingOracle&, RandomStream&)>;

  /// Throws InvalidArgument when the oracle's family does not support
  /// distillation (empty profile).
  DistillationPlan(const CountingOracle& base, DistillOptions options);

  /// One exact draw: propose pools until acceptance, run `inner` on the
  /// accepted restriction, map positions back to ground-set ids.
  /// Diagnostics: proposals = pools proposed, accepted_batches = 1,
  /// plus the inner run's counters. Throws DistillationStarvation
  /// (diagnostics attached) after max_attempts rejected pools.
  [[nodiscard]] SampleResult draw(RandomStream& rng,
                                  const InnerSampler& inner) const;

  [[nodiscard]] std::size_t candidate_budget() const noexcept { return m_; }
  /// log M — the Maclaurin bound every restricted log-partition is
  /// compared against (tests assert log Z(C) <= log M on fuzzed pools).
  [[nodiscard]] double log_accept_bound() const noexcept { return log_m_; }

  /// Draws one candidate pool + its row scales (appended to the cleared
  /// outputs; exactly m_ uniforms) and builds the restricted oracle.
  /// Exposed for the fuzz tests; draw() is the sampling entry point.
  /// Rejects k = 0 plans (no pool exists; draw() no-ops instead).
  [[nodiscard]] std::unique_ptr<CountingOracle> propose(
      RandomStream& rng, std::vector<int>& items,
      std::vector<double>& scales) const;

  /// Inverse-CDF candidate lookup over the full-n cumulative table for
  /// target ∈ [0, τ]. The `target == τ` roundoff fallback clamps to the
  /// last *positive-weight* index — never to a trailing zero-weight item,
  /// whose row scale of 0 would inject a null row the proposal law
  /// assigns probability zero. Exposed for the regression tests.
  [[nodiscard]] std::size_t candidate_index(double target) const;

 private:
  const CountingOracle* base_;
  DistillOptions options_;
  std::size_t k_;
  std::size_t m_;                    // candidate-pool size
  double log_m_;                     // log Maclaurin bound M
  std::vector<double> cumulative_;   // prefix sums of the weights
  std::vector<double> row_scale_;    // sqrt(tau / (m w_i)) per item
  std::size_t last_positive_ = 0;    // last index with w_i > 0
};

}  // namespace pardpp
