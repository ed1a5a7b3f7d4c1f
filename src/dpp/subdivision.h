// Isotropic transformation by subdivision (Definition 30, Prop. 32).
//
// Given mu on ([n] choose k) with marginals p_i, element i is split into
// t_i = ceil(n p_i / (beta k)) copies; a sample of mu_iso is a sample of
// mu with a uniformly random copy chosen per element. The transformation
// flattens the marginal profile (Prop. 32 bounds) while preserving
// entropic independence (Prop. 31), which is what the concentration proof
// of Theorem 29 needs.
//
// Implemented as a *wrapper* around an arbitrary counting oracle: the
// subdivided oracle's queries reduce exactly to base queries —
//   P_iso[i^(j) ∈ S]       = p_i / t_i,
//   P_iso[T' ⊆ S]          = P[originals(T') ⊆ S] / prod t  (distinct
//                            originals; 0 when T' hits one original twice),
// and conditioning on a copy conditions the base on its original while the
// sibling copies stay in the ground set with marginal zero. This covers
// every family (determinantal or not) with no kernel expansion.
#pragma once

#include <memory>

#include "distributions/oracle.h"

namespace pardpp {

class SubdividedOracle final : public CountingOracle {
 public:
  /// Wraps `base` with subdivision parameter `beta` in (0, 1]; smaller
  /// beta means more copies and flatter marginals (the theory takes
  /// sqrt(beta) = eps/(32 k); practice is fine with beta near 1 — see
  /// `bench_subdivision` in DESIGN.md §3, the experiment index).
  SubdividedOracle(std::unique_ptr<CountingOracle> base, double beta);

  [[nodiscard]] std::size_t ground_size() const override {
    return origin_.size();
  }
  [[nodiscard]] std::size_t sample_size() const override {
    return base_->sample_size();
  }
  [[nodiscard]] double log_joint_marginal(std::span<const int> t) const override;
  [[nodiscard]] std::vector<double> marginals() const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> clone() const override;
  [[nodiscard]] std::string name() const override {
    return "subdivided(" + base_->name() + ")";
  }
  void prepare_concurrent() const override { base_->prepare_concurrent(); }

  /// Base element (current base indexing) behind copy `c`; -1 for dead
  /// copies (their original was conditioned away through a sibling).
  [[nodiscard]] int origin_of(int c) const {
    return origin_[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] const CountingOracle& base() const { return *base_; }

 private:
  SubdividedOracle() = default;

  std::unique_ptr<CountingOracle> base_;
  double beta_ = 1.0;
  std::vector<int> origin_;          // copy -> base index or -1 (dead)
  std::vector<int> copies_;          // base index -> t_i
  std::vector<double> base_marginals_;
};

}  // namespace pardpp
