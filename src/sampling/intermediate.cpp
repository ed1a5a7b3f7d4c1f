#include "sampling/intermediate.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/combinatorics.h"
#include "support/failpoint.h"

namespace pardpp {

void DistillOptions::validate(std::size_t k) const {
  check_arg(max_attempts != 0,
            "DistillOptions::max_attempts: must be positive (every draw "
            "proposes at least one candidate pool)");
  if (candidate_budget != 0 && k != 0) {
    check_arg(candidate_budget >= k,
              "DistillOptions::candidate_budget: " +
                  std::to_string(candidate_budget) +
                  " cannot seat a sample of size " + std::to_string(k) +
                  " (every pool would starve)");
  }
}

DistillationPlan::DistillationPlan(const CountingOracle& base,
                                   DistillOptions options)
    : base_(&base), options_(options), k_(base.sample_size()) {
  options_.validate(k_);
  const DistillationProfile profile = base.distillation_profile();
  check_arg(!profile.weights.empty(),
            "DistillationPlan: family " + base.name() +
                " does not support distillation");
  check_arg(profile.weights.size() == base.ground_size(),
            "DistillationPlan: profile size mismatch");
  // An understated rank bound would shrink the Maclaurin bound below
  // real restricted partition functions and silently bias the output
  // law — the one profile mistake exactness cannot survive.
  check_arg(profile.rank_bound >= k_,
            "DistillationPlan: profile rank_bound below k");
  m_ = options_.candidate_budget != 0
           ? options_.candidate_budget
           : std::max<std::size_t>(64, 4 * k_ * k_);
  check_arg(m_ >= k_, "DistillationPlan: candidate budget below k");

  double tau = 0.0;
  cumulative_.resize(profile.weights.size());
  for (std::size_t i = 0; i < profile.weights.size(); ++i) {
    const double w = profile.weights[i];
    check_arg(w >= 0.0, "DistillationPlan: negative weight");
    tau += w;
    cumulative_[i] = tau;
    if (w > 0.0) last_positive_ = i;
  }
  check_arg(k_ == 0 || tau > 0.0, "DistillationPlan: all weights zero");
  row_scale_.resize(profile.weights.size());
  const double md = static_cast<double>(m_);
  for (std::size_t i = 0; i < profile.weights.size(); ++i) {
    const double w = profile.weights[i];
    row_scale_[i] = w > 0.0 ? std::sqrt(tau / (md * w)) : 0.0;
  }

  // log M = log C(r, k) + k log(tau / r): Maclaurin's bound on e_k of a
  // PSD spectrum with at most r nonzero values summing to tau (maximized
  // at the uniform spectrum). r < k means no restriction can carry mass;
  // the base constructor checks already exclude that, but keep log M
  // finite so the failure mode is max_attempts, not NaN.
  const std::size_t rank_r =
      std::max<std::size_t>(std::min(profile.rank_bound, m_), k_);
  log_m_ =
      k_ == 0
          ? 0.0
          : log_binomial(rank_r, k_) +
                static_cast<double>(k_) *
                    (std::log(tau) - std::log(static_cast<double>(rank_r)));
}

std::size_t DistillationPlan::candidate_index(double target) const {
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
  // target == tau at roundoff: clamp to the last positive-weight index —
  // trailing zero-weight items share the final cumulative value but have
  // row_scale_ == 0, and emitting one would inject a null row the
  // proposal law assigns probability zero.
  if (it == cumulative_.end()) return last_positive_;
  return static_cast<std::size_t>(it - cumulative_.begin());
}

std::unique_ptr<CountingOracle> DistillationPlan::propose(
    RandomStream& rng, std::vector<int>& items,
    std::vector<double>& scales) const {
  check_arg(k_ > 0,
            "DistillationPlan::propose: k == 0 has no candidate pool "
            "(draw() returns the empty sample without proposing)");
  items.clear();
  scales.clear();
  items.reserve(m_);
  scales.reserve(m_);
  const double tau = cumulative_.back();
  for (std::size_t j = 0; j < m_; ++j) {
    const std::size_t i = candidate_index(rng.uniform() * tau);
    items.push_back(static_cast<int>(i));
    scales.push_back(row_scale_[i]);
  }
  return base_->restrict_to(items, scales);
}

SampleResult DistillationPlan::draw(RandomStream& rng,
                                    const InnerSampler& inner) const {
  if (k_ == 0) return {};
  std::vector<int> items;
  std::vector<double> scales;
  std::size_t duplicate_rejects = 0;
  for (std::size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    const auto restricted = propose(rng, items, scales);
    const double log_z = restricted->log_partition();
    // The acceptance uniform is consumed on every attempt (convention in
    // the header), so the stream position after a rejection does not
    // depend on why the pool was rejected.
    const double u = rng.uniform();
    // Injected rejection AFTER the acceptance uniform is consumed: the
    // stream protocol is preserved, and a rejected-and-redrawn pool
    // leaves the output law untouched (the exactness argument in the
    // header) — the one fault class whose injection is law-invariant at
    // any rate, which is what lets the CI fault leg run the statistical
    // harness with this site armed.
    if (failpoint("distill.accept")) continue;
    if (u <= 0.0 || std::log(u) >= log_z - log_m_) continue;
    SampleResult result = inner(*restricted, rng);
    result.diag.proposals += attempt + 1;
    result.diag.accepted_batches += 1;
    for (int& item : result.items)
      item = items[static_cast<std::size_t>(item)];
    std::sort(result.items.begin(), result.items.end());
    const bool distinct =
        std::adjacent_find(result.items.begin(), result.items.end()) ==
        result.items.end();
    // Parallel rows make duplicate selection a probability-zero event;
    // reaching one means roundoff promoted an exactly-null cell, which
    // the family tolerances treat as a rejection, not a sample.
    if (!distinct) {
      ++duplicate_rejects;  // survives into the returned draw's counters
      continue;
    }
    result.diag.duplicate_rejects += duplicate_rejects;
    return result;
  }
  SampleDiagnostics diag;
  diag.proposals = options_.max_attempts;
  diag.duplicate_rejects = duplicate_rejects;
  throw DistillationStarvation(
      "DistillationPlan: no candidate pool accepted within max_attempts "
      "(attempts=" +
          std::to_string(options_.max_attempts) +
          ", duplicate_rejects=" + std::to_string(duplicate_rejects) +
          ", candidate_budget=" + std::to_string(m_) +
          "; spectrum far from the Maclaurin-tight uniform case — raise "
          "candidate_budget)",
      diag);
}

}  // namespace pardpp
