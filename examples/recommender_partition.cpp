// Diverse recommendation slates under category quotas — Partition-DPPs
// (Definition 7, [Cel+16]).
//
// A catalog of items in three categories (say movies / shows / docs) with
// per-item quality scores and feature-based similarity; the product slate
// must contain exactly (3, 2, 1) items of each category. We sample the
// partition-constrained DPP with the entropic batched sampler (Theorem 9)
// and contrast against quality-greedy selection.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "pardpp.h"

namespace {

using namespace pardpp;

const char* kCategoryNames[] = {"movie", "show", "doc"};

}  // namespace

int main() {
  RandomStream rng(11);
  const std::size_t per_category = 12;
  const std::size_t n = 3 * per_category;
  std::vector<int> category(n);
  for (std::size_t i = 0; i < n; ++i)
    category[i] = static_cast<int>(i / per_category);

  // Features: category-correlated embeddings; quality: random boosts.
  Matrix features(n, 6);
  std::vector<double> quality(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 6; ++d)
      features(i, d) =
          rng.normal() + (d == static_cast<std::size_t>(category[i]) ? 2.0 : 0.0);
    quality[i] = 0.5 + rng.uniform() * 1.5;
  }
  // Quality-modulated similarity kernel: L_ij = q_i q_j S_ij
  // (the classic "quality x diversity" decomposition).
  Matrix similarity = rbf_kernel(features, 2.0);
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      l(i, j) = quality[i] * quality[j] * similarity(i, j);
  for (std::size_t i = 0; i < n; ++i) l(i, i) += 1e-6;

  const std::vector<int> quota = {3, 2, 1};
  const GeneralDppOracle oracle(l, category, quota);

  EntropicOptions options;
  options.c = 0.1;
  options.cap_slack = 3.0;
  std::printf("catalog: %zu items (%zu per category), slate quota 3+2+1\n\n",
              n, per_category);
  for (int slate_id = 0; slate_id < 3; ++slate_id) {
    const auto slate = sample_entropic(oracle, rng, {}, options);
    std::printf("slate %d (%zu rounds, acceptance %.2f): ", slate_id + 1,
                slate.diag.rounds, slate.diag.acceptance_rate());
    for (const int item : slate.items)
      std::printf("%s#%d(q=%.2f) ",
                  kCategoryNames[category[static_cast<std::size_t>(item)]],
                  item, quality[static_cast<std::size_t>(item)]);
    std::printf("\n");
    // Quota check.
    std::vector<int> got(3, 0);
    for (const int item : slate.items)
      ++got[static_cast<std::size_t>(category[static_cast<std::size_t>(item)])];
    std::printf("  quota check: movies %d/3, shows %d/2, docs %d/1\n", got[0],
                got[1], got[2]);
  }

  // Greedy-by-quality always serves the same slate; the DPP rotates
  // through high-volume slates. Compare volume and slate-to-slate churn.
  std::vector<int> greedy;
  for (int cat = 0; cat < 3; ++cat) {
    std::vector<std::pair<double, int>> ranked;
    for (std::size_t i = 0; i < n; ++i)
      if (category[i] == cat)
        ranked.emplace_back(-quality[i], static_cast<int>(i));
    std::sort(ranked.begin(), ranked.end());
    for (int j = 0; j < quota[static_cast<std::size_t>(cat)]; ++j)
      greedy.push_back(ranked[static_cast<std::size_t>(j)].second);
  }
  std::sort(greedy.begin(), greedy.end());
  const double greedy_logvol = signed_log_det(l.principal(greedy)).log_abs;
  double mean_logvol = 0.0;
  double mean_overlap = 0.0;
  std::vector<int> previous;
  const int volume_trials = 20;
  for (int trial = 0; trial < volume_trials; ++trial) {
    const auto slate = sample_entropic(oracle, rng, {}, options);
    mean_logvol += signed_log_det(l.principal(slate.items)).log_abs;
    if (!previous.empty()) {
      int common = 0;
      for (const int a : slate.items)
        for (const int b : previous) common += (a == b);
      mean_overlap += static_cast<double>(common) / 6.0;
    }
    previous = slate.items;
  }
  std::printf(
      "\ngreedy-by-quality: log det(L_S) = %.3f, but serves the *same* "
      "slate forever\npartition-DPP:     mean log det(L_S) = %.3f over %d "
      "slates, mean slate overlap %.0f%%\n",
      greedy_logvol, mean_logvol / volume_trials, volume_trials,
      100.0 * mean_overlap / (volume_trials - 1));
  return 0;
}
