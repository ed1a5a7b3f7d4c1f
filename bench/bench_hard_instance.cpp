// EXP-S7 — §7 hard instance: the limits of batched rejection sampling.
//
// Three measurements on the paired distribution (eq. (5)):
//  (a) P[a mu_l draw has >= t duplicates] = (Theta(l^2/k))^t — the
//      combinatorial law behind the lower bound;
//  (b) the likelihood ratio a batch with t duplicates forces:
//      ~ (n/k)^t, so any polynomial machine budget n^B caps t at O(B);
//  (c) end-to-end depth scaling of the entropic sampler on the instance,
//      driven to k = 4096 (the closed-form oracle makes large k cheap),
//      showing rounds ~ k^{1/2+c} between sqrt(k) and k.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "distributions/hard_instance.h"
#include "sampling/entropic.h"
#include "sampling/sequential.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

// Empirical P[draw from mu_l has >= 1 duplicate pair] by simulating the
// down operator directly.
double duplicate_probability(std::size_t n, std::size_t k, std::size_t l,
                             RandomStream& rng, std::size_t trials = 20000) {
  std::vector<int> pairs(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) pairs[i] = static_cast<int>(i);
  std::size_t hits = 0;
  std::vector<int> elements;
  std::vector<bool> seen(n / 2);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    rng.shuffle(pairs);
    elements.clear();
    for (std::size_t i = 0; i < k / 2; ++i) {
      elements.push_back(2 * pairs[i]);
      elements.push_back(2 * pairs[i] + 1);
    }
    rng.shuffle(elements);
    std::fill(seen.begin(), seen.end(), false);
    bool dup = false;
    for (std::size_t i = 0; i < l && !dup; ++i) {
      const auto pair_id = static_cast<std::size_t>(elements[i] / 2);
      dup = seen[pair_id];
      seen[pair_id] = true;
    }
    hits += dup ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

void duplicate_law() {
  print_header("EXP-S7a", "§7 duplicate law",
               "P[mu_l draw has a duplicate pair] ~ l^2/k: constant at "
               "l = sqrt(k), ->1 for l >> sqrt(k), ->0 for l << sqrt(k)");
  Table table({"k", "l", "l^2/k", "P[duplicate]", "1-exp(-l^2/(2k))"});
  RandomStream rng(95001);
  const std::size_t n_over_k = 4;
  for (const std::size_t k : {64u, 256u, 1024u}) {
    const std::size_t n = n_over_k * k;
    const auto sqrt_k = static_cast<std::size_t>(std::sqrt(k));
    for (const std::size_t l :
         {sqrt_k / 2, sqrt_k, 2 * sqrt_k, 4 * sqrt_k}) {
      if (l == 0 || l > k) continue;
      const double measured = duplicate_probability(n, k, l, rng);
      const double ratio = static_cast<double>(l * l) /
                           static_cast<double>(k);
      table.add_row({fmt_int(k), fmt_int(l), fmt(ratio, 2), fmt(measured, 4),
                     fmt(1.0 - std::exp(-ratio / 2.0), 4)});
    }
  }
  table.print();
}

void ratio_blowup() {
  print_header("EXP-S7b", "§7 likelihood-ratio blowup",
               "a batch containing t full pairs forces acceptance ratio "
               "~ (n/k)^t: polynomially many machines (n^B) only absorb "
               "t = O(B) duplicates, forcing l <= k^{1/2-c}");
  Table table({"n", "k", "t_pairs", "log_ratio", "t*log(n/k)"});
  const std::size_t n = 1024;
  const std::size_t k = 256;
  const HardInstanceOracle oracle(n, k);
  const auto p = oracle.marginals();
  for (const std::size_t t_pairs : {1u, 2u, 3u, 4u}) {
    // Batch = t_pairs full pairs: T = {0,1,2,3,...}.
    std::vector<int> batch;
    for (std::size_t i = 0; i < t_pairs; ++i) {
      batch.push_back(static_cast<int>(2 * i));
      batch.push_back(static_cast<int>(2 * i + 1));
    }
    double log_falling = 0.0;
    for (std::size_t r = 0; r < batch.size(); ++r)
      log_falling += std::log(static_cast<double>(k - r));
    double log_proposal = 0.0;
    for (const int i : batch)
      log_proposal += std::log(p[static_cast<std::size_t>(i)] /
                               static_cast<double>(k));
    const double log_ratio =
        oracle.log_joint_marginal(batch) - log_falling - log_proposal;
    table.add_row({fmt_int(n), fmt_int(k), fmt_int(t_pairs),
                   fmt(log_ratio, 3),
                   fmt(static_cast<double>(t_pairs) *
                           std::log(static_cast<double>(n) /
                                    static_cast<double>(k)),
                       3)});
  }
  table.print();
}

void depth_scaling() {
  print_header("EXP-S7c", "Theorem 29 depth law at scale",
               "entropic sampler rounds on the hard instance: between "
               "2 sqrt(k) and k, tracking ~ k^{1/2+c} (c = 0.25); the "
               "closed-form oracle lets k reach 4096");
  Table table({"k", "n", "batch_l", "rounds", "2sqrt(k)", "k^{0.75}", "k",
               "acceptance", "wall_ms"});
  RandomStream rng(95002);
  for (const std::size_t k : {64u, 256u, 1024u, 4096u}) {
    const std::size_t n = 4 * k;
    const HardInstanceOracle oracle(n, k);
    EntropicOptions options;
    options.c = 0.25;
    options.cap_slack = 3.0;
    options.machine_cap = 1u << 18;
    Timer timer;
    const auto result = sample_entropic(oracle, rng, {}, options);
    const double ms = timer.millis();
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(std::pow(static_cast<double>(k), 0.25))));
    table.add_row({fmt_int(k), fmt_int(n), fmt_int(batch),
                   fmt_int(result.diag.rounds),
                   fmt(2.0 * std::sqrt(static_cast<double>(k)), 0),
                   fmt(std::pow(static_cast<double>(k), 0.75), 0),
                   fmt_int(k), fmt(result.diag.acceptance_rate()),
                   fmt(ms, 1)});
  }
  table.print();
}

}  // namespace

int main() {
  duplicate_law();
  ratio_blowup();
  depth_scaling();
  return 0;
}
