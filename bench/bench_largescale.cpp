// EXP-LS — intermediate-sampling front end at million-item ground sets.
//
// The full-n session path pays the base spectral preprocessing on the
// whole ground set (O(n d²) and n-sized caches per session, O(n d) per
// round), which caps practical n at a few thousand-to-hundred-thousand.
// The distillation front end (DESIGN.md §2 convention 8) pays one O(n d)
// diagonal pass at prime time and then serves draws whose cost is
// independent of n — so an n = 10^6 low-rank ensemble is served in
// milliseconds per draw on this container, while the full-n path's
// per-draw cost is reported by extrapolation and marked estimated.
//
// Contract checks folded into the measurement: distilled samples are
// bit-identical at every pool size and against the condition() reference
// from one seed, and at enumeration scale the distilled output law
// passes a chi-square test against exhaustive enumeration.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "dpp/feature_oracle.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "planar/grid.h"
#include "planar/transfer_current.h"
#include "sampling/session.h"
#include "support/combinatorics.h"
#include "support/random.h"
#include "support/timer.h"

namespace {

using namespace pardpp;
using namespace pardpp::bench;

std::vector<std::vector<int>> items_of(std::vector<SampleResult> results) {
  std::vector<std::vector<int>> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r.items));
  return out;
}

// Shared chi-square machinery: Pearson statistic over ranked subset
// counts with expected-below-5 cells pooled, against the Wilson–Hilferty
// upper quantile at z = 4 (~3e-5 false-alarm rate).
struct ChiSquare {
  double statistic = 0.0;
  double dof = 1.0;
  double threshold = 0.0;
  bool ok = false;
};

ChiSquare chi_square_pooled(const std::vector<double>& expected,
                            const std::vector<double>& counts) {
  ChiSquare out;
  double pooled_expected = 0.0;
  double pooled_observed = 0.0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] < 5.0) {
      pooled_expected += expected[i];
      pooled_observed += counts[i];
      continue;
    }
    const double diff = counts[i] - expected[i];
    out.statistic += diff * diff / expected[i];
    ++cells;
  }
  if (pooled_expected > 0.0 || pooled_observed > 0.0) {
    const double diff = pooled_observed - pooled_expected;
    out.statistic += diff * diff / std::max(pooled_expected, 1.0);
    ++cells;
  }
  out.dof = cells > 1 ? static_cast<double>(cells - 1) : 1.0;
  const double h = 2.0 / (9.0 * out.dof);
  const double cube = 1.0 - h + 4.0 * std::sqrt(h);
  out.threshold = out.dof * cube * cube * cube;
  out.ok = out.statistic < out.threshold;
  return out;
}

// Pearson chi-square of distilled samples against enumeration (cells
// with expected count < 5 pooled, mirroring tests/test_util.h), plus the
// pool-size / reference bit-identity sweep. Returns regression = law or
// identity failure.
bool exactness_block(JsonSeries& json) {
  const std::size_t n = 12;
  const std::size_t d = 4;
  const std::size_t k = 3;
  const std::size_t trials = 3000;
  RandomStream setup(901001);
  const Matrix features = random_gaussian(n, d, setup);
  const Matrix l = multiply_transposed_b(features, features);
  const FeatureKdppOracle oracle(features, k);

  SessionOptions options;
  options.distill.enabled = true;
  SessionOptions reference_options = options;
  reference_options.use_commit = false;
  SamplerSession session(oracle, options);
  SamplerSession reference_session(oracle, reference_options);

  std::vector<std::vector<std::vector<int>>> per_pool;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(901002);
    per_pool.push_back(items_of(session.draw_many(trials, rng, ctx)));
  }
  bool identical = per_pool[1] == per_pool[0] && per_pool[2] == per_pool[0];
  RandomStream reference_rng(901002);
  identical = identical &&
              items_of(reference_session.draw_many(
                  trials, reference_rng, ExecutionContext::serial())) ==
                  per_pool[0];

  // Exact probabilities by enumeration; chi-square with sparse cells
  // pooled at expected < 5.
  const SubsetIndexer indexer(static_cast<int>(n), static_cast<int>(k));
  std::vector<double> log_masses(indexer.count());
  std::vector<double> counts(indexer.count(), 0.0);
  for_each_subset(static_cast<int>(n), static_cast<int>(k),
                  [&](std::span<const int> s) {
                    log_masses[indexer.rank(s)] =
                        signed_log_det(l.principal(s)).log_abs;
                  });
  double log_z = kNegInf;
  for (const double lm : log_masses) log_z = log_add(log_z, lm);
  for (const auto& s : per_pool[0]) counts[indexer.rank(s)] += 1.0;
  std::vector<double> expected(log_masses.size());
  for (std::size_t i = 0; i < log_masses.size(); ++i)
    expected[i] = std::exp(log_masses[i] - log_z) * static_cast<double>(trials);
  const ChiSquare chi = chi_square_pooled(expected, counts);

  Table table({"n", "d", "k", "trials", "chi2", "dof", "threshold",
               "law_ok", "identical"});
  table.add_row({fmt_int(n), fmt_int(d), fmt_int(k), fmt_int(trials),
                 fmt(chi.statistic, 1), fmt(chi.dof, 0),
                 fmt(chi.threshold, 1), chi.ok ? "yes" : "NO",
                 identical ? "yes" : "NO"});
  table.print();
  json.add_record(
      {{JsonSeries::text("experiment", "largescale_exactness"),
        JsonSeries::number("n", n), JsonSeries::number("d", d),
        JsonSeries::number("k", k), JsonSeries::number("trials", trials)},
       {},
       {JsonSeries::number("chi_square", chi.statistic, 2),
        JsonSeries::number("dof", chi.dof, 0),
        JsonSeries::text("identical", identical ? "yes" : "no"),
        JsonSeries::boolean("regression", !chi.ok || !identical)},
       {}});
  return !chi.ok || !identical;
}

// Timed draw_many calls per trial (kDraws draws each).
constexpr int kTrials = 5;

struct ScalePoint {
  std::size_t n = 0;
  double prime_ms = 0.0;
  Trials draws;  // per-draw times of the distilled path
  double accept_rate = 1.0;
  double full_prime_ms = 0.0;
  double full_draw_ms = 0.0;
  bool full_estimated = false;
  bool identical = true;
};

ScalePoint measure_scale(std::size_t n, std::size_t d, std::size_t k,
                         bool full_feasible, const ScalePoint* extrapolate) {
  ScalePoint point;
  point.n = n;
  RandomStream setup(902000 + static_cast<std::uint64_t>(n % 9973));
  Matrix features = random_gaussian(n, d, setup);
  // Move the features in: at n = 10^6 the matrix is the dominant
  // allocation and must not be duplicated.
  const FeatureKdppOracle oracle(std::move(features), k);

  SessionOptions options;
  options.distill.enabled = true;
  Timer prime_timer;
  SamplerSession session(oracle, options);
  point.prime_ms = prime_timer.millis();

  const std::size_t draws = 32;
  const std::uint64_t seed = 902777;
  std::vector<SampleResult> results;
  point.draws = run_trials(1, kTrials, [&](std::size_t) {
    RandomStream rng(seed);
    results = session.draw_many(draws, rng, ExecutionContext::serial());
  });
  point.draws.per(static_cast<double>(draws));
  std::size_t proposals = 0;
  std::size_t accepted = 0;
  for (const auto& r : results) {
    proposals += r.diag.proposals;
    accepted += r.diag.accepted_batches;
  }
  const std::vector<std::vector<int>> reference_items =
      items_of(std::move(results));
  point.accept_rate = proposals == 0
                          ? 1.0
                          : static_cast<double>(accepted) /
                                static_cast<double>(proposals);

  // Determinism: the distilled draw sequence is a function of the seed
  // alone at every pool size.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(seed);
    point.identical =
        point.identical &&
        items_of(session.draw_many(draws, rng, ctx)) == reference_items;
  }

  if (full_feasible) {
    // The full-n session path: base spectral preprocessing (the n x d
    // eigenvector matrix, the n-sized marginal caches) at prime time,
    // O(n d) rounds per draw.
    SessionOptions full_options;
    Timer full_prime_timer;
    SamplerSession full_session(oracle, full_options);
    point.full_prime_ms = full_prime_timer.millis();
    const std::size_t full_draws = 4;
    RandomStream rng(seed);
    Timer timer;
    (void)full_session.draw_many(full_draws, rng, ExecutionContext::serial());
    point.full_draw_ms = timer.millis() / static_cast<double>(full_draws);
  } else {
    // Infeasible at this n on the reference container (the prime alone
    // would materialize two further n x d matrices and run an O(n d²)
    // eigenvector pass); report the linear-in-n extrapolation from the
    // largest measured point, marked estimated.
    point.full_estimated = true;
    const double scale = static_cast<double>(n) /
                         static_cast<double>(extrapolate->n);
    point.full_prime_ms = extrapolate->full_prime_ms * scale;
    point.full_draw_ms = extrapolate->full_draw_ms * scale;
  }
  return point;
}

// Spanning trees through the session layer: uniform-tree law on the 2x3
// grid against enumeration (chi-square + exact marginals vs the
// transfer-current diagonal), and amortized draw throughput on an 8x8
// grid (k = 63 projection DPP on 112 edges, commit path).
bool spanning_tree_block(JsonSeries& json) {
  const PlanarGraph small = grid_graph(2, 3);
  const FeatureKdppOracle small_oracle = spanning_tree_oracle(small);
  const auto trees = enumerate_spanning_trees(small);
  const std::size_t trials = 3000;

  SamplerSession session(small_oracle, SessionOptions{});
  RandomStream rng(904001);
  auto results = session.draw_many(trials, rng, ExecutionContext::serial());
  std::map<std::vector<int>, double> counts;
  for (auto& r : results) counts[std::move(r.items)] += 1.0;
  std::vector<double> expected(trees.size());
  std::vector<double> observed(trees.size());
  bool only_trees = true;
  double seen = 0.0;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    expected[t] =
        static_cast<double>(trials) / static_cast<double>(trees.size());
    const auto it = counts.find(trees[t]);
    observed[t] = it == counts.end() ? 0.0 : it->second;
    seen += observed[t];
  }
  only_trees = seen == static_cast<double>(trials);  // no non-tree sample
  const ChiSquare chi = chi_square_pooled(expected, observed);

  const Matrix t_matrix = transfer_current_matrix(small);
  const auto marginals = small_oracle.marginals();
  double marginal_err = 0.0;
  std::vector<double> tree_freq(small.num_edges(), 0.0);
  for (const auto& tree : trees)
    for (const int e : tree) tree_freq[static_cast<std::size_t>(e)] += 1.0;
  for (std::size_t e = 0; e < small.num_edges(); ++e) {
    const double exact = tree_freq[e] / static_cast<double>(trees.size());
    marginal_err = std::max(marginal_err, std::abs(marginals[e] - exact));
    marginal_err =
        std::max(marginal_err, std::abs(t_matrix(e, e) - exact));
  }
  const bool law_ok = chi.ok && only_trees && marginal_err < 1e-10;

  // Throughput scale: 8x8 grid, k = 63 over 112 edges.
  const PlanarGraph big = grid_graph(8, 8);
  const FeatureKdppOracle big_oracle = spanning_tree_oracle(big);
  Timer prime_timer;
  SamplerSession big_session(big_oracle, SessionOptions{});
  const double prime_ms = prime_timer.millis();
  const std::size_t draws = 16;
  Trials timed = run_trials(1, kTrials, [&](std::size_t) {
    RandomStream rng(904002);
    (void)big_session.draw_many(draws, rng, ExecutionContext::serial());
  });
  timed.per(static_cast<double>(draws));
  const ArmTimes& draw = timed.arms[0];

  Table table({"graph", "edges", "k", "chi2", "threshold", "marginal_err",
               "law_ok", "draw_ms(8x8)", "draw_iqr"});
  table.add_row({"grid2x3/grid8x8", fmt_int(big.num_edges()),
                 fmt_int(big.num_vertices() - 1), fmt(chi.statistic, 1),
                 fmt(chi.threshold, 1), fmt(marginal_err, 12),
                 law_ok ? "yes" : "NO", fmt(draw.median(), 2),
                 fmt(100.0 * draw.iqr() / draw.median(), 0) + "%"});
  table.print();
  JsonSeries::Record record{
      {JsonSeries::text("experiment", "steadystate_spanning_tree"),
       JsonSeries::text("graph", "grid8x8"),
       JsonSeries::number("edges", big.num_edges()),
       JsonSeries::number("k", big.num_vertices() - 1),
       JsonSeries::number("trials", trials)},
      arm_fields("draw", draw),
      {JsonSeries::number("chi_square", chi.statistic, 2),
       JsonSeries::text("law_ok", law_ok ? "yes" : "no"),
       JsonSeries::boolean("regression", !law_ok)},
      trial_fields(timed)};
  record.measurement.push_back(JsonSeries::number("prime_ms", prime_ms, 3));
  json.add_record(std::move(record));
  return !law_ok;
}

}  // namespace

int main() {
  print_header(
      "EXP-LS", "intermediate-sampling front end at n = 10^6",
      "distillation serves exact draws from a million-item low-rank "
      "ensemble in milliseconds per draw (per-draw cost independent of "
      "n), bit-identical at every pool size, chi-square-consistent with "
      "enumeration at small n; the full-n session path is infeasible at "
      "n = 10^6 (estimated row)");
  JsonSeries json;

  std::printf("\n-- exactness at enumeration scale --\n");
  bool any_regression = exactness_block(json);

  const std::size_t d = 24;
  const std::size_t k = 8;
  std::printf("\n-- scaling sweep: d=%zu k=%zu, serial draws --\n", d, k);
  std::vector<ScalePoint> points;
  points.push_back(measure_scale(10000, d, k, /*full_feasible=*/true,
                                 nullptr));
  points.push_back(measure_scale(100000, d, k, /*full_feasible=*/true,
                                 nullptr));
  points.push_back(measure_scale(1000000, d, k, /*full_feasible=*/false,
                                 &points.back()));

  Table table({"n", "prime_ms", "draw_ms", "draw_iqr", "accept",
               "full_prime_ms", "full_draw_ms", "draw_speedup", "identical"});
  for (const ScalePoint& point : points) {
    const ArmTimes& draw = point.draws.arms[0];
    const double speedup = point.full_draw_ms / draw.median();
    const std::string estimate_mark = point.full_estimated ? " (est)" : "";
    table.add_row({fmt_int(point.n), fmt(point.prime_ms, 1),
                   fmt(draw.median(), 3),
                   fmt(100.0 * draw.iqr() / draw.median(), 0) + "%",
                   fmt(point.accept_rate, 2),
                   fmt(point.full_prime_ms, 1) + estimate_mark,
                   fmt(point.full_draw_ms, 2) + estimate_mark,
                   fmt(speedup, 1) + "x",
                   point.identical ? "yes" : "NO"});
    any_regression = any_regression || !point.identical;
    JsonSeries::Record record{
        {JsonSeries::text("experiment", "largescale_distill"),
         JsonSeries::text("family", "feature"),
         JsonSeries::number("n", point.n), JsonSeries::number("d", d),
         JsonSeries::number("k", k)},
        arm_fields("draw", draw),
        {JsonSeries::text("identical", point.identical ? "yes" : "no"),
         JsonSeries::boolean("regression", !point.identical)},
        trial_fields(point.draws)};
    for (auto field :
         {JsonSeries::number("prime_ms", point.prime_ms, 3),
          JsonSeries::number("accept_rate", point.accept_rate, 3),
          JsonSeries::number("full_prime_ms", point.full_prime_ms, 3),
          JsonSeries::number("full_draw_ms", point.full_draw_ms, 3),
          JsonSeries::number("draw_speedup_vs_full", speedup, 1)})
      record.measurement.push_back(std::move(field));
    // An extrapolated full-n figure is marked as such, not measured.
    record.provenance.push_back(
        JsonSeries::boolean("full_estimated", point.full_estimated));
    json.add_record(std::move(record));
  }
  table.print();

  std::printf("\n-- spanning trees via transfer currents --\n");
  any_regression = spanning_tree_block(json) || any_regression;

  if (any_regression)
    std::printf("\n! REGRESSION: distilled law, pool-size identity, or "
                "spanning-tree law gate failed\n");
  json.write(bench_out_path("BENCH_largescale.json"));
  return 0;
}
