// Microbenchmarks of the linear-algebra substrate — the Õ(1)-depth
// "oracle primitives" every PRAM round charges. These calibrate the
// wall-clock cost behind one depth unit at various sizes.
//
// The binary times each dispatched kernel against the scalar arm
// in-process (via ScopedPathOverride, as two arms of bench_util.h's
// run_trials) and writes the series to bench-out/BENCH_linalg_micro.json
// — experiment `linalg_micro` in the DESIGN.md §3 index. A record sets
// "regression": true when the AVX2 arm is active but the lower quartile
// of a headline kernel's (gemm_nt, syrk_ut) per-trial speedup over
// scalar falls under 2x — the floor the dispatch layer is sized for.
// When the scalar arm is active (forced or no AVX2), dispatched ==
// scalar and the ratio is reported as parity, never as a regression.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "linalg/cholesky.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/schur.h"
#include "linalg/simd.h"
#include "linalg/symmetric_eigen.h"
#include "support/random.h"

namespace {

using namespace pardpp;

Matrix psd_fixture(std::size_t n) {
  RandomStream rng(424242);
  return random_psd(n, n, rng, 1e-6);
}

/// Makes the compiler assume `value` is read, so the timed kernel that
/// produced it cannot be optimized away.
void keep(double value) { asm volatile("" : : "g"(value) : "memory"); }

using bench::JsonSeries;

constexpr int kTrials = 9;

/// Per-call times of `fn`, `iters` calls per trial, on two arms: the
/// forced scalar path (arm 0) and the latched dispatch path (arm 1).
template <typename Fn>
bench::Trials kernel_trials(int iters, Fn&& fn) {
  bench::Trials trials = bench::run_trials(2, kTrials, [&](std::size_t arm) {
    std::optional<simd::ScopedPathOverride> scalar;
    if (arm == 0) scalar.emplace(simd::Path::kScalar);
    for (int i = 0; i < iters; ++i) fn();
  });
  trials.per(iters);
  return trials;
}

/// Emits one record of the series and prints the matching table row.
/// `headline` marks the two kernels the >=2x dispatch floor applies to;
/// every other kernel records its speedup against a bound of 0 (no
/// floor).
void record_kernel(JsonSeries& json, bench::Table& table,
                   const char* kernel, std::size_t n, std::size_t d,
                   bool headline, const bench::Trials& trials) {
  const bool gated = headline && simd::active_path() == simd::Path::kAvx2;
  const bench::RatioGate gate = trials.gate(0, 1, gated ? 2.0 : 0.0);
  const bool regression = !gate.pass();
  const bench::ArmTimes& scalar = trials.arms[0];
  const bench::ArmTimes& dispatched = trials.arms[1];
  table.add_row({kernel, bench::fmt_int(n), bench::fmt_int(d),
                 bench::fmt(scalar.median() * 1e3, 2),
                 bench::fmt(dispatched.median() * 1e3, 2),
                 bench::fmt(gate.q1, 2) + "x", bench::fmt(gate.median, 2) + "x",
                 regression ? "REGRESSION" : (gated ? "ok" : "-")});
  JsonSeries::Record record{
      {JsonSeries::text("experiment", "linalg_micro"),
       JsonSeries::text("kernel", kernel), JsonSeries::number("n", n),
       JsonSeries::number("d", d)},
      bench::arm_fields("wall", dispatched),
      bench::gate_fields("speedup", gate),
      bench::trial_fields(trials)};
  for (auto& field : bench::arm_fields("scalar", scalar))
    record.measurement.push_back(std::move(field));
  record.gate.push_back(JsonSeries::boolean("regression", regression));
  json.add_record(std::move(record));
}

/// The scalar-vs-dispatched series at the shapes the samplers actually
/// run: d = 24 feature Grams (syrk_ut / gemm_nt over row counts up to
/// the intermediate-sampling pool), dot at the Cholesky row lengths, and
/// the n = 128 Schur half-solve.
int run_kernel_series() {
  bench::print_header(
      "linalg_micro", "BENCH_linalg_micro.json",
      "runtime-dispatched SIMD kernels hold >=2x over the scalar arm "
      "on the GEMM/SYRK hot paths (parity when scalar is forced)");
  std::printf("dispatch: %s (PARDPP_SIMD=%s)\n", simd::path_name(),
              std::getenv("PARDPP_SIMD") ? std::getenv("PARDPP_SIMD")
                                         : "unset");
  JsonSeries json;
  bench::Table table({"kernel", "n", "d", "scalar_med_us",
                      "dispatched_med_us", "speedup_q1", "speedup_med",
                      "gate"});
  constexpr std::size_t kD = 24;

  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    const int iters = static_cast<int>(16384 / n);
    RandomStream rng(17);
    const Matrix b = random_gaussian(n, kD, rng);
    Matrix g(kD, kD);
    const bench::Trials syrk = kernel_trials(iters, [&] {
      std::fill(g.flat().begin(), g.flat().end(), 0.0);
      sym_rank_k_update(g, 1.0, b.flat().data(), n, kD, kD);
      keep(g(0, 0));
    });
    record_kernel(json, table, "syrk_ut", n, kD, /*headline=*/true, syrk);
  }

  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    const int iters = static_cast<int>(16384 / n);
    RandomStream rng(19);
    const Matrix a = random_gaussian(n, kD, rng);
    const Matrix b = random_gaussian(kD, kD, rng);
    const bench::Trials gemm = kernel_trials(iters, [&] {
      Matrix c = multiply_transposed_b(a, b);
      keep(c(0, 0));
    });
    record_kernel(json, table, "gemm_nt", n, kD, /*headline=*/true, gemm);
  }

  for (const std::size_t n : {std::size_t{24}, std::size_t{128},
                              std::size_t{1024}}) {
    RandomStream rng(23);
    const Matrix a = random_gaussian(2, n, rng);
    const int iters = static_cast<int>(262144 / n);
    const bench::Trials dot = kernel_trials(iters, [&] {
      keep(simd::dot(a.row(0).data(), a.row(1).data(), n));
    });
    record_kernel(json, table, "dot", n, 1, /*headline=*/false, dot);
  }

  {
    // The conditioning half-solve: R^{-1} B for the n = 128 ensemble
    // against a d = 24 feature block (feature_oracle's W solve).
    constexpr std::size_t kN = 128;
    RandomStream rng(29);
    const Matrix a = random_psd(kN, kN, rng, 1e-6);
    IncrementalCholesky chol(kN);
    std::vector<double> row(kN);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c <= r; ++c) row[c] = a(r, c);
      if (!chol.append(std::span<const double>(row.data(), r + 1))) {
        std::printf("! half-solve fixture not PD; skipping\n");
        break;
      }
    }
    if (chol.size() == kN) {
      const Matrix rhs = random_gaussian(kN, kD, rng);
      std::vector<double> work(kN * kD);
      const bench::Trials solve = kernel_trials(128, [&] {
        std::copy(rhs.flat().begin(), rhs.flat().end(), work.begin());
        chol.forward_solve_rows(work.data(), kD, kD);
        keep(work[0]);
      });
      record_kernel(json, table, "forward_solve", kN, kD,
                    /*headline=*/false, solve);
    }
  }

  // The dense kernels of every theorem-41 filtering round: the marginal
  // kernel's eigensolve (values-only in the sampler) and the LU inverses
  // behind marginal_kernel / ensemble_from_kernel. They never dispatch,
  // so both arms run the same code and the speedup column reads parity.
  for (const std::size_t n :
       {std::size_t{96}, std::size_t{128}, std::size_t{144}}) {
    const Matrix a = psd_fixture(n);
    const auto lu = lu_factor(a);
    const bench::Trials eigen = kernel_trials(4, [&] {
      const auto eig = symmetric_eigen(a);
      keep(eig.vectors(0, 0));
    });
    record_kernel(json, table, "symmetric_eigen", n, 1, /*headline=*/false,
                  eigen);
    const bench::Trials values = kernel_trials(4, [&] {
      const auto lambda = symmetric_eigenvalues(a);
      keep(lambda[0]);
    });
    record_kernel(json, table, "symmetric_eigenvalues", n, 1,
                  /*headline=*/false, values);
    const bench::Trials inverse = kernel_trials(4, [&] {
      const Matrix inv = lu.inverse();
      keep(inv(0, 0));
    });
    record_kernel(json, table, "lu_inverse", n, 1, /*headline=*/false,
                  inverse);
  }

  {
    // The symmetric commit's diagonal downdate at a theorem-10 first
    // round's shape: n = 144, an accepted block of s = 6, diagonal
    // moments up to v = 30. Plain loops, so the speedup reads parity;
    // recorded for its cost, not gated.
    constexpr std::size_t kN = 144;
    constexpr std::size_t kS = 6;
    constexpr std::size_t kVmax = 30;
    const Matrix a = psd_fixture(kN);
    double scale = 0.0;
    for (std::size_t i = 0; i < kN; ++i) scale = std::max(scale, a(i, i));
    std::vector<int> elim(kS);
    IncrementalCholesky chol(kS);
    std::vector<double> row;
    for (std::size_t r = 0; r < kS; ++r) {
      elim[r] = static_cast<int>(24 * r + 5);
      row.resize(r + 1);
      for (std::size_t c = 0; c <= r; ++c)
        row[c] = a(static_cast<std::size_t>(elim[r]),
                   static_cast<std::size_t>(elim[c]));
      if (!chol.append(row)) break;
    }
    if (chol.size() == kS) {
      BlockMomentProbe probe;
      probe.build(a, scale, elim, chol, kVmax);
      RandomStream rng(31);
      std::vector<double> base(kVmax * kN);
      for (double& x : base) x = rng.uniform();
      std::vector<int> rows(kN);
      std::iota(rows.begin(), rows.end(), 0);
      std::vector<double> out;
      std::vector<double> out_abs;
      const bench::Trials downdate = kernel_trials(8, [&] {
        probe.downdated_diag(rows, base, base, kVmax, out, out_abs);
        keep(out[0]);
      });
      record_kernel(json, table, "diag_downdate", kN, kS,
                    /*headline=*/false, downdate);
    }
  }

  table.print();
  json.write(bench::bench_out_path("BENCH_linalg_micro.json"));
  return 0;
}

}  // namespace

int main() { return run_kernel_series(); }
