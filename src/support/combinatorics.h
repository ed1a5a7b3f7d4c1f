// Combinatorial helpers: log-factorials, log-binomials, and enumeration of
// fixed-size subsets. The enumeration utilities power the brute-force
// ground-truth distributions used throughout the test suite and the exact
// KL-divergence measurements of bench_lemma36.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/error.h"

namespace pardpp {

/// log(n!) via lgamma.
[[nodiscard]] inline double log_factorial(std::size_t n) noexcept {
#if defined(__GLIBC__) && defined(__USE_MISC)
  // glibc's std::lgamma writes the process-global `signgam` — a data
  // race when oracles evaluate counting queries concurrently. n! is
  // positive, so the sign output of the reentrant variant is discarded.
  // (__USE_MISC is glibc's own gate for the lgamma_r declaration; strict
  // -ansi configurations fall back to std::lgamma below.)
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
#else
  return std::lgamma(static_cast<double>(n) + 1.0);
#endif
}

/// log C(n, k); returns -inf when k > n.
[[nodiscard]] inline double log_binomial(std::size_t n, std::size_t k) noexcept {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

/// Advances `comb` (strictly increasing, values in [0, n)) to the next
/// k-combination in lexicographic order. Returns false after the last one.
[[nodiscard]] inline bool next_combination(std::vector<int>& comb, int n) {
  const int k = static_cast<int>(comb.size());
  int i = k - 1;
  while (i >= 0 && comb[static_cast<std::size_t>(i)] == n - k + i) --i;
  if (i < 0) return false;
  ++comb[static_cast<std::size_t>(i)];
  for (int j = i + 1; j < k; ++j)
    comb[static_cast<std::size_t>(j)] = comb[static_cast<std::size_t>(j - 1)] + 1;
  return true;
}

/// Calls `fn(subset)` for every k-subset of {0,...,n-1} in lexicographic
/// order. Intended for test-scale n only.
inline void for_each_subset(int n, int k,
                            const std::function<void(std::span<const int>)>& fn) {
  check_arg(n >= 0 && k >= 0, "for_each_subset: negative sizes");
  if (k > n) return;
  std::vector<int> comb(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) comb[static_cast<std::size_t>(i)] = i;
  if (k == 0) {
    fn(std::span<const int>{});
    return;
  }
  do {
    fn(std::span<const int>(comb));
  } while (next_combination(comb, n));
}

/// Bidirectional rank/unrank between k-subsets of {0..n-1} and their
/// lexicographic index in [0, C(n,k)). Used to build exact probability
/// tables over a subset domain.
class SubsetIndexer {
 public:
  SubsetIndexer(int n, int k) : n_(n), k_(k) {
    check_arg(n >= 0 && k >= 0 && k <= n, "SubsetIndexer: need 0 <= k <= n");
    // Pascal table of C(i, j) for i <= n, j <= k.
    table_.assign(static_cast<std::size_t>(n + 1),
                  std::vector<double>(static_cast<std::size_t>(k + 1), 0.0));
    for (int i = 0; i <= n; ++i) {
      table_[static_cast<std::size_t>(i)][0] = 1.0;
      for (int j = 1; j <= std::min(i, k); ++j) {
        table_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            table_[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)] +
            table_[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j)];
      }
    }
  }

  /// Number of k-subsets.
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(
        table_[static_cast<std::size_t>(n_)][static_cast<std::size_t>(k_)]);
  }

  /// Lexicographic rank of a strictly increasing subset.
  [[nodiscard]] std::size_t rank(std::span<const int> subset) const {
    check_arg(static_cast<int>(subset.size()) == k_, "rank: wrong subset size");
    double r = 0.0;
    int prev = -1;
    for (int j = 0; j < k_; ++j) {
      const int x = subset[static_cast<std::size_t>(j)];
      check_arg(x > prev && x < n_, "rank: subset not increasing in range");
      for (int v = prev + 1; v < x; ++v) {
        r += choose(n_ - 1 - v, k_ - 1 - j);
      }
      prev = x;
    }
    return static_cast<std::size_t>(r);
  }

  /// Inverse of rank().
  [[nodiscard]] std::vector<int> unrank(std::size_t index) const {
    std::vector<int> subset(static_cast<std::size_t>(k_));
    double r = static_cast<double>(index);
    int v = 0;
    for (int j = 0; j < k_; ++j) {
      while (true) {
        const double block = choose(n_ - 1 - v, k_ - 1 - j);
        if (r < block) break;
        r -= block;
        ++v;
      }
      subset[static_cast<std::size_t>(j)] = v;
      ++v;
    }
    return subset;
  }

 private:
  [[nodiscard]] double choose(int n, int k) const {
    if (k < 0 || n < 0 || k > n) return 0.0;
    return table_[static_cast<std::size_t>(n)][static_cast<std::size_t>(k)];
  }

  int n_;
  int k_;
  std::vector<std::vector<double>> table_;
};

}  // namespace pardpp
