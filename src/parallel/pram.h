// PRAM cost model.
//
// The paper states its results in the PRAM model: parallel *time* is the
// number of sequential rounds of Õ(1)-cost primitives (counting-oracle
// queries, NC linear algebra), and the machine bound is the width of the
// widest round. The host machine's core count is irrelevant to those
// quantities, so pardpp tracks them explicitly: every sampler charges its
// logical rounds to a `PramLedger`, and benchmarks report the ledger.
//
// Conventions (documented in DESIGN.md §1):
//  * one counting-oracle query (or batch of independent queries issued
//    together) = one round of depth 1;
//  * a batch of w independent queries occupies w machines in that round;
//  * recursive branches that run concurrently contribute the *maximum* of
//    their depths and the *sum* of their work (fork-join semantics).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace pardpp {

/// Aggregate PRAM cost of one algorithm execution.
struct PramStats {
  double depth = 0.0;            ///< critical-path length in rounds
  double work = 0.0;             ///< total primitive invocations
  std::size_t rounds = 0;        ///< number of top-level sequential rounds
  std::size_t max_machines = 1;  ///< width of the widest round
  std::size_t oracle_calls = 0;  ///< counting-oracle queries issued

  /// Sequential composition: this, then `next`.
  void append_sequential(const PramStats& next) {
    depth += next.depth;
    work += next.work;
    rounds += next.rounds;
    max_machines = std::max(max_machines, next.max_machines);
    oracle_calls += next.oracle_calls;
  }

  /// Fork-join composition of concurrently executing children.
  void append_parallel(std::span<const PramStats> children) {
    double max_depth = 0.0;
    std::size_t round_max = 0;
    std::size_t machines = 0;
    for (const auto& child : children) {
      max_depth = std::max(max_depth, child.depth);
      round_max = std::max(round_max, child.rounds);
      machines += child.max_machines;
      work += child.work;
      oracle_calls += child.oracle_calls;
    }
    depth += max_depth;
    rounds += round_max;
    max_machines = std::max(max_machines, machines);
  }
};

/// Mutable ledger a sampler charges its rounds to, carried by the
/// ExecutionContext (execution.h). A context without one charges nothing.
class PramLedger {
 public:
  /// Charges one parallel round of `machines` independent unit-cost
  /// primitives, `oracle_calls` of which were counting-oracle queries.
  void round(std::size_t machines, std::size_t oracle_calls = 0,
             double depth_cost = 1.0) {
    stats_.depth += depth_cost;
    stats_.rounds += 1;
    stats_.work += static_cast<double>(std::max<std::size_t>(machines, 1));
    stats_.max_machines = std::max(stats_.max_machines, machines);
    stats_.oracle_calls += oracle_calls;
  }

  /// Merges child executions that ran concurrently (fork-join).
  void fork_join(std::span<const PramStats> children) {
    stats_.append_parallel(children);
  }

  /// Merges a child execution that ran sequentially after this one.
  void sequential(const PramStats& child) { stats_.append_sequential(child); }

  [[nodiscard]] const PramStats& stats() const noexcept { return stats_; }

  void reset() noexcept { stats_ = PramStats{}; }

 private:
  PramStats stats_;
};

}  // namespace pardpp
