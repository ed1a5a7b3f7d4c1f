// Per-layer tracing from outside the library.
//
// TracedOracle and TracedCommitted decorate the public virtual
// CountingOracle / CommittedOracle interface: every call is forwarded
// unchanged to the wrapped object (so samples stay bit-identical), and
// the calls the per-layer metrics need are timed and counted into one
// shared LayerCounters. Oracles the wrapped object hands back
// (restrict_to, make_committed) are wrapped in turn, so a distilled
// draw's restricted oracle and its commit-path state are traced too.
//
// Spectral refreshes are counted from CommittedOracle::spectral_refreshes()
// deltas over each state's lifetime, never from
// SampleDiagnostics::spectral_refreshes: the direct `_on` sampler entry
// points report 0 there even when the state paid refreshes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "distributions/oracle.h"
#include "linalg/matrix.h"

namespace perfbench {

/// Relaxed atomic accumulators; draws on several pool workers share one.
struct LayerCounters {
  std::atomic<std::uint64_t> commit_ns{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> query_many_ns{0};
  std::atomic<std::uint64_t> refreshes{0};
  std::atomic<std::uint64_t> restrict_ns{0};
  std::atomic<std::uint64_t> restrict_calls{0};
  std::atomic<std::uint64_t> partition_ns{0};
  /// Time inside commit-path states built from restricted oracles,
  /// including their construction: the distilled draw's inner sampler.
  std::atomic<std::uint64_t> inner_ns{0};
};

/// Decorates a CountingOracle. Owns the wrapped oracle when constructed
/// from a unique_ptr, borrows it otherwise.
class TracedOracle final : public pardpp::CountingOracle {
 public:
  TracedOracle(const pardpp::CountingOracle& inner, LayerCounters& counters,
               bool restricted = false);
  TracedOracle(std::unique_ptr<pardpp::CountingOracle> owned,
               LayerCounters& counters, bool restricted);

  [[nodiscard]] std::size_t ground_size() const override;
  [[nodiscard]] std::size_t sample_size() const override;
  [[nodiscard]] double log_joint_marginal(
      std::span<const int> t) const override;
  [[nodiscard]] std::vector<double> marginals() const override;
  [[nodiscard]] pardpp::MarginalDraw draw_marginal(
      pardpp::RandomStream& rng) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> condition(
      std::span<const int> t) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> restrict_to(
      std::span<const int> items,
      std::span<const double> scales) const override;
  [[nodiscard]] pardpp::DistillationProfile distillation_profile()
      const override;
  [[nodiscard]] double log_partition() const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> clone() const override;
  [[nodiscard]] std::string name() const override;
  void prepare_concurrent() const override;
  [[nodiscard]] std::unique_ptr<pardpp::ConditionalState>
  make_conditional_state() const override;
  void query_many(std::span<const std::span<const int>> ts,
                  std::span<double> out,
                  const pardpp::ExecutionContext& ctx) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CommittedOracle> make_committed()
      const override;

 private:
  std::unique_ptr<pardpp::CountingOracle> owned_;
  const pardpp::CountingOracle* inner_;
  LayerCounters* counters_;
  bool restricted_;
};

/// Decorates a CommittedOracle (the sampler's run-scoped state).
class TracedCommitted final : public pardpp::CommittedOracle {
 public:
  TracedCommitted(std::unique_ptr<pardpp::CommittedOracle> inner,
                  LayerCounters& counters, bool restricted);
  ~TracedCommitted() override;
  TracedCommitted(const TracedCommitted&) = delete;
  TracedCommitted& operator=(const TracedCommitted&) = delete;

  void commit(std::span<const int> batch, double log_joint) override;
  void reset() override;
  [[nodiscard]] std::size_t committed_count() const override;
  [[nodiscard]] double log_committed_mass() const override;
  [[nodiscard]] std::size_t spectral_refreshes() const override;

  [[nodiscard]] std::size_t ground_size() const override;
  [[nodiscard]] std::size_t sample_size() const override;
  [[nodiscard]] double log_joint_marginal(
      std::span<const int> t) const override;
  [[nodiscard]] std::vector<double> marginals() const override;
  [[nodiscard]] pardpp::MarginalDraw draw_marginal(
      pardpp::RandomStream& rng) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> condition(
      std::span<const int> t) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> restrict_to(
      std::span<const int> items,
      std::span<const double> scales) const override;
  [[nodiscard]] pardpp::DistillationProfile distillation_profile()
      const override;
  [[nodiscard]] double log_partition() const override;
  [[nodiscard]] std::unique_ptr<pardpp::CountingOracle> clone() const override;
  [[nodiscard]] std::string name() const override;
  void prepare_concurrent() const override;
  [[nodiscard]] std::unique_ptr<pardpp::ConditionalState>
  make_conditional_state() const override;
  void query_many(std::span<const std::span<const int>> ts,
                  std::span<double> out,
                  const pardpp::ExecutionContext& ctx) const override;
  [[nodiscard]] std::unique_ptr<pardpp::CommittedOracle> make_committed()
      const override;

 private:
  /// Adds `ns` to the inner-sampler total when this state serves a
  /// restricted oracle.
  void charge_inner(std::uint64_t ns) const;

  std::unique_ptr<pardpp::CommittedOracle> inner_;
  LayerCounters* counters_;
  bool restricted_;
  std::size_t refreshes_at_start_;
};

/// Standalone layer probes: public library calls timed in isolation.
/// Median wall time of symmetric_eigen on `matrix` over `reps` calls, ms.
[[nodiscard]] double eigensolve_ms(const pardpp::Matrix& matrix, int reps);
/// Median wall time of an empty ExecutionContext::for_each_chunk round
/// on a pool of `pool_size` threads, microseconds.
[[nodiscard]] double fork_join_us(std::size_t pool_size, int reps);

}  // namespace perfbench
