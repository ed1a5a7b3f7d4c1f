#include "layers.h"

#include <chrono>

#include "linalg/symmetric_eigen.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

void add(std::atomic<std::uint64_t>& counter, std::uint64_t value) {
  counter.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace

// ---- TracedOracle ----

TracedOracle::TracedOracle(const pardpp::CountingOracle& inner,
                           LayerCounters& counters, bool restricted)
    : inner_(&inner), counters_(&counters), restricted_(restricted) {}

TracedOracle::TracedOracle(std::unique_ptr<pardpp::CountingOracle> owned,
                           LayerCounters& counters, bool restricted)
    : owned_(std::move(owned)),
      inner_(owned_.get()),
      counters_(&counters),
      restricted_(restricted) {}

std::size_t TracedOracle::ground_size() const { return inner_->ground_size(); }
std::size_t TracedOracle::sample_size() const { return inner_->sample_size(); }
double TracedOracle::log_joint_marginal(std::span<const int> t) const {
  return inner_->log_joint_marginal(t);
}
std::vector<double> TracedOracle::marginals() const {
  return inner_->marginals();
}
pardpp::MarginalDraw TracedOracle::draw_marginal(
    pardpp::RandomStream& rng) const {
  return inner_->draw_marginal(rng);
}
std::unique_ptr<pardpp::CountingOracle> TracedOracle::condition(
    std::span<const int> t) const {
  return inner_->condition(t);
}

std::unique_ptr<pardpp::CountingOracle> TracedOracle::restrict_to(
    std::span<const int> items, std::span<const double> scales) const {
  const auto start = Clock::now();
  auto restricted = inner_->restrict_to(items, scales);
  add(counters_->restrict_ns, elapsed_ns(start));
  add(counters_->restrict_calls, 1);
  return std::make_unique<TracedOracle>(std::move(restricted), *counters_,
                                        /*restricted=*/true);
}

pardpp::DistillationProfile TracedOracle::distillation_profile() const {
  return inner_->distillation_profile();
}

double TracedOracle::log_partition() const {
  const auto start = Clock::now();
  const double value = inner_->log_partition();
  add(counters_->partition_ns, elapsed_ns(start));
  return value;
}

std::unique_ptr<pardpp::CountingOracle> TracedOracle::clone() const {
  return inner_->clone();
}
std::string TracedOracle::name() const { return inner_->name(); }
void TracedOracle::prepare_concurrent() const { inner_->prepare_concurrent(); }
std::unique_ptr<pardpp::ConditionalState>
TracedOracle::make_conditional_state() const {
  return inner_->make_conditional_state();
}

void TracedOracle::query_many(std::span<const std::span<const int>> ts,
                              std::span<double> out,
                              const pardpp::ExecutionContext& ctx) const {
  const auto start = Clock::now();
  inner_->query_many(ts, out, ctx);
  add(counters_->query_many_ns, elapsed_ns(start));
}

std::unique_ptr<pardpp::CommittedOracle> TracedOracle::make_committed()
    const {
  const auto start = Clock::now();
  auto state = inner_->make_committed();
  if (restricted_) add(counters_->inner_ns, elapsed_ns(start));
  return std::make_unique<TracedCommitted>(std::move(state), *counters_,
                                           restricted_);
}

// ---- TracedCommitted ----

TracedCommitted::TracedCommitted(std::unique_ptr<pardpp::CommittedOracle> inner,
                                 LayerCounters& counters, bool restricted)
    : inner_(std::move(inner)),
      counters_(&counters),
      restricted_(restricted),
      refreshes_at_start_(inner_->spectral_refreshes()) {}

TracedCommitted::~TracedCommitted() {
  add(counters_->refreshes,
      inner_->spectral_refreshes() - refreshes_at_start_);
}

void TracedCommitted::charge_inner(std::uint64_t ns) const {
  if (restricted_) add(counters_->inner_ns, ns);
}

void TracedCommitted::commit(std::span<const int> batch, double log_joint) {
  const auto start = Clock::now();
  inner_->commit(batch, log_joint);
  const std::uint64_t ns = elapsed_ns(start);
  add(counters_->commit_ns, ns);
  add(counters_->commits, 1);
  charge_inner(ns);
}

void TracedCommitted::reset() { inner_->reset(); }
std::size_t TracedCommitted::committed_count() const {
  return inner_->committed_count();
}
double TracedCommitted::log_committed_mass() const {
  return inner_->log_committed_mass();
}
std::size_t TracedCommitted::spectral_refreshes() const {
  return inner_->spectral_refreshes();
}
std::size_t TracedCommitted::ground_size() const {
  return inner_->ground_size();
}
std::size_t TracedCommitted::sample_size() const {
  return inner_->sample_size();
}

double TracedCommitted::log_joint_marginal(std::span<const int> t) const {
  const auto start = Clock::now();
  const double value = inner_->log_joint_marginal(t);
  charge_inner(elapsed_ns(start));
  return value;
}

std::vector<double> TracedCommitted::marginals() const {
  const auto start = Clock::now();
  auto values = inner_->marginals();
  charge_inner(elapsed_ns(start));
  return values;
}

pardpp::MarginalDraw TracedCommitted::draw_marginal(
    pardpp::RandomStream& rng) const {
  const auto start = Clock::now();
  const pardpp::MarginalDraw draw = inner_->draw_marginal(rng);
  charge_inner(elapsed_ns(start));
  return draw;
}

std::unique_ptr<pardpp::CountingOracle> TracedCommitted::condition(
    std::span<const int> t) const {
  return inner_->condition(t);
}
std::unique_ptr<pardpp::CountingOracle> TracedCommitted::restrict_to(
    std::span<const int> items, std::span<const double> scales) const {
  return inner_->restrict_to(items, scales);
}
pardpp::DistillationProfile TracedCommitted::distillation_profile() const {
  return inner_->distillation_profile();
}
double TracedCommitted::log_partition() const {
  return inner_->log_partition();
}
std::unique_ptr<pardpp::CountingOracle> TracedCommitted::clone() const {
  return inner_->clone();
}
std::string TracedCommitted::name() const { return inner_->name(); }
void TracedCommitted::prepare_concurrent() const {
  inner_->prepare_concurrent();
}
std::unique_ptr<pardpp::ConditionalState>
TracedCommitted::make_conditional_state() const {
  return inner_->make_conditional_state();
}

void TracedCommitted::query_many(std::span<const std::span<const int>> ts,
                                 std::span<double> out,
                                 const pardpp::ExecutionContext& ctx) const {
  const auto start = Clock::now();
  inner_->query_many(ts, out, ctx);
  const std::uint64_t ns = elapsed_ns(start);
  add(counters_->query_many_ns, ns);
  charge_inner(ns);
}

std::unique_ptr<pardpp::CommittedOracle> TracedCommitted::make_committed()
    const {
  return inner_->make_committed();
}

// ---- standalone probes ----

double eigensolve_ms(const pardpp::Matrix& matrix, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double start = now_s();
    (void)pardpp::symmetric_eigen(matrix);
    times.push_back((now_s() - start) * 1e3);
  }
  return median(times);
}

double fork_join_us(std::size_t pool_size, int reps) {
  pardpp::ThreadPool pool(pool_size);
  const pardpp::ExecutionContext ctx(&pool, nullptr);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double start = now_s();
    ctx.for_each_chunk(0, pool_size, [](std::size_t, std::size_t) {});
    times.push_back((now_s() - start) * 1e6);
  }
  return median(times);
}

}  // namespace perfbench
