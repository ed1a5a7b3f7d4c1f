#include "sampling/sequential.h"

#include <algorithm>

namespace pardpp {

SampleResult sample_sequential_on(CommittedOracle& state, RandomStream& rng,
                                  const ExecutionContext& ctx) {
  check_arg(state.committed_count() == 0,
            "sample_sequential_on: state not at its base distribution");
  const std::size_t refreshes_before = state.spectral_refreshes();
  SampleResult result;
  IndexTracker tracker(state.ground_size());
  while (state.sample_size() > 0) {
    const std::size_t m = state.ground_size();
    // One parallel round: m counting queries evaluate all marginals.
    ctx.charge(m, m);
    result.diag.rounds += 1;
    result.diag.oracle_calls += m;
    const MarginalDraw draw = state.draw_marginal(rng);
    result.items.push_back(tracker.original(draw.index));
    const std::vector<int> batch = {draw.index};
    state.commit(batch, draw.log_marginal);
    tracker.remove(batch);
  }
  std::sort(result.items.begin(), result.items.end());
  result.diag.spectral_refreshes =
      state.spectral_refreshes() - refreshes_before;
  if (ctx.ledger() != nullptr) result.diag.pram = ctx.ledger()->stats();
  return result;
}

SampleResult sample_sequential(const CountingOracle& mu, RandomStream& rng,
                               const ExecutionContext& ctx) {
  const auto state = mu.make_committed();
  return sample_sequential_on(*state, rng, ctx);
}

}  // namespace pardpp
