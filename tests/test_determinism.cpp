// The ExecutionContext determinism contract: a fixed seed yields the
// byte-identical sample at every pool size, because each logical machine
// draws from a stream forked by index (execution.h conventions), and the
// accepted trial is the lowest-index acceptance regardless of how waves
// land on workers. Plus ThreadSanitizer-targeted stress of parallel_for
// through the batch-oracle path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "distributions/product.h"
#include "dpp/ensemble.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "planar/grid.h"
#include "planar/matching_sampler.h"
#include "sampling/batched.h"
#include "sampling/entropic.h"
#include "sampling/filtering.h"
#include "sampling/rejection.h"
#include "support/random.h"

namespace pardpp {
namespace {

std::vector<std::size_t> pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sizes = {1, 2};
  if (hw > 2) sizes.push_back(hw);
  return sizes;
}

TEST(Determinism, BatchedSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7001);
  const Matrix l = random_psd(18, 18, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 6);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    std::vector<int> combined;
    RandomStream rng(99);  // one seed, several consecutive samples
    for (int s = 0; s < 4; ++s) {
      const auto result = sample_batched(oracle, rng, ctx);
      combined.insert(combined.end(), result.items.begin(),
                      result.items.end());
    }
    per_pool.push_back(std::move(combined));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]) << "pool size index " << p;
}

TEST(Determinism, BatchedSamplerUniformOracleAcrossPoolSizes) {
  const UniformKSubsetOracle oracle(256, 64);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(1234);
    per_pool.push_back(sample_batched(oracle, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, FilteringSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7002);
  std::vector<double> spectrum(32);
  for (std::size_t i = 0; i < spectrum.size(); ++i)
    spectrum[i] = 0.4 * (0.2 + 0.8 * static_cast<double>(i) /
                                   static_cast<double>(spectrum.size() - 1));
  const Matrix kernel = kernel_with_spectrum(spectrum, setup);
  const Matrix l = ensemble_from_kernel(kernel);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(4321);
    per_pool.push_back(sample_filtering_dpp(l, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

// perfbench's t41 shape (n = 96, sigma = 0.4, about 45 rounds): the
// carried eigenpairs and every round's trial waves must give the same
// items and the same counters at every pool size.
TEST(Determinism, FilteringT41ShapeItemsAndCountersAcrossPoolSizes) {
  const std::size_t n = 96;
  RandomStream setup(96004);
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i)
    spectrum[i] = 0.4 * (0.25 + 0.75 * static_cast<double>(i) /
                                    static_cast<double>(n - 1));
  const Matrix l = ensemble_from_kernel(kernel_with_spectrum(spectrum, setup));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<SampleResult> per_pool;
    for (const std::size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      RandomStream rng(seed);
      per_pool.push_back(
          sample_filtering_dpp(l, rng, ExecutionContext(&pool, nullptr)));
    }
    EXPECT_GT(per_pool[0].diag.rounds, 1u);
    for (std::size_t p = 1; p < per_pool.size(); ++p) {
      const SampleDiagnostics& want = per_pool[0].diag;
      const SampleDiagnostics& got = per_pool[p].diag;
      const std::string at = "seed " + std::to_string(seed) + " pool index " +
                             std::to_string(p);
      EXPECT_EQ(per_pool[p].items, per_pool[0].items) << at;
      EXPECT_EQ(got.rounds, want.rounds) << at;
      EXPECT_EQ(got.proposals, want.proposals) << at;
      EXPECT_EQ(got.oracle_calls, want.oracle_calls) << at;
      EXPECT_EQ(got.accepted_batches, want.accepted_batches) << at;
      EXPECT_EQ(got.ratio_overflows, want.ratio_overflows) << at;
      EXPECT_EQ(got.duplicate_rejects, want.duplicate_rejects) << at;
    }
  }
}

TEST(Determinism, EntropicSamplerIdenticalAcrossPoolSizes) {
  RandomStream setup(7003);
  const Matrix l = random_psd(12, 12, setup, 1e-3);
  const GeneralDppOracle oracle(l, 4);
  std::vector<std::vector<int>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(777);
    per_pool.push_back(sample_entropic(oracle, rng, ctx).items);
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

TEST(Determinism, RejectionPrimitiveIdenticalAcrossPoolSizes) {
  const std::vector<double> target = {std::log(0.5), std::log(0.2),
                                      std::log(0.3)};
  const std::vector<double> proposal = {std::log(1.0 / 3), std::log(1.0 / 3),
                                        std::log(1.0 / 3)};
  const double cap = std::log(1.5) + 1e-9;
  std::vector<std::vector<std::size_t>> per_pool;
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    const ExecutionContext ctx(&pool, nullptr);
    RandomStream rng(31337);
    std::vector<std::size_t> values;
    for (int trial = 0; trial < 64; ++trial) {
      const auto out =
          rejection_sample_finite(target, proposal, cap, 200, rng, ctx);
      ASSERT_TRUE(out.value.has_value());
      values.push_back(*out.value);
    }
    per_pool.push_back(std::move(values));
  }
  for (std::size_t p = 1; p < per_pool.size(); ++p)
    EXPECT_EQ(per_pool[0], per_pool[p]);
}

void expect_same_pram(const PramStats& a, const PramStats& b) {
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_machines, b.max_machines);
  EXPECT_EQ(a.oracle_calls, b.oracle_calls);
}

TEST(Determinism, PlanarSeparatorIdenticalAcrossPoolSizes) {
  // Sibling components fan out on the context's pool; their streams are
  // split before the fan-out, so neither the matching nor the fork-join
  // PRAM accounting may depend on the pool size.
  const std::vector<PlanarGraph> graphs = {grid_graph(10, 10),
                                           hexagon_honeycomb_graph(3, 3, 3)};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    std::vector<MatchingResult> per_pool;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      PramLedger ledger;
      const ExecutionContext ctx(&pool, &ledger);
      RandomStream rng(2718);
      per_pool.push_back(sample_matching_separator(graphs[gi], rng, ctx));
      expect_same_pram(ledger.stats(), per_pool.back().diag.pram);
    }
    for (std::size_t p = 1; p < per_pool.size(); ++p) {
      SCOPED_TRACE("graph " + std::to_string(gi) + ", pool size index " +
                   std::to_string(p));
      EXPECT_EQ(per_pool[0].matching, per_pool[p].matching);
      expect_same_pram(per_pool[0].diag.pram, per_pool[p].diag.pram);
    }
  }
}

TEST(Determinism, MachineStreamsIndependentOfConsumptionOrder) {
  // stream(m) is a pure function of (round tag, m): reading machines out
  // of order, or only a subset, does not change any machine's draws.
  RandomStream a(5);
  RandomStream b(5);
  const MachineStreams forward(a);
  const MachineStreams backward(b);
  std::vector<std::uint64_t> fwd;
  for (std::size_t m = 0; m < 8; ++m)
    fwd.push_back(forward.stream(m).next_u64());
  std::vector<std::uint64_t> bwd(8);
  for (std::size_t m = 8; m-- > 0;)
    bwd[m] = backward.stream(m).next_u64();
  EXPECT_EQ(fwd, bwd);
  // And the parent advanced identically (one split) in both cases.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---- ThreadSanitizer-targeted stress ----

TEST(ParallelStress, QueryManyHammeredThroughParallelFor) {
  // Drives the batch-oracle path with a wide pool and many concurrent
  // query_many rounds; under TSan this flags any unsynchronized access to
  // the oracle's lazily built caches.
  RandomStream setup(7004);
  const Matrix l = random_psd(20, 20, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 5);
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  std::vector<std::vector<int>> query_storage;
  for (int a = 0; a < 20; ++a)
    for (int b = a + 1; b < 20; ++b) query_storage.push_back({a, b});
  const std::vector<std::span<const int>> queries(query_storage.begin(),
                                                  query_storage.end());
  std::vector<double> reference(queries.size());
  oracle.query_many(queries, reference, ExecutionContext::serial());
  for (int round = 0; round < 16; ++round) {
    std::vector<double> out(queries.size());
    oracle.query_many(queries, out, ctx);
    EXPECT_EQ(out, reference);
  }
}

TEST(ParallelStress, FreshOracleCachesPrimeOncePerClone) {
  // Every round of the batched sampler conditions into a *fresh* oracle
  // whose caches are cold; hammering whole runs on a wide pool exercises
  // prepare_concurrent priming before each fan-out.
  RandomStream setup(7005);
  const Matrix l = random_psd(16, 16, setup, 1e-3);
  const SymmetricKdppOracle oracle(l, 6);
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool, nullptr);
  for (int run = 0; run < 8; ++run) {
    RandomStream rng(9000 + static_cast<std::uint64_t>(run));
    const auto result = sample_batched(oracle, rng, ctx);
    EXPECT_EQ(result.items.size(), 6u);
  }
}

TEST(ParallelStress, NestedParallelForDegeneratesInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> bodies{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // A nested round must run inline on the thread that reached it, so
    // a round's work never depends on which thread ran it.
    parallel_for(pool, 0, 8, [&](std::size_t) { ++bodies; });
  });
  EXPECT_EQ(bodies.load(), 64);
  EXPECT_FALSE(in_parallel_region());
}

}  // namespace
}  // namespace pardpp
