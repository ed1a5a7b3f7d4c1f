// The bench measurement helper (bench/bench_util.h): the trial protocol
// of run_trials and the gate statistic every timed bench gate reads, on
// fixed per-trial times.
#include <gtest/gtest.h>

#include <vector>

#include "../bench/bench_util.h"

namespace pardpp::bench {
namespace {

TEST(BenchGate, QuantilesInterpolateBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.25), 1.75);
  const ArmTimes arm{{5.0, 1.0, 4.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(arm.best(), 1.0);
  EXPECT_DOUBLE_EQ(arm.median(), 3.0);
  EXPECT_DOUBLE_EQ(arm.iqr(), 2.0);
}

TEST(BenchGate, LowerQuartileOfPerTrialSpeedupsDecidesAtTheBound) {
  Trials trials;
  trials.arms = {ArmTimes{{10.0, 10.0, 10.0, 10.0, 10.0}},
                 ArmTimes{{5.0, 10.0, 8.0, 20.0, 10.0}}};
  // Per-trial speedups of arm 1 over arm 0: 2, 1, 1.25, 0.5, 1.
  EXPECT_EQ(trials.speedups(0, 1),
            (std::vector<double>{2.0, 1.0, 1.25, 0.5, 1.0}));
  const RatioGate at_bound = trials.gate(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(at_bound.q1, 1.0);
  EXPECT_DOUBLE_EQ(at_bound.median, 1.0);
  EXPECT_TRUE(at_bound.pass());  // exactly at the bound passes
  EXPECT_FALSE(trials.gate(0, 1, 1.01).pass());
  // Best against best reads 10 / 5 = 2x and would clear 1.5x; the lower
  // quartile of the per-trial speedups does not.
  EXPECT_DOUBLE_EQ(trials.arms[0].best() / trials.arms[1].best(), 2.0);
  EXPECT_FALSE(trials.gate(0, 1, 1.5).pass());
}

TEST(BenchGate, RunTrialsWarmsEachArmThenRotatesTheOrder) {
  std::vector<std::size_t> calls;
  const Trials trials =
      run_trials(3, 4, [&](std::size_t arm) { calls.push_back(arm); });
  EXPECT_EQ(calls, (std::vector<std::size_t>{0, 1, 2,    // warmup
                                             0, 1, 2,    // trial 0
                                             1, 2, 0,    // trial 1
                                             2, 0, 1,    // trial 2
                                             0, 1, 2}));  // trial 3
  ASSERT_EQ(trials.arms.size(), 3u);
  for (const ArmTimes& arm : trials.arms) EXPECT_EQ(arm.ms.size(), 4u);
  EXPECT_GE(trials.steal_frac, 0.0);
  EXPECT_LE(trials.steal_frac, 1.0);
}

}  // namespace
}  // namespace pardpp::bench
