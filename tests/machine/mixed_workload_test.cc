#include <gtest/gtest.h>

#include "machine/machine.h"
#include "trace/trace_analysis.h"
#include "workload/pattern_parser.h"

namespace wtpgsched {
namespace {

std::vector<WeightedPattern> ShortPlusBatchMix() {
  StatusOr<Pattern> shorts = ParsePattern("w(F:0.05)", 16);
  EXPECT_TRUE(shorts.ok());
  std::vector<WeightedPattern> mix;
  mix.push_back(WeightedPattern{*shorts, 0.8});
  mix.push_back(WeightedPattern{Pattern::Experiment1(16), 0.2});
  return mix;
}

TEST(MixedWorkloadMachineTest, DrainsAndSerializable) {
  for (SchedulerKind kind : {SchedulerKind::kLow, SchedulerKind::kC2pl,
                             SchedulerKind::kAsl, SchedulerKind::kTwoPl}) {
    SimConfig c;
    c.scheduler = kind;
    c.machine.num_files = 16;
    c.workload.arrival_rate_tps = 2.0;
    c.workload.max_arrivals = 80;
    c.run.horizon_ms = 10'000'000;
    c.run.seed = 17;
    c.run.trace_enabled = true;
    Machine m(c, ShortPlusBatchMix());
    const RunStats stats = m.Run();
    EXPECT_EQ(stats.completions, 80u) << SchedulerKindName(kind);
    const HistoryCheck check = CheckRecordedHistory(m.trace());
    EXPECT_EQ(check.exit_code, 0) << SchedulerKindName(kind) << ": "
                                  << check.text;
  }
}

TEST(MixedWorkloadMachineTest, MedianReflectsShortClass) {
  // With 80% tiny transactions, the median response is far below the mean
  // (which the batch class dominates).
  SimConfig c;
  c.scheduler = SchedulerKind::kLow;
  c.machine.num_files = 16;
  c.workload.arrival_rate_tps = 2.0;
  c.run.horizon_ms = 1'000'000;
  c.run.seed = 18;
  Machine m(c, ShortPlusBatchMix());
  const RunStats stats = m.Run();
  EXPECT_GT(stats.completions_measured, 100u);
  EXPECT_LT(stats.median_response_s, stats.mean_response_s * 0.5);
}

TEST(MixedWorkloadMachineTest, MixValidatedAgainstNumFiles) {
  SimConfig c;
  c.scheduler = SchedulerKind::kNodc;
  c.machine.num_files = 8;  // Experiment2 needs 16.
  c.workload.arrival_rate_tps = 1.0;
  std::vector<WeightedPattern> mix;
  mix.push_back(WeightedPattern{Pattern::Experiment2(), 1.0});
  EXPECT_DEATH(Machine(c, std::move(mix)), "beyond num_files");
}

}  // namespace
}  // namespace wtpgsched
