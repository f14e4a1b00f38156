#include "machine/machine.h"

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

SimConfig SmallConfig(SchedulerKind kind) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.machine.dd = 1;
  c.workload.arrival_rate_tps = 0.3;  // Light load.
  c.run.horizon_ms = 400'000;
  c.run.seed = 7;
  return c;
}

TEST(MachineTest, SingleTransactionLifecycle) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 1;
  c.run.horizon_ms = 100'000;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.arrivals, 1u);
  EXPECT_EQ(stats.completions, 1u);
  EXPECT_EQ(m.in_flight(), 0u);
  // Service demand is 7.2 s of scanning plus small CN costs; an idle system
  // completes it in just over 7.2 s.
  EXPECT_GT(stats.mean_response_s, 7.2);
  EXPECT_LT(stats.mean_response_s, 8.0);
}

TEST(MachineTest, ResponseTimeScalesWithDeclustering) {
  // One isolated transaction at DD=8 finishes ~8x faster (scan-wise).
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 1;
  c.machine.dd = 8;
  c.run.horizon_ms = 100'000;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.completions, 1u);
  EXPECT_GT(stats.mean_response_s, 0.9);
  EXPECT_LT(stats.mean_response_s, 1.2);
}

TEST(MachineTest, AllSchedulersDrainFiniteWorkload) {
  // Liveness: with arrivals cut off, every scheduler must finish every
  // transaction (no deadlock, no stuck retries).
  for (SchedulerKind kind :
       {SchedulerKind::kNodc, SchedulerKind::kAsl, SchedulerKind::kC2pl,
        SchedulerKind::kOpt, SchedulerKind::kGow, SchedulerKind::kLow,
        SchedulerKind::kLowLb}) {
    SimConfig c = SmallConfig(kind);
    c.workload.max_arrivals = 40;
    c.run.horizon_ms = 3'000'000;
    Machine m(c, Pattern::Experiment1(16));
    const RunStats stats = m.Run();
    EXPECT_EQ(stats.arrivals, 40u) << SchedulerKindName(kind);
    EXPECT_EQ(stats.completions, 40u) << SchedulerKindName(kind);
    EXPECT_EQ(m.in_flight(), 0u) << SchedulerKindName(kind);
  }
}

TEST(MachineTest, DeterministicAcrossRuns) {
  SimConfig c = SmallConfig(SchedulerKind::kLow);
  c.workload.max_arrivals = 30;
  Machine m1(c, Pattern::Experiment1(16));
  Machine m2(c, Pattern::Experiment1(16));
  const RunStats s1 = m1.Run();
  const RunStats s2 = m2.Run();
  EXPECT_EQ(s1.completions, s2.completions);
  EXPECT_DOUBLE_EQ(s1.mean_response_s, s2.mean_response_s);
  EXPECT_EQ(s1.blocked, s2.blocked);
  EXPECT_EQ(s1.delayed, s2.delayed);
  EXPECT_EQ(m1.simulator().events_executed(), m2.simulator().events_executed());
}

TEST(MachineTest, SeedChangesWorkload) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 30;
  SimConfig c2 = c;
  c2.run.seed = 8;
  Machine m1(c, Pattern::Experiment1(16));
  Machine m2(c2, Pattern::Experiment1(16));
  EXPECT_NE(m1.Run().mean_response_s, m2.Run().mean_response_s);
}

TEST(MachineTest, MplOneSerializesC2pl) {
  SimConfig c = SmallConfig(SchedulerKind::kC2pl);
  c.machine.mpl = 1;
  c.workload.max_arrivals = 10;
  c.run.horizon_ms = 2'000'000;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.completions, 10u);
  // With one transaction at a time there is nothing to block on.
  EXPECT_EQ(stats.blocked, 0u);
  EXPECT_EQ(stats.delayed, 0u);
}

TEST(MachineTest, OptRecordsRestartsUnderContention) {
  SimConfig c = SmallConfig(SchedulerKind::kOpt);
  c.workload.arrival_rate_tps = 0.8;
  c.workload.max_arrivals = 200;
  c.run.horizon_ms = 10'000'000;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.completions, 200u);
  EXPECT_GT(stats.restarts, 0u);
}

TEST(MachineTest, LockersNeverRestart) {
  for (SchedulerKind kind : {SchedulerKind::kAsl, SchedulerKind::kC2pl,
                             SchedulerKind::kGow, SchedulerKind::kLow}) {
    SimConfig c = SmallConfig(kind);
    c.workload.arrival_rate_tps = 0.7;
    c.workload.max_arrivals = 100;
    c.run.horizon_ms = 10'000'000;
    Machine m(c, Pattern::Experiment1(16));
    const RunStats stats = m.Run();
    EXPECT_EQ(stats.restarts, 0u) << SchedulerKindName(kind);
    EXPECT_EQ(stats.completions, 100u) << SchedulerKindName(kind);
  }
}

TEST(MachineTest, UtilizationsWithinBounds) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.arrival_rate_tps = 0.9;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_GT(stats.mean_dpn_utilization, 0.3);
  EXPECT_LE(stats.max_dpn_utilization, 1.0 + 1e-9);
  EXPECT_GT(stats.cn_utilization, 0.0);
  EXPECT_LT(stats.cn_utilization, 0.2);  // CN is not the bottleneck here.
}

TEST(MachineTest, WarmupExcludesEarlyCompletions) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 20;
  c.run.warmup_ms = 399'000;  // Nearly the whole horizon.
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.completions, 20u);
  EXPECT_LT(stats.completions_measured, stats.completions);
}

TEST(MachineTest, BacklogProbeReflectsQueuedWork) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 0;
  Machine m(c, Pattern::Experiment1(16));
  // Before running, no work anywhere.
  EXPECT_DOUBLE_EQ(m.BacklogObjectsForFile(0), 0.0);
}

TEST(MachineTest, TraceRecordsCommitsAndAccesses) {
  SimConfig c = SmallConfig(SchedulerKind::kLow);
  c.workload.max_arrivals = 15;
  c.run.horizon_ms = 2'000'000;
  c.run.trace_enabled = true;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(stats.completions, 15u);
  EXPECT_EQ(m.trace().type_count(TraceEventType::kCommit), 15u);
  // Each Pattern-1 transaction records 4 accesses.
  EXPECT_EQ(m.trace().type_count(TraceEventType::kDataAccess), 60u);
}

TEST(MachineDeathTest, RunTwiceDies) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.workload.max_arrivals = 1;
  Machine m(c, Pattern::Experiment1(16));
  m.Run();
  EXPECT_DEATH(m.Run(), "twice");
}

// A library caller with a bad config sees Validate()'s message, not the
// check of whatever is built first from the bad field: StatsCollector
// (horizon), the workload generator (dd, rate) or the scheduler (LOW's K).
TEST(MachineTest, InvalidConfigDiesWithValidateMessage) {
  SimConfig c = SmallConfig(SchedulerKind::kNodc);
  c.run.horizon_ms = -5;
  EXPECT_DEATH(Machine(c, Pattern::Experiment1(16)),
               "horizon_ms must be > 0");

  c = SmallConfig(SchedulerKind::kNodc);
  c.machine.dd = 0;
  EXPECT_DEATH(Machine(c, Pattern::Experiment1(16)), "dd must be in");

  c = SmallConfig(SchedulerKind::kLow);
  c.low_k = -1;
  EXPECT_DEATH(Machine(c, Pattern::Experiment1(16)), "low_k must be >= 0");

  c = SmallConfig(SchedulerKind::kNodc);
  c.workload.arrival_rate_tps = 0.0;
  std::vector<WeightedPattern> mix;
  mix.push_back(WeightedPattern{Pattern::Experiment1(16), 1.0});
  EXPECT_DEATH(Machine(c, std::move(mix)), "arrival_rate_tps must be > 0");
}

}  // namespace
}  // namespace wtpgsched
