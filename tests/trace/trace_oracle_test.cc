// Tests of the post-hoc trace oracles: the serialization-order check and
// the wait-time decomposition, on hand-built event sequences and on full
// machine runs with tracing enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "machine/machine.h"
#include "trace/trace_analysis.h"

namespace wtpgsched {
namespace {

TraceEvent Access(SimTime t, TxnId txn, FileId file, LockMode mode,
                  int32_t incarnation = 0) {
  return TraceEvent{.time = t,
                    .type = TraceEventType::kDataAccess,
                    .txn = txn,
                    .incarnation = incarnation,
                    .file = file,
                    .mode = mode};
}

TraceEvent Commit(SimTime t, TxnId txn, int32_t incarnation = 0) {
  return TraceEvent{.time = t,
                    .type = TraceEventType::kCommit,
                    .txn = txn,
                    .incarnation = incarnation};
}

TEST(TraceOracleTest, SerializableSequencePasses) {
  // T1 precedes T2 on both files: a clean serial order T1 < T2.
  const std::vector<TraceEvent> events = {
      Access(100, 1, 0, LockMode::kExclusive),
      Access(150, 1, 1, LockMode::kExclusive),
      Access(200, 2, 0, LockMode::kExclusive),
      Access(250, 2, 1, LockMode::kExclusive),
      Commit(300, 1),
      Commit(350, 2),
  };
  const SerializabilityResult result = CheckTraceSerializable(events);
  EXPECT_TRUE(result.serializable) << result.ToString();
  EXPECT_TRUE(result.cycle.empty());
}

TEST(TraceOracleTest, SharedAccessesDoNotConflict) {
  // Interleaved reads of the same file in both orders: no conflict edge.
  const std::vector<TraceEvent> events = {
      Access(100, 1, 0, LockMode::kShared),
      Access(200, 2, 0, LockMode::kShared),
      Access(300, 2, 1, LockMode::kShared),
      Access(400, 1, 1, LockMode::kShared),
      Commit(500, 1),
      Commit(600, 2),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(TraceOracleTest, CyclicSequenceFailsWithWitness) {
  // T1 -> T2 on file 0 and T2 -> T1 on file 1: the classic 2-cycle.
  const std::vector<TraceEvent> events = {
      Access(100, 1, 0, LockMode::kExclusive),
      Access(200, 2, 1, LockMode::kExclusive),
      Access(300, 2, 0, LockMode::kExclusive),
      Access(400, 1, 1, LockMode::kExclusive),
      Commit(500, 2),
      Commit(600, 1),
  };
  const SerializabilityResult result = CheckTraceSerializable(events);
  EXPECT_FALSE(result.serializable);
  ASSERT_FALSE(result.cycle.empty());
  EXPECT_NE(std::find(result.cycle.begin(), result.cycle.end(), TxnId{1}),
            result.cycle.end());
  EXPECT_NE(std::find(result.cycle.begin(), result.cycle.end(), TxnId{2}),
            result.cycle.end());
  EXPECT_NE(result.ToString().find("NOT serializable"), std::string::npos);
}

TEST(TraceOracleTest, UncommittedTransactionsAreIgnored) {
  // Same cycle as above, but T2 never commits — only the committed
  // projection counts.
  const std::vector<TraceEvent> events = {
      Access(100, 1, 0, LockMode::kExclusive),
      Access(200, 2, 1, LockMode::kExclusive),
      Access(300, 2, 0, LockMode::kExclusive),
      Access(400, 1, 1, LockMode::kExclusive),
      Commit(600, 1),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(TraceOracleTest, AbortedIncarnationsAreIgnored) {
  // T1's incarnation 0 touched file 1 before aborting; only incarnation 1
  // committed. Counting the dead incarnation's access would close a cycle.
  const std::vector<TraceEvent> events = {
      Access(50, 1, 1, LockMode::kExclusive, /*incarnation=*/0),
      Access(100, 2, 1, LockMode::kExclusive),
      Access(150, 2, 0, LockMode::kExclusive),
      Access(200, 1, 0, LockMode::kExclusive, /*incarnation=*/1),
      Commit(300, 2),
      Commit(400, 1, /*incarnation=*/1),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

// --- Conflict-graph cases on hand-built histories ---

constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

TEST(SerializabilityTest, EmptyLogIsSerializable) {
  EXPECT_TRUE(CheckTraceSerializable({}).serializable);
}

TEST(SerializabilityTest, SingleTransaction) {
  EXPECT_TRUE(
      CheckTraceSerializable({Access(10, 1, 0, kX), Commit(20, 1)})
          .serializable);
}

TEST(SerializabilityTest, SerialHistoryOk) {
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kX), Access(20, 1, 1, kX), Access(30, 2, 0, kX),
      Access(40, 2, 1, kX), Commit(50, 1),        Commit(60, 2),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(SerializabilityTest, DetectsWriteWriteCycle) {
  // T1 writes A before T2, but T2 writes B before T1: cycle.
  const std::vector<TraceEvent> events = {
      Access(10, 1, /*file=*/0, kX), Access(15, 2, /*file=*/1, kX),
      Access(20, 2, /*file=*/0, kX), Access(25, 1, /*file=*/1, kX),
      Commit(30, 1),                 Commit(35, 2),
  };
  const SerializabilityResult result = CheckTraceSerializable(events);
  EXPECT_FALSE(result.serializable);
  EXPECT_GE(result.cycle.size(), 2u);
  EXPECT_NE(result.ToString().find("NOT"), std::string::npos);
}

TEST(SerializabilityTest, SharedReadsNeverConflict) {
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kS), Access(15, 2, 0, kS), Access(20, 1, 1, kS),
      Access(5, 2, 1, kS),  Commit(30, 1),        Commit(35, 2),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(SerializabilityTest, ReadWriteCycleDetected) {
  // T1 reads A then T2 writes A (T1 -> T2); T2 reads B then T1 writes B
  // (T2 -> T1): cycle.
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kS), Access(12, 2, 1, kS), Access(20, 2, 0, kX),
      Access(22, 1, 1, kX), Commit(30, 1),        Commit(35, 2),
  };
  EXPECT_FALSE(CheckTraceSerializable(events).serializable);
}

TEST(SerializabilityTest, UncommittedAccessesIgnored) {
  // T2 never commits: its accesses drop out, no cycle remains.
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kX), Access(15, 2, 1, kX), Access(20, 2, 0, kX),
      Access(25, 1, 1, kX), Commit(30, 1),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(SerializabilityTest, AbortedIncarnationIgnored) {
  // T2's incarnation 0 formed a cycle, but only incarnation 1 committed.
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kX),
      Access(15, 2, 1, kX, /*incarnation=*/0),
      Access(20, 2, 0, kX, /*incarnation=*/0),
      Access(25, 1, 1, kX),
      Access(40, 2, 1, kX, /*incarnation=*/1),
      Access(45, 2, 0, kX, /*incarnation=*/1),
      Commit(50, 1),
      Commit(55, 2, /*incarnation=*/1),
  };
  EXPECT_TRUE(CheckTraceSerializable(events).serializable);
}

TEST(SerializabilityTest, EqualTimesBreakBySequence) {
  // Equal times are ordered by position in the event stream: T1 before T2
  // on file 0 and, recorded the other way round, T2 before T1 on file 1.
  const std::vector<TraceEvent> one_file = {
      Access(10, 1, 0, kX), Access(10, 2, 0, kX),
      Commit(20, 1),        Commit(20, 2),
  };
  EXPECT_TRUE(CheckTraceSerializable(one_file).serializable);
  const std::vector<TraceEvent> crossed = {
      Access(10, 1, 0, kX), Access(10, 2, 0, kX), Access(10, 2, 1, kX),
      Access(10, 1, 1, kX), Commit(20, 1),        Commit(20, 2),
  };
  EXPECT_FALSE(CheckTraceSerializable(crossed).serializable);
  const std::vector<TraceEvent> aligned = {
      Access(10, 1, 0, kX), Access(10, 2, 0, kX), Access(10, 1, 1, kX),
      Access(10, 2, 1, kX), Commit(20, 1),        Commit(20, 2),
  };
  EXPECT_TRUE(CheckTraceSerializable(aligned).serializable);
}

TEST(SerializabilityTest, ThreeWayCycle) {
  const std::vector<TraceEvent> events = {
      Access(10, 1, 0, kX),  // 1 -> 2 on file 0.
      Access(20, 2, 0, kX),
      Access(30, 2, 1, kX),  // 2 -> 3 on file 1.
      Access(40, 3, 1, kX),
      Access(50, 3, 2, kX),  // 3 -> 1 on file 2.
      Access(60, 1, 2, kX),
      Commit(70, 1),
      Commit(70, 2),
      Commit(70, 3),
  };
  const SerializabilityResult result = CheckTraceSerializable(events);
  EXPECT_FALSE(result.serializable);
  EXPECT_EQ(result.cycle.size(), 3u);
}

// --- The truncation rule ---

TEST(TraceOracleTest, DroppedEventsAreInconclusive) {
  // A cycle-free window of a ring that dropped events gets no verdict.
  const std::vector<TraceEvent> events = {Access(10, 1, 0, kX),
                                          Commit(20, 1)};
  const HistoryCheck check = CheckRecordedHistory(events, /*dropped=*/8);
  EXPECT_EQ(check.exit_code, 3);
  EXPECT_EQ(check.text,
            "inconclusive (8 of 10 events dropped; rerun with "
            "--trace-capacity=10)");
  EXPECT_EQ(IncompleteHistoryNote(2, 8), check.text);
}

TEST(TraceOracleTest, MissingFooterIsInconclusive) {
  const std::vector<TraceEvent> events = {Access(10, 1, 0, kX),
                                          Commit(20, 1)};
  const HistoryCheck check =
      CheckRecordedHistory(events, /*dropped=*/0, /*footer_seen=*/false);
  EXPECT_EQ(check.exit_code, 3);
  EXPECT_EQ(check.text.rfind("inconclusive (no end footer", 0), 0u)
      << check.text;
}

TEST(TraceOracleTest, CompleteHistoryGetsAVerdict) {
  EXPECT_EQ(IncompleteHistoryNote(2, 0), "");
  const HistoryCheck pass =
      CheckRecordedHistory({Access(10, 1, 0, kX), Commit(20, 1)}, 0);
  EXPECT_EQ(pass.exit_code, 0);
  EXPECT_EQ(pass.text, "serializable");
  const HistoryCheck cycle = CheckRecordedHistory(
      {Access(10, 1, 0, kX), Access(15, 2, 1, kX), Access(20, 2, 0, kX),
       Access(25, 1, 1, kX), Commit(30, 1), Commit(35, 2)},
      0);
  EXPECT_EQ(cycle.exit_code, 1);
  EXPECT_EQ(cycle.text.rfind("NOT serializable; cycle: ", 0), 0u);
}

// --- Full machine runs with tracing enabled ---

SimConfig TracedConfig(SchedulerKind kind) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.machine.dd = 1;
  // A contended burst: 8 transactions arriving ~2/s against 1 s/object
  // scans forces real conflicts at every scheduler.
  c.workload.arrival_rate_tps = 2.0;
  c.workload.max_arrivals = 8;
  c.run.horizon_ms = 2'000'000;
  c.run.seed = 17;
  c.run.trace_enabled = true;
  c.run.trace_capacity = 1 << 16;
  return c;
}

TEST(TraceOracleTest, EverySchedulerExceptNodcYieldsAcyclicTraces) {
  for (SchedulerKind kind :
       {SchedulerKind::kAsl, SchedulerKind::kC2pl, SchedulerKind::kOpt,
        SchedulerKind::kGow, SchedulerKind::kLow, SchedulerKind::kLowLb,
        SchedulerKind::kTwoPl}) {
    Machine m(TracedConfig(kind), Pattern::Experiment1(16));
    const RunStats stats = m.Run();
    const std::vector<TraceEvent> events = m.trace().Snapshot();
    ASSERT_FALSE(events.empty()) << SchedulerKindName(kind);
    EXPECT_EQ(m.trace().dropped(), 0u) << SchedulerKindName(kind);
    // Every commit the stats saw is in the trace.
    EXPECT_EQ(m.trace().type_count(TraceEventType::kCommit),
              stats.completions)
        << SchedulerKindName(kind);
    const SerializabilityResult result = CheckTraceSerializable(events);
    EXPECT_TRUE(result.serializable)
        << SchedulerKindName(kind) << ": " << result.ToString();
  }
}

TEST(TraceOracleTest, SummaryReconcilesWithRunStats) {
  SimConfig c = TracedConfig(SchedulerKind::kLow);
  c.workload.arrival_rate_tps = 1.2;
  c.workload.max_arrivals = 30;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  ASSERT_GT(stats.completions, 0u);
  ASSERT_EQ(m.trace().dropped(), 0u);

  const TraceSummary summary = SummarizeTrace(m.trace().Snapshot());
  EXPECT_EQ(summary.arrived, stats.arrivals);
  EXPECT_EQ(summary.committed, stats.completions);
  ASSERT_EQ(summary.txns.size(), stats.completions);
  // The trace-derived mean response matches the collector's (both are
  // arrival -> commit over the same committed set).
  EXPECT_NEAR(summary.mean_response_s, stats.mean_response_s, 1e-6);
  // The decomposition partitions the response time.
  for (const TxnBreakdown& b : summary.txns) {
    EXPECT_NEAR(b.admission_wait_s + b.lock_wait_s + b.execution_s +
                    b.other_s,
                b.response_s, 1e-9)
        << "txn " << b.txn;
    EXPECT_GE(b.lock_wait_s, 0.0);
    EXPECT_GE(b.execution_s, 0.0);
  }
  // At this contention level LOW must actually wait on locks somewhere.
  EXPECT_GT(summary.mean_lock_wait_s, 0.0);
  EXPECT_GT(summary.mean_execution_s, 0.0);
}

TEST(TraceOracleTest, RunStatsCountersIncludeTraceAndSchedulerCounts) {
  Machine m(TracedConfig(SchedulerKind::kLow), Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : stats.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter '" << name << "' not registered";
    return 0;
  };
  EXPECT_EQ(counter("trace.commit"), stats.completions);
  EXPECT_EQ(counter("trace.arrive"), stats.arrivals);
  // The scheduler exported its decision counters into the same registry.
  counter("low.k_rejections");
  counter("low.deadlock_delays");
  // The legacy fields mirror the registry.
  EXPECT_EQ(counter("blocked"), stats.blocked);
}

// A NODC history with a cycle, recorded into a ring too small to hold it,
// must come out inconclusive — never "serializable".
TEST(TraceOracleTest, OverflowedRingNeverPasses) {
  SimConfig c = TracedConfig(SchedulerKind::kNodc);
  c.workload.arrival_rate_tps = 1.2;
  c.workload.max_arrivals = 0;
  c.run.horizon_ms = 300'000;
  c.run.seed = 1;
  Machine full(c, Pattern::Experiment1(16));
  full.Run();
  ASSERT_EQ(full.trace().dropped(), 0u);
  EXPECT_EQ(CheckRecordedHistory(full.trace()).exit_code, 1);

  c.run.trace_capacity = 500;
  Machine ring(c, Pattern::Experiment1(16));
  ring.Run();
  const HistoryCheck check = CheckRecordedHistory(ring.trace());
  EXPECT_EQ(check.exit_code, 3) << check.text;
  EXPECT_EQ(ring.trace().total_recorded(),
            full.trace().total_recorded());
}

TEST(TraceOracleTest, TracingDisabledLeavesNoTraceCounters) {
  SimConfig c = TracedConfig(SchedulerKind::kLow);
  c.run.trace_enabled = false;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  EXPECT_EQ(m.trace().total_recorded(), 0u);
  for (const auto& [name, value] : stats.counters) {
    EXPECT_NE(name.rfind("trace.", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace wtpgsched
