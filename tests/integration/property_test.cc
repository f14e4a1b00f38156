// Parameterized property sweep: for every scheduler x declustering degree x
// seed, a finite workload must drain completely (liveness / no deadlock),
// produce a serializable committed history (except NODC), and keep the
// bookkeeping consistent.

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "trace/trace_analysis.h"

namespace wtpgsched {
namespace {

struct SweepCase {
  SchedulerKind scheduler;
  int dd;
  uint64_t seed;
  double rate_tps;
  bool hot_set;  // Experiment 2 pattern instead of Experiment 1.
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  std::string name = SchedulerKindName(info.param.scheduler);
  if (name == "2PL") name = "TwoPL";  // Identifiers cannot start with a digit.
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_dd" + std::to_string(info.param.dd) + "_seed" +
         std::to_string(info.param.seed) + (info.param.hot_set ? "_hot" : "");
}

class SchedulerPropertyTest : public testing::TestWithParam<SweepCase> {};

TEST_P(SchedulerPropertyTest, DrainsAndStaysConsistent) {
  const SweepCase param = GetParam();
  SimConfig c;
  c.scheduler = param.scheduler;
  c.machine.num_files = 16;
  c.machine.dd = param.dd;
  c.workload.arrival_rate_tps = param.rate_tps;
  c.workload.max_arrivals = 60;
  c.run.horizon_ms = 20'000'000;  // Generous: the workload must drain first.
  c.run.seed = param.seed;
  c.run.trace_enabled = true;
  Machine m(c, param.hot_set ? Pattern::Experiment2()
                             : Pattern::Experiment1(16));
  const RunStats stats = m.Run();

  // Liveness: every transaction completed (no deadlock, no lost retries).
  EXPECT_EQ(stats.arrivals, 60u);
  EXPECT_EQ(stats.completions, 60u);
  EXPECT_EQ(m.in_flight(), 0u);

  // All locks released.
  EXPECT_EQ(m.scheduler().lock_table().num_locked_files(), 0u);
  EXPECT_EQ(m.scheduler().num_active(), 0u);

  // Committed history is conflict-serializable for every real scheduler.
  if (param.scheduler != SchedulerKind::kNodc) {
    const HistoryCheck check = CheckRecordedHistory(m.trace());
    EXPECT_EQ(check.exit_code, 0) << check.text;
  }

  // Only OPT (validation failures) and 2PL (deadlock victims) restart.
  if (param.scheduler != SchedulerKind::kOpt &&
      param.scheduler != SchedulerKind::kTwoPl) {
    EXPECT_EQ(stats.restarts, 0u);
  }
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  const SchedulerKind kinds[] = {
      SchedulerKind::kNodc, SchedulerKind::kAsl,   SchedulerKind::kC2pl,
      SchedulerKind::kOpt,  SchedulerKind::kGow,   SchedulerKind::kLow,
      SchedulerKind::kLowLb, SchedulerKind::kTwoPl};
  for (SchedulerKind kind : kinds) {
    for (int dd : {1, 2, 8}) {
      cases.push_back({kind, dd, 42, 0.8, false});
    }
    cases.push_back({kind, 1, 43, 1.2, false});  // Supersaturated burst.
    cases.push_back({kind, 4, 44, 0.8, true});   // Hot set.
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerPropertyTest,
                         testing::ValuesIn(MakeCases()), CaseName);

// The WTPG maintained by the graph-based schedulers must satisfy its
// invariants at end of run (spot check via a fresh run that stops mid-way).
class GraphInvariantTest : public testing::TestWithParam<SchedulerKind> {};

TEST_P(GraphInvariantTest, GraphEmptyAfterDrain) {
  SimConfig c;
  c.scheduler = GetParam();
  c.machine.num_files = 8;
  c.machine.dd = 2;
  c.workload.arrival_rate_tps = 1.0;
  c.workload.max_arrivals = 40;
  c.run.horizon_ms = 20'000'000;
  c.run.seed = 5;
  Machine m(c, Pattern::Experiment1(8));
  m.Run();
  auto& sched = static_cast<WtpgSchedulerBase&>(m.scheduler());
  EXPECT_EQ(sched.graph().num_nodes(), 0u);
  EXPECT_EQ(sched.graph().num_edges(), 0u);
  EXPECT_TRUE(sched.graph().CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(GraphSchedulers, GraphInvariantTest,
                         testing::Values(SchedulerKind::kC2pl,
                                         SchedulerKind::kGow,
                                         SchedulerKind::kLow),
                         [](const testing::TestParamInfo<SchedulerKind>& info) {
                           return SchedulerKindName(info.param);
                         });

}  // namespace
}  // namespace wtpgsched
