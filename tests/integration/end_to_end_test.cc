// End-to-end behaviour of the full machine + scheduler stack on the paper's
// workloads.

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "trace/trace_analysis.h"

namespace wtpgsched {
namespace {

SimConfig BaseConfig(SchedulerKind kind, double rate_tps) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.machine.dd = 1;
  c.workload.arrival_rate_tps = rate_tps;
  c.run.horizon_ms = 1'000'000;
  c.run.seed = 11;
  c.run.trace_enabled = true;  // The history the serializability checks read.
  return c;
}

TEST(EndToEndTest, SerializableSchedulersProduceSerializableHistories) {
  for (SchedulerKind kind :
       {SchedulerKind::kAsl, SchedulerKind::kC2pl, SchedulerKind::kOpt,
        SchedulerKind::kGow, SchedulerKind::kLow, SchedulerKind::kLowLb}) {
    SimConfig c = BaseConfig(kind, 0.7);
    Machine m(c, Pattern::Experiment1(16));
    m.Run();
    const HistoryCheck check = CheckRecordedHistory(m.trace());
    EXPECT_EQ(check.exit_code, 0)
        << SchedulerKindName(kind) << ": " << check.text;
  }
}

TEST(EndToEndTest, NodcViolatesSerializabilityUnderContention) {
  // The upper-bound scheduler ignores conflicts; at a contended load its
  // history must eventually contain a conflict cycle — demonstrating that
  // the checker has teeth and that NODC is only a bound.
  SimConfig c = BaseConfig(SchedulerKind::kNodc, 1.0);
  c.run.horizon_ms = 2'000'000;
  Machine m(c, Pattern::Experiment1(16));
  m.Run();
  const HistoryCheck check = CheckRecordedHistory(m.trace());
  EXPECT_EQ(check.exit_code, 1) << check.text;
}

TEST(EndToEndTest, Experiment2HotSetSerializable) {
  for (SchedulerKind kind : {SchedulerKind::kAsl, SchedulerKind::kGow,
                             SchedulerKind::kLow, SchedulerKind::kC2pl}) {
    SimConfig c = BaseConfig(kind, 0.6);
    Machine m(c, Pattern::Experiment2());
    m.Run();
    const HistoryCheck check = CheckRecordedHistory(m.trace());
    EXPECT_EQ(check.exit_code, 0) << SchedulerKindName(kind) << ": "
                                  << check.text;
  }
}

TEST(EndToEndTest, ContentionOrderingAtModerateLoad) {
  // At a moderate Experiment-1 load the blocking-resistant schedulers
  // (ASL/GOW/LOW) must beat C2PL and OPT on mean response time — the
  // paper's headline Table-2 ordering.
  SimConfig base = BaseConfig(SchedulerKind::kNodc, 0.55);
  base.run.horizon_ms = 2'000'000;
  auto run = [&](SchedulerKind kind) {
    SimConfig c = base;
    c.scheduler = kind;
    Machine m(c, Pattern::Experiment1(16));
    return m.Run();
  };
  const RunStats nodc = run(SchedulerKind::kNodc);
  const RunStats asl = run(SchedulerKind::kAsl);
  const RunStats gow = run(SchedulerKind::kGow);
  const RunStats low = run(SchedulerKind::kLow);
  const RunStats c2pl = run(SchedulerKind::kC2pl);
  const RunStats opt = run(SchedulerKind::kOpt);
  EXPECT_LT(nodc.mean_response_s, asl.mean_response_s);
  EXPECT_LT(asl.mean_response_s, c2pl.mean_response_s);
  EXPECT_LT(gow.mean_response_s, c2pl.mean_response_s);
  EXPECT_LT(low.mean_response_s, c2pl.mean_response_s);
  // OPT is past its (early) saturation point here: it completes the least
  // work of all schedulers.
  EXPECT_LT(opt.throughput_tps, c2pl.throughput_tps);
  EXPECT_LT(opt.throughput_tps, low.throughput_tps);
}

TEST(EndToEndTest, ParallelismImprovesResponseTime) {
  // Paper Section 5.1.3: declustering gives the WTPG schedulers near-linear
  // response-time speedup at heavy load.
  for (SchedulerKind kind : {SchedulerKind::kAsl, SchedulerKind::kGow,
                             SchedulerKind::kLow}) {
    SimConfig c1 = BaseConfig(kind, 0.9);
    c1.run.horizon_ms = 2'000'000;
    SimConfig c8 = c1;
    c8.machine.dd = 8;
    Machine m1(c1, Pattern::Experiment1(16));
    Machine m8(c8, Pattern::Experiment1(16));
    const double rt1 = m1.Run().mean_response_s;
    const double rt8 = m8.Run().mean_response_s;
    EXPECT_GT(rt1 / rt8, 3.0) << SchedulerKindName(kind);
  }
}

TEST(EndToEndTest, HotSetFavorsLowOverAsl) {
  // Paper Table 4: when updating a hot set, ASL is the worst locking
  // scheduler and LOW the best.
  SimConfig base = BaseConfig(SchedulerKind::kAsl, 0.5);
  base.run.horizon_ms = 2'000'000;
  auto run = [&](SchedulerKind kind) {
    SimConfig c = base;
    c.scheduler = kind;
    Machine m(c, Pattern::Experiment2());
    return m.Run();
  };
  const RunStats asl = run(SchedulerKind::kAsl);
  const RunStats low = run(SchedulerKind::kLow);
  EXPECT_LT(low.mean_response_s, asl.mean_response_s);
}

TEST(EndToEndTest, DeclarationErrorsDegradeLowMoreThanGow) {
  // Paper Table 5 direction: LOW is more sensitive to wrong declarations.
  auto run = [&](SchedulerKind kind, double sigma) {
    SimConfig c = BaseConfig(kind, 0.6);
    c.workload.error_sigma = sigma;
    c.run.horizon_ms = 2'000'000;
    Machine m(c, Pattern::Experiment1(16));
    return m.Run().mean_response_s;
  };
  const double gow_degradation =
      run(SchedulerKind::kGow, 10.0) / run(SchedulerKind::kGow, 0.0);
  const double low_degradation =
      run(SchedulerKind::kLow, 10.0) / run(SchedulerKind::kLow, 0.0);
  EXPECT_GT(low_degradation, 1.0);
  EXPECT_LT(gow_degradation, low_degradation * 1.5);
}

TEST(EndToEndTest, ErrorsStillSerializable) {
  // Wrong declarations affect only the *cost* part of the WTPG; orders
  // stay serializable.
  for (SchedulerKind kind : {SchedulerKind::kGow, SchedulerKind::kLow}) {
    SimConfig c = BaseConfig(kind, 0.6);
    c.workload.error_sigma = 10.0;
    Machine m(c, Pattern::Experiment1(16));
    m.Run();
    const HistoryCheck check = CheckRecordedHistory(m.trace());
    EXPECT_EQ(check.exit_code, 0) << SchedulerKindName(kind) << ": "
                                  << check.text;
  }
}

}  // namespace
}  // namespace wtpgsched

namespace wtpgsched {
namespace {

TEST(EndToEndTest, TraditionalTwoPlWorseThanCautious) {
  // The introduction's motivation: traditional 2PL restarts on deadlocks
  // and suffers chains of blocking; at a moderate batch load the
  // declaration-based schedulers beat it.
  SimConfig c;
  c.machine.num_files = 16;
  c.machine.dd = 1;
  c.workload.arrival_rate_tps = 0.5;
  c.run.horizon_ms = 2'000'000;
  c.run.seed = 23;
  auto run = [&](SchedulerKind kind) {
    SimConfig cfg = c;
    cfg.scheduler = kind;
    Machine m(cfg, Pattern::Experiment1(16));
    return m.Run();
  };
  const RunStats twopl = run(SchedulerKind::kTwoPl);
  const RunStats asl = run(SchedulerKind::kAsl);
  const RunStats low = run(SchedulerKind::kLow);
  EXPECT_GT(twopl.restarts, 0u);  // Deadlocks actually happen.
  EXPECT_LT(asl.mean_response_s, twopl.mean_response_s);
  EXPECT_LT(low.mean_response_s, twopl.mean_response_s);
  EXPECT_GT(low.throughput_tps, twopl.throughput_tps * 1.2);
}

}  // namespace
}  // namespace wtpgsched
