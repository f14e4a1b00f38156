#include "machine/config.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(ConfigTest, DefaultsMatchTable1) {
  SimConfig c;
  EXPECT_EQ(c.machine.num_nodes, 8);
  EXPECT_DOUBLE_EQ(c.costs.obj_time_ms, 1000.0);
  EXPECT_DOUBLE_EQ(c.costs.msg_time_ms, 2.0);
  EXPECT_DOUBLE_EQ(c.costs.sot_time_ms, 2.0);
  EXPECT_DOUBLE_EQ(c.costs.cot_time_ms, 7.0);
  EXPECT_DOUBLE_EQ(c.costs.dd_time_ms, 1.0);
  EXPECT_DOUBLE_EQ(c.costs.kwtpg_time_ms, 10.0);
  EXPECT_DOUBLE_EQ(c.costs.chain_time_ms, 30.0);
  EXPECT_DOUBLE_EQ(c.costs.top_time_ms, 5.0);
  EXPECT_DOUBLE_EQ(c.run.horizon_ms, 2'000'000);
  EXPECT_EQ(c.low_k, 2);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, HorizonConversion) {
  SimConfig c;
  EXPECT_EQ(c.horizon(), MsToTime(2'000'000));
  EXPECT_EQ(c.warmup(), 0);
}

TEST(ConfigTest, RejectsBadDd) {
  SimConfig c;
  c.machine.dd = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.machine.dd = 9;  // > num_nodes.
  EXPECT_FALSE(c.Validate().ok());
  c.machine.dd = 8;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, RejectsNonPositiveRate) {
  SimConfig c;
  c.workload.arrival_rate_tps = 0.0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsNegativeCosts) {
  SimConfig c;
  c.costs.msg_time_ms = -1.0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsWarmupPastHorizon) {
  SimConfig c;
  c.run.warmup_ms = c.run.horizon_ms;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsBadMplAndK) {
  SimConfig c;
  c.machine.mpl = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.machine.mpl = 1;
  c.low_k = -1;
  EXPECT_FALSE(c.Validate().ok());
}

// run.shards was removed with the sharded-clock engine; a stale config that
// still sets it must fail loudly, not be silently ignored.
TEST(ConfigTest, FromJsonRejectsRemovedShardsKey) {
  const StatusOr<SimConfig> parsed =
      SimConfig::FromJson(R"({"run": {"shards": 4}})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown key"), std::string::npos)
      << parsed.status().ToString();
}

// run.timeline_sample_ms was removed with the legacy timeline view (its
// six columns are in the telemetry store, sampled by telemetry_sample_ms);
// a stale config that still sets it must fail loudly.
TEST(ConfigTest, FromJsonRejectsRemovedTimelineKey) {
  const StatusOr<SimConfig> parsed =
      SimConfig::FromJson(R"({"run": {"timeline_sample_ms": 10000}})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown key"), std::string::npos)
      << parsed.status().ToString();
}

// Every key FromJson accepts, each set off its default, lands in its field.
TEST(ConfigTest, FromJsonReadsEveryKey) {
  const StatusOr<SimConfig> parsed = SimConfig::FromJson(R"({
    "machine": {"num_nodes": 4, "num_files": 32, "dd": 2, "mpl": 3,
                "quantum_objects": 0.5, "batch_mpl": 2},
    "costs": {"obj_time_ms": 900, "msg_time_ms": 3, "sot_time_ms": 4,
              "cot_time_ms": 8, "dd_time_ms": 1.5, "kwtpg_time_ms": 11,
              "chain_time_ms": 31, "top_time_ms": 6},
    "workload": {"arrival_rate_tps": 0.7, "error_sigma": 0.25,
                 "max_arrivals": 40, "zipf_theta": 0.9},
    "run": {"horizon_ms": 500000, "warmup_ms": 1000,
            "retry_fallback_ms": 250, "admission_retry_limit": 4,
            "restart_delay_ms": 2500, "telemetry_sample_ms": 10000,
            "telemetry_capacity": 128, "trace_enabled": true,
            "trace_capacity": 4096, "tail_metrics": true,
            "tail_sketch": true, "seed": 9},
    "fault": {"dpn_mttf_ms": 400000, "dpn_mttr_ms": 20000,
              "straggler_mtbf_ms": 200000, "straggler_duration_ms": 15000,
              "straggler_factor": 2, "abort_rate_per_s": 0.02,
              "backoff_base_ms": 100, "backoff_max_ms": 9000,
              "backoff_jitter": 0.1},
    "scheduler": "gow", "low_k": 3, "low_charge_per_eval": false,
    "low_lb_weight": 2.5, "opt_validate_writes": false
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SimConfig& c = *parsed;
  EXPECT_EQ(c.machine.num_nodes, 4);
  EXPECT_EQ(c.machine.num_files, 32);
  EXPECT_EQ(c.machine.dd, 2);
  EXPECT_EQ(c.machine.mpl, 3);
  EXPECT_DOUBLE_EQ(c.machine.quantum_objects, 0.5);
  EXPECT_EQ(c.machine.batch_mpl, 2);
  EXPECT_DOUBLE_EQ(c.costs.obj_time_ms, 900.0);
  EXPECT_DOUBLE_EQ(c.costs.msg_time_ms, 3.0);
  EXPECT_DOUBLE_EQ(c.costs.sot_time_ms, 4.0);
  EXPECT_DOUBLE_EQ(c.costs.cot_time_ms, 8.0);
  EXPECT_DOUBLE_EQ(c.costs.dd_time_ms, 1.5);
  EXPECT_DOUBLE_EQ(c.costs.kwtpg_time_ms, 11.0);
  EXPECT_DOUBLE_EQ(c.costs.chain_time_ms, 31.0);
  EXPECT_DOUBLE_EQ(c.costs.top_time_ms, 6.0);
  EXPECT_DOUBLE_EQ(c.workload.arrival_rate_tps, 0.7);
  EXPECT_DOUBLE_EQ(c.workload.error_sigma, 0.25);
  EXPECT_EQ(c.workload.max_arrivals, 40u);
  EXPECT_DOUBLE_EQ(c.workload.zipf_theta, 0.9);
  EXPECT_DOUBLE_EQ(c.run.horizon_ms, 500'000.0);
  EXPECT_DOUBLE_EQ(c.run.warmup_ms, 1000.0);
  EXPECT_DOUBLE_EQ(c.run.retry_fallback_ms, 250.0);
  EXPECT_EQ(c.run.admission_retry_limit, 4);
  EXPECT_DOUBLE_EQ(c.run.restart_delay_ms, 2500.0);
  EXPECT_DOUBLE_EQ(c.run.telemetry_sample_ms, 10'000.0);
  EXPECT_EQ(c.run.telemetry_capacity, 128u);
  EXPECT_TRUE(c.run.trace_enabled);
  EXPECT_EQ(c.run.trace_capacity, 4096u);
  EXPECT_TRUE(c.run.tail_metrics);
  EXPECT_TRUE(c.run.tail_sketch);
  EXPECT_EQ(c.run.seed, 9u);
  EXPECT_DOUBLE_EQ(c.fault.dpn_mttf_ms, 400'000.0);
  EXPECT_DOUBLE_EQ(c.fault.dpn_mttr_ms, 20'000.0);
  EXPECT_DOUBLE_EQ(c.fault.straggler_mtbf_ms, 200'000.0);
  EXPECT_DOUBLE_EQ(c.fault.straggler_duration_ms, 15'000.0);
  EXPECT_DOUBLE_EQ(c.fault.straggler_factor, 2.0);
  EXPECT_DOUBLE_EQ(c.fault.abort_rate_per_s, 0.02);
  EXPECT_DOUBLE_EQ(c.fault.backoff_base_ms, 100.0);
  EXPECT_DOUBLE_EQ(c.fault.backoff_max_ms, 9000.0);
  EXPECT_DOUBLE_EQ(c.fault.backoff_jitter, 0.1);
  EXPECT_EQ(c.scheduler, SchedulerKind::kGow);
  EXPECT_EQ(c.low_k, 3);
  EXPECT_FALSE(c.low_charge_per_eval);
  EXPECT_DOUBLE_EQ(c.low_lb_weight, 2.5);
  EXPECT_FALSE(c.opt_validate_writes);

  // `mpl: 0` spells "unlimited", as the --mpl flag does.
  const StatusOr<SimConfig> unlimited =
      SimConfig::FromJson(R"({"machine": {"mpl": 0}})");
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(unlimited->machine.mpl, std::numeric_limits<int>::max());
}

TEST(ConfigTest, SchedulerKindNames) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kNodc), "NODC");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kAsl), "ASL");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kC2pl), "C2PL");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kOpt), "OPT");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kGow), "GOW");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kLow), "LOW");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kLowLb), "LOW-LB");
}

}  // namespace
}  // namespace wtpgsched
