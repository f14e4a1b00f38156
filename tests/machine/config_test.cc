#include "machine/config.h"

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
