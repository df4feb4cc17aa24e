// Tests: renewal-storm scenario — correlated expiry, the batched drain's
// end state, per-shard batch shape.
#include <gtest/gtest.h>

#include <map>

#include "colibri/app/renewal_storm.hpp"

namespace colibri::app {
namespace {

RenewalStormConfig small_config() {
  RenewalStormConfig cfg;
  cfg.num_eers = 2'000;
  cfg.num_segrs = 16;
  cfg.shards = 8;
  return cfg;
}

// Per-SegR allocation counters, keyed for comparison across storms.
std::map<ResKey, BwKbps> allocations(RenewalStorm& storm) {
  std::map<ResKey, BwKbps> out;
  for (const auto& rec : storm.db().segr_snapshot()) {
    out[rec.key] = rec.eer_allocated_kbps;
  }
  return out;
}

TEST(RenewalStormTest, PopulateBuildsCorrelatedFleet) {
  RenewalStorm storm(small_config());
  storm.populate();
  EXPECT_EQ(storm.db().segr_count(), 16u);
  EXPECT_EQ(storm.db().eer_count(), 2'000u);
  // Every EER expires at the same instant — the storm.
  storm.db().for_each_eer([&](const reservation::EerRecord& rec) {
    ASSERT_EQ(rec.versions.size(), 1u);
    EXPECT_EQ(rec.versions.front().exp_time, storm.storm_expiry());
  });
}

TEST(RenewalStormTest, UnrenewedFleetSweepsOutTogether) {
  RenewalStorm storm(small_config());
  storm.populate();
  size_t removed = 0;
  storm.db().sweep_eers(storm.storm_expiry() + 1,
                        [&](const reservation::EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 2'000u);
  EXPECT_EQ(storm.db().eer_count(), 0u);
}

TEST(RenewalStormTest, BatchedDrainRenewsEverythingBeforeExpiry) {
  RenewalStorm storm(small_config());
  storm.populate();
  const auto allocated_before = allocations(storm);
  const UnixSec now = storm.storm_expiry();
  const auto st = storm.drain_batched(now);
  EXPECT_EQ(st.renewed, 2'000u);
  EXPECT_EQ(st.failed, 0u);
  // One batch per non-empty shard, ResId-ordered inside.
  EXPECT_EQ(st.batches, 8u);
  EXPECT_GE(st.max_batch, 2'000u / 8);
  EXPECT_LT(st.max_batch, 2'000u);

  // Every EER's version was bumped at the same bandwidth; a renewal at
  // an unchanged bandwidth leaves every per-SegR allocation counter as
  // it was.
  for (const auto& rec : storm.db().eer_snapshot()) {
    ASSERT_FALSE(rec.versions.empty());
    EXPECT_EQ(rec.versions.back().version, 1u);
    EXPECT_EQ(rec.versions.back().exp_time,
              now + storm.config().renew_lifetime_sec);
    EXPECT_EQ(rec.versions.back().bw_kbps, storm.config().eer_bw_kbps);
  }
  EXPECT_EQ(allocations(storm), allocated_before);

  // The renewed fleet survives the storm instant.
  size_t removed = 0;
  storm.db().sweep_eers(storm.storm_expiry() + 1,
                        [&](const reservation::EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(storm.db().eer_count(), 2'000u);
}

TEST(RenewalStormTest, MultiThreadedDrainMatchesSingleThreaded) {
  RenewalStormConfig cfg = small_config();
  RenewalStorm single(cfg);
  cfg.threads = 4;
  RenewalStorm threaded(cfg);
  single.populate();
  threaded.populate();

  const UnixSec now = single.storm_expiry();
  const auto sst = single.drain_batched(now);
  const auto tst = threaded.drain_batched(now);

  EXPECT_EQ(sst.renewed, tst.renewed);
  EXPECT_EQ(sst.failed, tst.failed);
  EXPECT_EQ(sst.batches, tst.batches);
  EXPECT_EQ(allocations(single), allocations(threaded));
}

}  // namespace
}  // namespace colibri::app
