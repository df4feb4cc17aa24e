// Tests: automatic SegR renewal — reservations stay alive indefinitely,
// demands track utilization, whitelists survive version bumps, and live
// EER sessions keep flowing across a 20-minute simulated run.
#include <gtest/gtest.h>

#include "colibri/app/testbed.hpp"
#include "colibri/cserv/renewal_manager.hpp"

namespace colibri::cserv {
namespace {

class RenewalManagerTest : public ::testing::Test {
 protected:
  RenewalManagerTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    bed_.provision_all_segments(1000, 2'000'000);
  }

  SimClock clock_;
  app::Testbed bed_;
};

TEST_F(RenewalManagerTest, ManageAllLocalPicksUpOwnSegrs) {
  const AsId src{1, 110};
  RenewalManager mgr(bed_.cserv(src));
  const size_t n = mgr.manage_all_local();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(mgr.managed(), n);
  // Idempotent.
  EXPECT_EQ(mgr.manage_all_local(), 0u);
}

TEST_F(RenewalManagerTest, RenewsAheadOfExpiryAndActivates) {
  const AsId src{1, 110};
  RenewalManager mgr(bed_.cserv(src));
  mgr.manage_all_local();

  ResKey any_key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) any_key = rec.key;
      });
  const auto rec = bed_.cserv(src).db().segr_copy(any_key);
  ASSERT_TRUE(rec.has_value());
  const UnixSec first_expiry = rec->active.exp_time;

  // Within the lead window nothing happens...
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, 0u);

  // ...but inside it, every managed SegR is renewed and activated.
  clock_.advance(static_cast<TimeNs>(first_expiry - 30 - clock_.now_sec()) *
                 kNsPerSec);
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, mgr.managed());
  EXPECT_EQ(mgr.snapshot().activated, mgr.managed());

  const auto renewed = bed_.cserv(src).db().segr_copy(any_key);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_GT(renewed->active.exp_time, first_expiry);
  EXPECT_GT(renewed->active.version, 0);
  EXPECT_FALSE(renewed->pending.has_value());
}

TEST_F(RenewalManagerTest, PlanBucketsDueKeysByShardInOrder) {
  const AsId src{1, 110};
  auto& db = bed_.cserv(src).db();
  RenewalManager mgr(bed_.cserv(src));
  const size_t managed = mgr.manage_all_local();
  ASSERT_GT(managed, 0u);

  // Nothing due outside the lead window.
  EXPECT_TRUE(mgr.plan(clock_.now_sec()).empty());

  // Everything was provisioned together, so the whole fleet comes due in
  // the same window — the correlated storm, planned as per-shard batches.
  clock_.advance(260 * kNsPerSec);
  const auto batches = mgr.plan(clock_.now_sec());
  size_t total = 0;
  size_t last_shard = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    const auto& batch = batches[i];
    EXPECT_FALSE(batch.due.empty());
    if (i > 0) {
      EXPECT_GT(batch.shard, last_shard);  // ascending shards
    }
    last_shard = batch.shard;
    ResId prev = 0;
    for (const ResKey& key : batch.due) {
      EXPECT_EQ(db.shard_of(key.res_id), batch.shard);
      EXPECT_GE(key.res_id, prev);  // ResId-ordered inside the batch
      prev = key.res_id;
      ++total;
    }
  }
  EXPECT_EQ(total, managed);

  // The tick drains exactly those batches and reports them.
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, managed);
  EXPECT_EQ(mgr.snapshot().batches, batches.size());
}

TEST_F(RenewalManagerTest, WhitelistSurvivesVersionBump) {
  const AsId src{1, 110};
  ResKey key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) key = rec.key;
      });
  const AsId vip{1, 120};
  ASSERT_TRUE(bed_.cserv(src).publish_segr(key, {vip}));

  RenewalManager mgr(bed_.cserv(src));
  mgr.manage(key);
  clock_.advance(260 * kNsPerSec);  // inside the 60 s lead window
  mgr.tick(clock_.now_sec());
  ASSERT_GE(mgr.snapshot().activated, 1u);

  auto advert = bed_.cserv(src).registry().find(key);
  ASSERT_TRUE(advert.has_value());
  EXPECT_EQ(advert->whitelist, std::vector<AsId>{vip});
  EXPECT_GT(advert->exp_time, 1000u + 300u);  // refreshed expiry
}

TEST_F(RenewalManagerTest, SessionsSurviveTwentyMinutes) {
  // The headline behaviour: with renewal managers running at every AS,
  // SegRs never expire underneath EERs, so a session can renew itself
  // far beyond the 5-minute SegR lifetime.
  std::vector<std::unique_ptr<RenewalManager>> managers;
  for (AsId as : bed_.topology().as_ids()) {
    auto mgr = std::make_unique<RenewalManager>(bed_.cserv(as));
    mgr->manage_all_local();
    managers.push_back(std::move(mgr));
  }

  const AsId src{1, 110}, dst{2, 212};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 5'000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());

  for (int second = 0; second < 1200; ++second) {
    clock_.advance(kNsPerSec);
    if (second % 10 == 0) {
      const UnixSec now = clock_.now_sec();
      for (auto& mgr : managers) mgr->tick(now);
      bed_.tick_all();
    }
    ASSERT_TRUE(session.value().maybe_renew()) << "second " << second;
    if (second % 7 == 0) {
      dataplane::FastPacket pkt;
      ASSERT_EQ(session.value().send(500, pkt),
                dataplane::Gateway::Verdict::kOk)
          << "second " << second;
      for (size_t i = 0; i < rec->path.size(); ++i) {
        const auto v = bed_.router(rec->path[i].as).process(pkt);
        ASSERT_TRUE(v == dataplane::BorderRouter::Verdict::kForward ||
                    v == dataplane::BorderRouter::Verdict::kDeliver)
            << "second " << second << " hop " << i;
      }
    }
  }
  // The SegRs rolled over several versions along the way.
  bool versioned = false;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& r) {
        versioned |= r.active.version >= 3;
      });
  EXPECT_TRUE(versioned);
}

TEST_F(RenewalManagerTest, DemandTracksUtilization) {
  const AsId src{1, 110};
  ResKey key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) key = rec.key;
      });
  ASSERT_TRUE(bed_.cserv(src).db().contains_segr(key));

  RenewalManager mgr(bed_.cserv(src));
  mgr.manage(key);
  // Simulate sustained 1.5 Gbps of EER usage being observed.
  bed_.cserv(src).db().with_segr(key, [](reservation::SegrRecord* rec) {
    if (rec != nullptr) rec->eer_allocated_kbps = 1'500'000;
  });
  for (int i = 0; i < 50; ++i) mgr.tick(clock_.now_sec());

  clock_.advance(260 * kNsPerSec);
  mgr.tick(clock_.now_sec());
  const auto renewed = bed_.cserv(src).db().segr_copy(key);
  ASSERT_TRUE(renewed.has_value());
  // Renewed at >= utilization (with forecaster headroom), not at some
  // unrelated static size.
  EXPECT_GE(renewed->active.bw_kbps, 1'500'000u);
}

}  // namespace
}  // namespace colibri::cserv
