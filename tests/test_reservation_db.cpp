// Tests: sharded ReservationDb — stable shard routing, scoped access,
// pair locking, atomic id allocation, snapshots, two-phase sweeps.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "colibri/reservation/db.hpp"

namespace colibri::reservation {
namespace {

const AsId kOwner{1, 10};

SegrRecord make_segr(ResId id, BwKbps bw = 10'000, UnixSec exp = 1'000) {
  SegrRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.seg_type = topology::SegType::kUp;
  rec.hops = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.active = SegrVersion{0, bw, exp};
  return rec;
}

EerRecord make_eer(ResId id, UnixSec exp = 1'000) {
  EerRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.src_host = HostAddr::from_u64(1);
  rec.dst_host = HostAddr::from_u64(2);
  rec.path = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.versions = {EerVersion{0, 100, exp}};
  return rec;
}

TEST(ReservationDbShardingTest, RoutingIsStableAndInRange) {
  for (size_t shards : {1u, 2u, 8u, 13u}) {
    for (ResId id = 1; id < 200; ++id) {
      const size_t s = ReservationDb::shard_of(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ReservationDb::shard_of(id, shards));  // deterministic
    }
  }
}

TEST(ReservationDbShardingTest, SpreadsIdsAcrossShards) {
  constexpr size_t kShards = 8;
  std::vector<size_t> per_shard(kShards, 0);
  for (ResId id = 1; id <= 8'000; ++id) {
    ++per_shard[ReservationDb::shard_of(id, kShards)];
  }
  // splitmix64 over sequential ids must not collapse onto few shards.
  for (size_t n : per_shard) {
    EXPECT_GT(n, 8'000 / kShards / 2);
    EXPECT_LT(n, 8'000 / kShards * 2);
  }
}

TEST(ReservationDbShardingTest, ZeroShardCountClampsToOne) {
  ReservationDb db(kOwner, 0);
  EXPECT_EQ(db.num_shards(), 1u);
  db.upsert_segr(make_segr(1));
  EXPECT_TRUE(db.contains_segr(ResKey{kOwner, 1}));
}

TEST(ReservationDbTest, WithSegrSeesStoredRecordAndAbsence) {
  ReservationDb db(kOwner, 4);
  db.upsert_segr(make_segr(5, 7'777));
  const BwKbps bw = db.with_segr(ResKey{kOwner, 5}, [](SegrRecord* rec) {
    return rec == nullptr ? 0u : rec->active.bw_kbps;
  });
  EXPECT_EQ(bw, 7'777u);
  const bool absent = db.with_segr(ResKey{kOwner, 6}, [](SegrRecord* rec) {
    return rec == nullptr;
  });
  EXPECT_TRUE(absent);
}

TEST(ReservationDbTest, WithSegrMutatesInPlace) {
  ReservationDb db(kOwner, 4);
  db.upsert_segr(make_segr(5));
  db.with_segr(ResKey{kOwner, 5}, [](SegrRecord* rec) {
    ASSERT_NE(rec, nullptr);
    rec->eer_allocated_kbps = 42;
  });
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, 5})->eer_allocated_kbps, 42u);
}

TEST(ReservationDbTest, WithSegrPairLocksBothOrEither) {
  ReservationDb db(kOwner, 8);
  // Find two ids landing on different shards and two on the same shard.
  ResId a = 1, b = 2;
  while (db.shard_of(b) == db.shard_of(a)) ++b;
  ResId c = b + 1;
  while (db.shard_of(c) != db.shard_of(a)) ++c;
  db.upsert_segr(make_segr(a));
  db.upsert_segr(make_segr(b));
  db.upsert_segr(make_segr(c));

  // Distinct shards.
  db.with_segr_pair(ResKey{kOwner, a}, ResKey{kOwner, b},
                    [](SegrRecord* ra, SegrRecord* rb) {
                      ASSERT_NE(ra, nullptr);
                      ASSERT_NE(rb, nullptr);
                      ra->eer_allocated_kbps = 1;
                      rb->eer_allocated_kbps = 2;
                    });
  // Same shard (must not deadlock on a double lock).
  db.with_segr_pair(ResKey{kOwner, a}, ResKey{kOwner, c},
                    [](SegrRecord* ra, SegrRecord* rc) {
                      ASSERT_NE(ra, nullptr);
                      ASSERT_NE(rc, nullptr);
                    });
  // No second key.
  db.with_segr_pair(ResKey{kOwner, a}, std::nullopt,
                    [](SegrRecord* ra, SegrRecord* rb) {
                      ASSERT_NE(ra, nullptr);
                      EXPECT_EQ(rb, nullptr);
                    });
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, a})->eer_allocated_kbps, 1u);
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, b})->eer_allocated_kbps, 2u);
}

TEST(ReservationDbTest, CountsAndSnapshotsSpanAllShards) {
  ReservationDb db(kOwner, 8);
  for (ResId id = 1; id <= 100; ++id) db.upsert_segr(make_segr(id));
  for (ResId id = 200; id < 250; ++id) db.upsert_eer(make_eer(id));
  EXPECT_EQ(db.segr_count(), 100u);
  EXPECT_EQ(db.eer_count(), 50u);

  std::set<ResId> seen;
  for (const auto& rec : db.segr_snapshot()) seen.insert(rec.key.res_id);
  EXPECT_EQ(seen.size(), 100u);
  size_t eers = 0;
  db.for_each_eer([&](const EerRecord&) { ++eers; });
  EXPECT_EQ(eers, 50u);
}

TEST(ReservationDbTest, TwoPhaseSweepRunsCallbacksOnCopies) {
  ReservationDb db(kOwner, 4);
  for (ResId id = 1; id <= 20; ++id) db.upsert_segr(make_segr(id, 10'000, 100));
  db.upsert_segr(make_segr(21, 10'000, 9'999));  // survives

  std::vector<ResKey> removed;
  const size_t n = db.sweep_segrs(500, [&](const SegrRecord& rec) {
    removed.push_back(rec.key);
    // Callback may re-enter the db: the lock is already dropped.
    EXPECT_FALSE(db.contains_segr(rec.key));
  });
  EXPECT_EQ(n, 20u);
  EXPECT_EQ(removed.size(), 20u);
  EXPECT_EQ(db.segr_count(), 1u);
}

TEST(ReservationDbTest, SweepEersDropsExpiredVersionsOnly) {
  ReservationDb db(kOwner, 4);
  db.upsert_eer(make_eer(1, 100));
  auto live = make_eer(2, 100);
  live.versions.push_back(EerVersion{1, 100, 900});  // renewed
  db.upsert_eer(std::move(live));
  // EERs set up together expire together (§3.2): a fleet due at the
  // same instant, spread over every shard.
  for (ResId id = 3; id <= 2'000; ++id) db.upsert_eer(make_eer(id, 100));
  EXPECT_EQ(db.sweep_eers(99, nullptr), 0u);

  size_t removed = 0;
  std::set<size_t> shards;
  db.sweep_eers(500, [&](const EerRecord& rec) {
    ++removed;
    shards.insert(db.shard_of(rec.key.res_id));
  });
  EXPECT_EQ(removed, 1'999u);
  EXPECT_EQ(shards.size(), db.num_shards());
  EXPECT_FALSE(db.contains_eer(ResKey{kOwner, 1}));
  EXPECT_TRUE(db.contains_eer(ResKey{kOwner, 2}));
  EXPECT_EQ(db.eer_count(), 1u);
}

TEST(ReservationDbTest, NextResIdIsUniqueAcrossThreads) {
  ReservationDb db(kOwner, 8);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20'000;
  std::vector<std::vector<ResId>> minted(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &minted, t] {
      minted[t].reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        minted[t].push_back(db.next_res_id());
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<ResId> unique;
  for (const auto& ids : minted) {
    for (ResId id : ids) {
      EXPECT_GT(id, 0u);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(), kThreads * kPerThread);
  EXPECT_EQ(db.last_res_id(), kThreads * kPerThread);
}

TEST(ReservationDbTest, ReserveIdsThroughNeverLowersTheFloor) {
  ReservationDb db(kOwner);
  db.reserve_ids_through(100);
  EXPECT_EQ(db.next_res_id(), 101u);
  db.reserve_ids_through(50);  // lower floor: no-op
  EXPECT_EQ(db.next_res_id(), 102u);
}

}  // namespace
}  // namespace colibri::reservation
