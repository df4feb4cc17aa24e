// Stress tests: sharded control plane under concurrency. Built to run in
// the CI race lane (TSan) — the assertions are deliberately about
// invariants that hold under any interleaving, and the value of the suite
// is the interleavings themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/reservation/db.hpp"
#include "colibri/telemetry/audit.hpp"

namespace colibri {
namespace {

const AsId kOwner{1, 10};

reservation::SegrRecord make_segr(ResId id, BwKbps bw) {
  reservation::SegrRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.seg_type = topology::SegType::kUp;
  rec.hops = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.active = reservation::SegrVersion{0, bw, 1 << 30};
  return rec;
}

TEST(ControlPlaneStressTest, ConcurrentAdmitReleaseKeepsLedgerConsistent) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 1'000;
  constexpr BwKbps kDemand = 100;

  reservation::ReservationDb db(kOwner, 8);
  admission::EerAdmission adm(8);
  std::vector<ResKey> segr_keys;
  for (ResId id = 1; id <= 16; ++id) {
    // Ample capacity: every admit must succeed.
    db.upsert_segr(make_segr(id, kThreads * kPerThread * kDemand));
    segr_keys.push_back(ResKey{kOwner, id});
  }

  std::atomic<size_t> live{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        admission::EerAdmission::Request req;
        req.eer_key = ResKey{kOwner, db.next_res_id()};
        req.demand_kbps = kDemand;
        req.segr_in = segr_keys[(t * kPerThread + i) % segr_keys.size()];
        auto granted = adm.admit(db, req, 0);
        ASSERT_TRUE(granted.ok());
        // Half the admissions release immediately (churn).
        if (i % 2 == 0) {
          adm.release(db, req.eer_key);
        } else {
          live.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(adm.tracked(), live.load());
  BwKbps allocated = 0;
  db.for_each_segr([&](const reservation::SegrRecord& rec) {
    allocated += rec.eer_allocated_kbps;
  });
  EXPECT_EQ(allocated, live.load() * kDemand);
}

TEST(ControlPlaneStressTest, SnapshotReadersRaceWriters) {
  reservation::ReservationDb db(kOwner, 8);
  constexpr size_t kRecords = 4'000;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (ResId id = 1; id <= kRecords; ++id) {
      db.upsert_segr(make_segr(id, 1'000));
      db.with_segr(ResKey{kOwner, id}, [](reservation::SegrRecord* rec) {
        if (rec != nullptr) rec->eer_allocated_kbps = 7;
      });
    }
    stop.store(true);
  });

  size_t max_seen = 0;
  std::vector<std::thread> readers;
  std::mutex max_mu;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto snap = db.segr_snapshot();
        EXPECT_TRUE(db.eer_snapshot().empty());  // no EERs in this test
        std::lock_guard lock(max_mu);
        max_seen = std::max(max_seen, snap.size());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(db.segr_count(), kRecords);
  EXPECT_LE(max_seen, kRecords);
}

// A correlated fleet (§3.2): EERs admitted together onto SegRs set up
// together, so they all come due at one instant.
class Fleet {
 public:
  static constexpr size_t kShards = 8;
  static constexpr BwKbps kEerBw = 100;
  static constexpr UnixSec kSetup = 1'000;

  Fleet() {
    for (int k = 0; k < 16; ++k) {
      const ResKey key{kOwner, db_.next_res_id()};
      db_.upsert_segr(make_segr(key.res_id, 40'000'000));
      segrs_.push_back(key);
    }
  }

  // Admits `n` EERs whose one version expires at `exp_time`; returns
  // their indices.
  std::vector<size_t> admit(size_t n, UnixSec exp_time) {
    std::vector<size_t> added;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = eers_.size();
      eers_.push_back(ResKey{kOwner, db_.next_res_id()});
      const auto granted = adm_.admit(db_, request(i), kSetup);
      EXPECT_TRUE(granted.ok());
      db_.upsert_eer(record(i, {0, granted.value(), exp_time}));
      added.push_back(i);
    }
    return added;
  }

  // One AS's part of a renewal as Handlers::run drives it: admit,
  // keeping the allocation it supersedes, settle at the end-to-end
  // bandwidth, then store the new version. A record a sweep removed
  // meanwhile is re-created, as EerPass::store does.
  void renew(size_t i, UnixSec now) {
    admission::EerAdmission::Superseded superseded;
    const auto granted = adm_.admit(db_, request(i), now, &superseded);
    if (!granted) return;
    adm_.settle(db_, eers_[i], granted.value(), superseded);
    const reservation::EerVersion ver{
        1, granted.value(), now + reservation::kEerLifetimeSec};
    const bool stored =
        db_.with_eer(eers_[i], [&](reservation::EerRecord* rec) {
          if (rec == nullptr) return false;
          rec->prune(now);
          rec->versions.push_back(ver);
          return true;
        });
    if (!stored) db_.upsert_eer(record(i, ver));
    renewed_.fetch_add(1);
  }

  // Renews `indices` on `threads` workers that split the db shards
  // round-robin while a sweeper, started once a quarter of them are
  // in, expires the EERs due at `sweep_at` and releases them. Returns
  // what the sweep removed.
  size_t renew_racing_sweep(const std::vector<size_t>& indices,
                            size_t threads, UnixSec now, UnixSec sweep_at) {
    std::atomic<bool> done{false};
    size_t swept = 0;
    std::thread sweeper([&] {
      while (renewed_.load() < indices.size() / 4 && !done.load()) {
        std::this_thread::yield();
      }
      swept = sweep(sweep_at);
    });
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i : indices) {
          if (db_.shard_of(eers_[i].res_id) % threads == t) renew(i, now);
        }
      });
    }
    for (auto& w : workers) w.join();
    done.store(true);
    sweeper.join();
    return swept;
  }

  size_t renewed() const { return renewed_.load(); }

  // Sweeps EERs expired at `now`, releasing their allocations.
  size_t sweep(UnixSec now) {
    return db_.sweep_eers(now, [&](const reservation::EerRecord& rec) {
      adm_.release(db_, rec.key);
    });
  }

  // Conservation audit of this AS: tube invariants and the stripe
  // ledger against the db counters.
  telemetry::AuditReport audit(UnixSec now) const {
    SimClock clock;
    telemetry::ConservationAuditor auditor(clock);
    auditor.add_target({"owner", kOwner, &db_, &adm_, nullptr});
    return auditor.run(now);
  }

  std::map<ResKey, BwKbps> allocations() const {
    std::map<ResKey, BwKbps> out;
    for (const auto& rec : db_.segr_snapshot()) {
      out[rec.key] = rec.eer_allocated_kbps;
    }
    return out;
  }

  reservation::ReservationDb& db() { return db_; }
  const admission::EerAdmission& admission() const { return adm_; }

 private:
  admission::EerAdmission::Request request(size_t i) const {
    admission::EerAdmission::Request req;
    req.eer_key = eers_[i];
    req.demand_kbps = kEerBw;
    req.segr_in = segrs_[i % segrs_.size()];
    return req;
  }

  reservation::EerRecord record(size_t i,
                                const reservation::EerVersion& ver) const {
    reservation::EerRecord rec;
    rec.key = eers_[i];
    rec.path = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
    rec.segrs = {segrs_[i % segrs_.size()]};
    rec.versions = {ver};
    return rec;
  }

  reservation::ReservationDb db_{kOwner, kShards};
  admission::EerAdmission adm_{kShards};
  std::vector<ResKey> segrs_;
  std::vector<ResKey> eers_;
  std::atomic<size_t> renewed_{0};
};

TEST(ControlPlaneStressTest, SweepRacesBatchedRenewalDrain) {
  constexpr size_t kEers = 4'000;
  const UnixSec due = Fleet::kSetup + reservation::kEerLifetimeSec;
  Fleet fleet;
  const auto eers = fleet.admit(kEers, due);

  // Renewals run at the storm instant; once a quarter are in, a sweeper
  // expires whatever has not been renewed yet — the mid-storm race the
  // two-phase sweep is built for.
  const UnixSec now = due;
  const size_t swept = fleet.renew_racing_sweep(eers, 2, now, now + 1);

  // Every renewal is granted; one that loses the race to the sweep
  // re-creates its record, so the whole fleet outlives the storm.
  EXPECT_EQ(fleet.renewed(), kEers);
  EXPECT_LE(swept, kEers - kEers / 4);
  EXPECT_EQ(fleet.db().eer_count(), kEers);
  fleet.db().for_each_eer([&](const reservation::EerRecord& rec) {
    EXPECT_FALSE(rec.expired(now + 1));
    EXPECT_EQ(rec.versions.back().version, 1u);
  });
  // A release that lands after a renewal's admit drops its allocation,
  // so the ledger may track fewer EERs than live, never more.
  EXPECT_LE(fleet.admission().tracked(), kEers);
  const auto report = fleet.audit(now + 1);
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.clean()) << report.violations.front().check << ": "
                              << report.violations.front().detail;
}

TEST(ControlPlaneStressTest, ParallelDrainWorkersSplitTheShards) {
  constexpr size_t kEers = 8'000;
  constexpr size_t kStale = 2'000;
  const UnixSec due = Fleet::kSetup + reservation::kEerLifetimeSec;
  Fleet fleet;
  const auto eers = fleet.admit(kEers, due);
  // A cohort that expired before the storm, swept while the workers
  // renew the fleet on the same shards, stripes and SegR counters.
  fleet.admit(kStale, Fleet::kSetup + 8);
  const auto allocated_before = fleet.allocations();

  const UnixSec now = due - 1;
  const size_t swept = fleet.renew_racing_sweep(eers, 4, now, now);

  EXPECT_EQ(fleet.renewed(), kEers);
  EXPECT_EQ(swept, kStale);
  EXPECT_EQ(fleet.db().eer_count(), kEers);
  EXPECT_EQ(fleet.admission().tracked(), kEers);
  // Every EER gained version 1 at the same bandwidth, so each SegR's
  // allocation is what the renewed fleet held before, less the swept
  // cohort's share — the same end state as one thread.
  fleet.db().for_each_eer([&](const reservation::EerRecord& rec) {
    ASSERT_FALSE(rec.versions.empty());
    EXPECT_EQ(rec.versions.back().version, 1u);
    EXPECT_EQ(rec.versions.back().bw_kbps, Fleet::kEerBw);
    EXPECT_EQ(rec.versions.back().exp_time,
              now + reservation::kEerLifetimeSec);
  });
  for (const auto& [key, bw] : fleet.allocations()) {
    EXPECT_EQ(bw, allocated_before.at(key) -
                      kStale / allocated_before.size() * Fleet::kEerBw);
  }

  // The renewed fleet survives the storm instant.
  EXPECT_EQ(fleet.sweep(due + 1), 0u);
  const auto report = fleet.audit(due + 1);
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.clean()) << report.violations.front().check << ": "
                              << report.violations.front().detail;
}

TEST(ControlPlaneStressTest, ConcurrentIdAllocationNeverCollides) {
  reservation::ReservationDb db(kOwner, 8);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5'000;
  std::vector<std::vector<ResId>> minted(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &minted, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        minted[t].push_back(db.next_res_id());
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<ResId> all;
  for (auto& ids : minted) all.insert(all.end(), ids.begin(), ids.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace colibri
