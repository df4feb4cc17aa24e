// Unit tests: token bucket, reservation table, duplicate suppression,
// OFD, blocklist, and the gateway <-> border-router HVF interoperability
// (Eqs. 3, 4, 6).
#include <gtest/gtest.h>

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/blocklist.hpp"
#include "colibri/dataplane/dupsup.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/ofd.hpp"
#include "colibri/dataplane/restable.hpp"
#include "colibri/dataplane/router.hpp"

namespace colibri::dataplane {
namespace {

const AsId kSrcAs{1, 10};
const AsId kMidAs{1, 20};
const AsId kDstAs{1, 30};

drkey::Key128 key_of(std::uint8_t seed) {
  drkey::Key128 k;
  k.bytes.fill(seed);
  return k;
}

// --- TokenBucket -------------------------------------------------------------

TEST(TokenBucketTest, AllowsBurstThenBlocks) {
  TokenBucket tb(/*rate=*/8, /*burst=*/1000, /*now=*/0);  // 8 kbps = 1 KB/s
  EXPECT_TRUE(tb.allow(1000, 0));   // full burst
  EXPECT_FALSE(tb.allow(1, 0));     // drained
}

TEST(TokenBucketTest, RefillsAtRate) {
  TokenBucket tb(8, 1000, 0);  // 1000 B/s
  ASSERT_TRUE(tb.allow(1000, 0));
  EXPECT_FALSE(tb.allow(500, 100 * 1'000'000));  // 0.1 s -> 100 B refilled
  EXPECT_TRUE(tb.allow(500, 500 * 1'000'000));   // 0.5 s -> 500 B
}

TEST(TokenBucketTest, CapsAtBurst) {
  TokenBucket tb(8, 1000, 0);
  // Long idle: tokens capped at burst, not unbounded.
  EXPECT_TRUE(tb.allow(1000, 100 * kNsPerSec));
  EXPECT_FALSE(tb.allow(200, 100 * kNsPerSec));
}

TEST(TokenBucketTest, SubResolutionIntervalsAccumulate) {
  // 1 kbps = 125 B/s: a single 1 µs step refills 0.125 mB (milli-bytes);
  // 8000 steps of 1 µs must together refill ~1 B, not zero.
  TokenBucket tb(1, 10, 0);
  ASSERT_TRUE(tb.allow(10, 0));
  TimeNs t = 0;
  for (int i = 0; i < 8000; ++i) {
    t += 1000;
    (void)tb.allow(0, t);
  }
  EXPECT_GE(tb.available_bytes(), 1u);
}

TEST(TokenBucketTest, SustainedRateConverges) {
  // Offered exactly at rate: nearly all packets conform.
  TokenBucket tb(8000, 2000, 0);  // 1 MB/s
  int allowed = 0;
  TimeNs t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += 1'000'000;  // 1 ms -> 1000 B budget
    if (tb.allow(1000, t)) ++allowed;
  }
  EXPECT_GE(allowed, 990);
}

TEST(TokenBucketTest, DoubleRateDropsHalf) {
  TokenBucket tb(8000, 2000, 0);  // 1 MB/s
  int allowed = 0;
  TimeNs t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 500'000;  // 2 MB/s offered
    if (tb.allow(1000, t)) ++allowed;
  }
  EXPECT_NEAR(allowed, 1000, 30);
}

// --- ResTable ----------------------------------------------------------------

TEST(ResTableTest, InsertFindErase) {
  ResTable table(16);
  GatewayEntry e;
  e.resinfo.res_id = 5;
  EXPECT_TRUE(table.insert(5, e));
  ASSERT_NE(table.find(5), nullptr);
  EXPECT_EQ(table.find(5)->resinfo.res_id, 5u);
  EXPECT_EQ(table.find(6), nullptr);
  EXPECT_TRUE(table.erase(5));
  EXPECT_EQ(table.find(5), nullptr);
  EXPECT_FALSE(table.erase(5));
}

TEST(ResTableTest, RejectsReservedIds) {
  ResTable table(16);
  EXPECT_FALSE(table.insert(0, GatewayEntry{}));
  EXPECT_FALSE(table.insert(0xFFFFFFFF, GatewayEntry{}));
}

TEST(ResTableTest, GrowsUnderLoad) {
  ResTable table(4);
  const size_t initial_cap = table.capacity();
  for (ResId i = 1; i <= 1000; ++i) {
    GatewayEntry e;
    e.resinfo.res_id = i;
    ASSERT_TRUE(table.insert(i, e));
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_GT(table.capacity(), initial_cap);
  for (ResId i = 1; i <= 1000; ++i) {
    ASSERT_NE(table.find(i), nullptr) << i;
    EXPECT_EQ(table.find(i)->resinfo.res_id, i);
  }
}

TEST(ResTableTest, TombstonesDoNotBreakProbing) {
  ResTable table(8);
  for (ResId i = 1; i <= 50; ++i) table.insert(i, GatewayEntry{});
  for (ResId i = 1; i <= 50; i += 2) table.erase(i);
  for (ResId i = 2; i <= 50; i += 2) {
    EXPECT_NE(table.find(i), nullptr) << i;
  }
  for (ResId i = 1; i <= 50; i += 2) {
    EXPECT_EQ(table.find(i), nullptr) << i;
  }
  // Reinsertion reuses tombstones.
  for (ResId i = 1; i <= 50; i += 2) EXPECT_TRUE(table.insert(i, GatewayEntry{}));
  EXPECT_EQ(table.size(), 50u);
}

TEST(ResTableTest, RandomizedAgainstReference) {
  Rng rng(13);
  ResTable table(16);
  std::unordered_map<ResId, bool> reference;
  for (int i = 0; i < 5000; ++i) {
    const ResId id = static_cast<ResId>(1 + rng.below(300));
    if (rng.below(3) == 0) {
      EXPECT_EQ(table.erase(id), reference.erase(id) > 0);
    } else {
      GatewayEntry e;
      e.resinfo.res_id = id;
      table.insert(id, e);
      reference[id] = true;
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [id, _] : reference) EXPECT_NE(table.find(id), nullptr);
}

// --- DuplicateSuppression ------------------------------------------------------

TEST(BloomFilterTest, TestAndSet) {
  BloomFilter f(1 << 10, 4);
  EXPECT_FALSE(f.test(1, 3));
  EXPECT_FALSE(f.test_and_set(1, 3));
  EXPECT_TRUE(f.test(1, 3));
  EXPECT_TRUE(f.test_and_set(1, 3));
  f.clear();
  EXPECT_FALSE(f.test(1, 3));
}

TEST(BloomFilterTest, FalsePositiveRateNearPrediction) {
  const size_t bits = 1 << 14;
  const int k = 4;
  const size_t n = 1500;
  BloomFilter f(bits, k);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    f.test_and_set(rng.next(), rng.next() | 1);
  }
  int fp = 0;
  const int probes = 20'000;
  for (int i = 0; i < probes; ++i) {
    if (f.test(rng.next(), rng.next() | 1)) ++fp;
  }
  const double measured = static_cast<double>(fp) / probes;
  const double predicted = BloomFilter::predicted_fpr(bits, k, n);
  EXPECT_LT(measured, predicted * 3 + 0.01);
}

TEST(DupSupTest, DetectsReplay) {
  DuplicateSuppression ds;
  const TimeNs now = 10 * kNsPerSec;
  EXPECT_EQ(ds.check(kSrcAs, 1, 100, now, now),
            DuplicateSuppression::Verdict::kFresh);
  EXPECT_EQ(ds.check(kSrcAs, 1, 100, now, now),
            DuplicateSuppression::Verdict::kDuplicate);
  EXPECT_EQ(ds.duplicates_seen(), 1u);
}

TEST(DupSupTest, DistinctTimestampsPass) {
  DuplicateSuppression ds;
  const TimeNs now = 10 * kNsPerSec;
  for (std::uint32_t ts = 1; ts <= 100; ++ts) {
    EXPECT_EQ(ds.check(kSrcAs, 1, ts, now, now),
              DuplicateSuppression::Verdict::kFresh);
  }
}

TEST(DupSupTest, RemembersAcrossOneRotation) {
  DupSupConfig cfg;
  cfg.window_ns = kNsPerSec;
  DuplicateSuppression ds(cfg);
  TimeNs t = 0;
  EXPECT_EQ(ds.check(kSrcAs, 1, 7, t, t), DuplicateSuppression::Verdict::kFresh);
  // After one rotation the identifier lives in the previous filter.
  t = kNsPerSec + 100;
  EXPECT_EQ(ds.check(kSrcAs, 1, 7, t, t),
            DuplicateSuppression::Verdict::kDuplicate);
}

TEST(DupSupTest, StalePacketsRejected) {
  DupSupConfig cfg;
  cfg.window_ns = kNsPerSec;
  DuplicateSuppression ds(cfg);
  const TimeNs now = 10 * kNsPerSec;
  // Timestamp 5 s old: beyond both windows.
  EXPECT_EQ(ds.check(kSrcAs, 1, 7, now - 5 * kNsPerSec, now),
            DuplicateSuppression::Verdict::kStale);
  EXPECT_EQ(ds.stale_seen(), 1u);
}

// --- OFD -----------------------------------------------------------------------

TEST(OfdTest, HonestFlowStaysClean) {
  OverUseFlowDetector ofd;
  // 1 Mbps reservation, sending exactly at rate: 125 B/ms.
  TimeNs t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 1'000'000;
    const auto v = ofd.update(kSrcAs, 1, 125, 1000, t);
    ASSERT_EQ(v, OverUseFlowDetector::Verdict::kOk) << "packet " << i;
  }
  EXPECT_EQ(ofd.watchlist_size(), 0u);
}

TEST(OfdTest, OveruserFlaggedThenConfirmed) {
  OverUseFlowDetector ofd;
  // 1 Mbps reservation, sending 10x: 1250 B/ms.
  TimeNs t = 0;
  bool flagged = false;
  bool confirmed = false;
  for (int i = 0; i < 5000 && !confirmed; ++i) {
    t += 1'000'000;
    const auto v = ofd.update(kSrcAs, 2, 1250, 1000, t);
    flagged |= v == OverUseFlowDetector::Verdict::kSuspicious;
    confirmed |= v == OverUseFlowDetector::Verdict::kOveruse;
  }
  EXPECT_TRUE(flagged);
  EXPECT_TRUE(confirmed);
  EXPECT_GE(ofd.confirmed_total(), 1u);
}

TEST(OfdTest, WatchedFlowWithinRatePasses) {
  OverUseFlowDetector ofd;
  TimeNs t = 0;
  // Force the flow onto the watchlist by bursting.
  for (int i = 0; i < 20000; ++i) {
    t += 100'000;
    if (ofd.update(kSrcAs, 3, 12500, 1000, t) !=
        OverUseFlowDetector::Verdict::kOk) {
      break;
    }
  }
  ASSERT_EQ(ofd.watchlist_size(), 1u);
  // Now behave: send at the reserved rate; after the bucket refills, the
  // verdicts must be kWatched (not kOveruse).
  t += 2 * kNsPerSec;
  int watched = 0;
  for (int i = 0; i < 100; ++i) {
    t += 1'000'000;
    if (ofd.update(kSrcAs, 3, 125, 1000, t) ==
        OverUseFlowDetector::Verdict::kWatched) {
      ++watched;
    }
  }
  EXPECT_GE(watched, 95);
}

TEST(OfdTest, ZeroBandwidthIsOveruse) {
  OverUseFlowDetector ofd;
  EXPECT_EQ(ofd.update(kSrcAs, 4, 100, 0, 0),
            OverUseFlowDetector::Verdict::kOveruse);
}

TEST(OfdTest, EpochRotationResetsSketch) {
  OfdConfig cfg;
  cfg.epoch_ns = kNsPerSec;
  OverUseFlowDetector ofd(cfg);
  ofd.update(kSrcAs, 5, 10000, 1000, 100);
  EXPECT_GT(ofd.estimate(kSrcAs, 5), 0.0);
  ofd.update(kSrcAs, 6, 100, 1000, 2 * kNsPerSec);  // triggers rotation
  EXPECT_NEAR(ofd.estimate(kSrcAs, 5), 0.0, 1e-9);
}

// --- Blocklist ------------------------------------------------------------------

TEST(BlocklistTest, BlockUnblock) {
  Blocklist bl;
  EXPECT_FALSE(bl.blocked(kSrcAs));
  bl.block(kSrcAs);
  EXPECT_TRUE(bl.blocked(kSrcAs));
  bl.unblock(kSrcAs);
  EXPECT_FALSE(bl.blocked(kSrcAs));
}

TEST(BlocklistTest, ReportBlocksAndLogs) {
  Blocklist bl;
  bl.report(OffenseReport{kSrcAs, 7, 123, 4567});
  EXPECT_TRUE(bl.blocked(kSrcAs));
  ASSERT_EQ(bl.reports().size(), 1u);
  EXPECT_EQ(bl.reports()[0].reservation, 7u);
  const auto drained = bl.drain_reports();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_TRUE(bl.reports().empty());
}

// --- Gateway + BorderRouter end-to-end -------------------------------------------

class DataPathTest : public ::testing::Test {
 protected:
  DataPathTest()
      : gateway_(kSrcAs, clock_),
        router_src_(kSrcAs, key_of(1), clock_),
        router_mid_(kMidAs, key_of(2), clock_),
        router_dst_(kDstAs, key_of(3), clock_) {
    clock_.set(100 * kNsPerSec);
    resinfo_.src_as = kSrcAs;
    resinfo_.res_id = 42;
    resinfo_.bw_kbps = 100'000;
    resinfo_.exp_time = 200;
    resinfo_.version = 1;
    eerinfo_.src_host = HostAddr::from_u64(0xAAA);
    eerinfo_.dst_host = HostAddr::from_u64(0xBBB);
    path_ = {topology::Hop{kSrcAs, kNoInterface, 1},
             topology::Hop{kMidAs, 2, 3},
             topology::Hop{kDstAs, 4, kNoInterface}};
    install();
  }

  void install() {
    // σ_i computed by each on-path AS from its own key (Eq. 4) — here
    // built directly, standing in for the control-plane exchange.
    sigmas_.clear();
    const drkey::Key128 keys[] = {key_of(1), key_of(2), key_of(3)};
    for (size_t i = 0; i < path_.size(); ++i) {
      crypto::Aes128 cipher(keys[i].bytes.data());
      sigmas_.push_back(compute_hopauth(cipher, resinfo_, eerinfo_,
                                        path_[i].ingress, path_[i].egress));
    }
    ASSERT_TRUE(gateway_.install(resinfo_, eerinfo_, path_, sigmas_));
  }

  SimClock clock_;
  dataplane::Gateway gateway_;
  BorderRouter router_src_;
  BorderRouter router_mid_;
  BorderRouter router_dst_;
  proto::ResInfo resinfo_;
  proto::EerInfo eerinfo_;
  std::vector<topology::Hop> path_;
  std::vector<HopAuth> sigmas_;
};

TEST_F(DataPathTest, PacketTraversesAllRouters) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  EXPECT_EQ(pkt.current_hop, 0);
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
  EXPECT_EQ(pkt.current_hop, 1);
  EXPECT_EQ(router_mid_.process(pkt), BorderRouter::Verdict::kForward);
  EXPECT_EQ(pkt.current_hop, 2);
  EXPECT_EQ(router_dst_.process(pkt), BorderRouter::Verdict::kDeliver);
  EXPECT_EQ(router_dst_.snapshot().delivered, 1u);
}

TEST_F(DataPathTest, UnknownReservationRejectedAtGateway) {
  FastPacket pkt;
  EXPECT_EQ(gateway_.process(99, 100, pkt), Gateway::Verdict::kNoReservation);
}

TEST_F(DataPathTest, TamperedHvfRejected) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  pkt.hvfs[0][0] ^= 1;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, TamperedSizeRejected) {
  // PktSize is authenticated (Eq. 6): shrinking the claimed payload to
  // cheat the monitors breaks the MAC.
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  pkt.payload_bytes = 5;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, TamperedBandwidthRejected) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  pkt.resinfo.bw_kbps *= 2;  // claim a bigger reservation
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, TamperedHostsRejected) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  pkt.eerinfo.dst_host = HostAddr::from_u64(0xCCC);
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, WrongInterfacesRejected) {
  // Path splicing: rerouting the packet over different interfaces breaks
  // σ_i, which binds (In_i, Eg_i).
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  pkt.ifaces[0].eg = 9;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, ExpiredReservationRejected) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  clock_.set(static_cast<TimeNs>(resinfo_.exp_time) * kNsPerSec + 1);
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kExpired);
  // And the gateway refuses to emit more.
  FastPacket pkt2;
  EXPECT_EQ(gateway_.process(42, 500, pkt2), Gateway::Verdict::kExpired);
}

TEST_F(DataPathTest, GatewayRateLimitsOveruse) {
  // 100 Mbps reservation; try to push ~10x for long enough to exhaust
  // the burst allowance (0.125 s of the rate).
  int ok = 0, limited = 0;
  for (int i = 0; i < 5000; ++i) {
    FastPacket pkt;
    const auto v = gateway_.process(42, 1400, pkt);
    ok += v == Gateway::Verdict::kOk;
    limited += v == Gateway::Verdict::kRateLimited;
    clock_.advance(10'000);  // 1.12 Gbps offered
  }
  EXPECT_GT(limited, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(gateway_.snapshot().rate_limited, static_cast<std::uint64_t>(limited));
}

TEST_F(DataPathTest, MalformedPacketsRejected) {
  FastPacket pkt;
  pkt.num_hops = 0;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kMalformed);
  pkt.num_hops = kMaxHops + 1;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kMalformed);
  pkt.num_hops = 2;
  pkt.current_hop = 2;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kMalformed);
}

TEST_F(DataPathTest, BlocklistedSourceDropped) {
  Blocklist bl;
  router_mid_.attach_blocklist(&bl);
  bl.block(kSrcAs);
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
  EXPECT_EQ(router_mid_.process(pkt), BorderRouter::Verdict::kBlocked);
}

TEST_F(DataPathTest, ReplayDetectedAtRouter) {
  DuplicateSuppression ds;
  router_mid_.attach_dupsup(&ds);
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
  ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
  FastPacket replayed = pkt;  // on-path adversary captures a copy
  EXPECT_EQ(router_mid_.process(pkt), BorderRouter::Verdict::kForward);
  EXPECT_EQ(router_mid_.process(replayed), BorderRouter::Verdict::kReplay);
}

TEST_F(DataPathTest, SegRControlPacketValidated) {
  // SegR packets carry the static token of Eq. 3.
  FastPacket pkt;
  pkt.type = proto::PacketType::kSegRenewal;
  pkt.is_eer = false;
  pkt.num_hops = 3;
  pkt.current_hop = 0;
  pkt.resinfo = resinfo_;
  for (size_t i = 0; i < path_.size(); ++i) {
    pkt.ifaces[i] = IfPair{path_[i].ingress, path_[i].egress};
  }
  crypto::Aes128 src_cipher(key_of(1).bytes.data());
  pkt.hvfs[0] = compute_seg_hvf(src_cipher, resinfo_, path_[0].ingress,
                                path_[0].egress);
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);

  // A forged token fails.
  pkt.current_hop = 0;
  pkt.hvfs[0][1] ^= 0xFF;
  EXPECT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
}

TEST_F(DataPathTest, BurstProcessingMatchesSingle) {
  // One 32-packet batch through each element against the same packets
  // one process() call at a time, on a second identical path.
  constexpr size_t kBurst = 32;
  ResId ids[kBurst];
  std::uint32_t sizes[kBurst];
  FastPacket pkts[kBurst];
  Gateway::Verdict verdicts[kBurst];
  for (size_t i = 0; i < kBurst; ++i) {
    ids[i] = 42;
    sizes[i] = 100 + static_cast<std::uint32_t>(i);
  }
  const size_t ok = gateway_.process_batch(ids, sizes, kBurst, pkts, verdicts);
  EXPECT_EQ(ok, kBurst);

  // The clock is frozen, so the single-call gateway stamps the same
  // timestamps and HVFs.
  Gateway single_gw(kSrcAs, clock_);
  ASSERT_TRUE(single_gw.install(resinfo_, eerinfo_, path_, sigmas_));
  BorderRouter single_router(kSrcAs, key_of(1), clock_);

  PacketBatch batch;
  for (size_t i = 0; i < kBurst; ++i) {
    FastPacket single;
    ASSERT_EQ(single_gw.process(ids[i], sizes[i], single),
              Gateway::Verdict::kOk);
    for (std::uint8_t h = 0; h < single.num_hops; ++h) {
      EXPECT_EQ(single.hvfs[h], pkts[i].hvfs[h]) << i;
    }
    ASSERT_TRUE(batch.push(pkts[i]));
    pkts[i] = single;
  }
  BorderRouter::Verdict rv[PacketBatch::kCapacity];
  router_src_.process_batch(batch, rv);
  for (size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(rv[i], BorderRouter::Verdict::kForward) << i;
    EXPECT_EQ(single_router.process(pkts[i]), rv[i]) << i;
    EXPECT_EQ(pkts[i].current_hop, batch[i].current_hop) << i;
  }
  EXPECT_EQ(router_src_.snapshot().forwarded,
            single_router.snapshot().forwarded);
}

TEST_F(DataPathTest, FastPacketConversionRoundTrip) {
  FastPacket pkt;
  ASSERT_EQ(gateway_.process(42, 64, pkt), Gateway::Verdict::kOk);
  const proto::Packet p = to_packet(pkt);
  EXPECT_EQ(p.wire_size(), pkt.wire_size());
  const FastPacket back = to_fast(p);
  EXPECT_EQ(back.resinfo, pkt.resinfo);
  EXPECT_EQ(back.timestamp, pkt.timestamp);
  EXPECT_EQ(back.num_hops, pkt.num_hops);
  for (size_t i = 0; i < pkt.num_hops; ++i) {
    EXPECT_EQ(back.hvfs[i], pkt.hvfs[i]);
  }
  // The converted packet still verifies at the router.
  FastPacket verify = back;
  EXPECT_EQ(router_src_.process(verify), BorderRouter::Verdict::kForward);
}

TEST_F(DataPathTest, GatewayRemoveStopsTraffic) {
  EXPECT_TRUE(gateway_.remove(42));
  FastPacket pkt;
  EXPECT_EQ(gateway_.process(42, 100, pkt), Gateway::Verdict::kNoReservation);
}

TEST_F(DataPathTest, TimestampsUniquePerPacket) {
  FastPacket a, b;
  ASSERT_EQ(gateway_.process(42, 100, a), Gateway::Verdict::kOk);
  clock_.advance(1000);  // > one 2^-22 s tick? No: 1 µs > 238 ns tick.
  ASSERT_EQ(gateway_.process(42, 100, b), Gateway::Verdict::kOk);
  EXPECT_NE(a.timestamp, b.timestamp);
}

}  // namespace
}  // namespace colibri::dataplane
