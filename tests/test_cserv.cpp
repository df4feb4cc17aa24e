// Control-plane tests: SegR setup/renewal/activation across ASes, EER
// setup over 1-3 SegRs, DRKey-authenticated payloads, rate limiting,
// policy, whitelists, dissemination, policing, and the distributed CServ.
#include <gtest/gtest.h>

#include "colibri/app/testbed.hpp"
#include "colibri/cserv/renewal_manager.hpp"

namespace colibri::cserv {
namespace {

using app::Testbed;

class CservTest : public ::testing::Test {
 protected:
  CservTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {}

  // Convenience: one up-segment starting at `src`.
  topology::PathSegment up_segment(AsId src) {
    auto ups = bed_.pathdb().up_segments_from(src);
    EXPECT_FALSE(ups.empty());
    return *ups.front();
  }

  SimClock clock_;
  Testbed bed_;
};

TEST_F(CservTest, SegrSetupGrantsAndStoresEverywhere) {
  const AsId src{1, 112};  // grandchild: 3-hop up-segment
  const auto seg = up_segment(src);
  ASSERT_EQ(seg.hops.size(), 3u);

  auto r = bed_.cserv(src).setup_segr(seg, 1000, 500'000);
  ASSERT_TRUE(r.ok()) << errc_name(r.error());
  EXPECT_EQ(r.value().bw_kbps, 500'000u);
  EXPECT_EQ(r.value().key.src_as, src);

  // Every on-path AS stores the reservation with the final bandwidth.
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(r.value().key);
    ASSERT_TRUE(rec.has_value()) << hop.as.to_string();
    EXPECT_EQ(rec->active.bw_kbps, 500'000u);
    EXPECT_EQ(rec->seg_type, topology::SegType::kUp);
  }
  // The initiator received one token per on-path AS.
  const auto* tokens = bed_.cserv(src).segr_tokens(r.value().key);
  ASSERT_NE(tokens, nullptr);
  EXPECT_EQ(tokens->size(), seg.hops.size());
}

TEST_F(CservTest, SegrTokensValidateAtRouters) {
  const AsId src{1, 112};
  const auto seg = up_segment(src);
  auto r = bed_.cserv(src).setup_segr(seg, 1000, 100'000);
  ASSERT_TRUE(r.ok());
  const auto* tokens = bed_.cserv(src).segr_tokens(r.value().key);
  ASSERT_NE(tokens, nullptr);

  // Construct a SegR control packet and verify each hop's token at the
  // corresponding AS's border router (Eq. 3).
  dataplane::FastPacket pkt;
  pkt.type = proto::PacketType::kSegRenewal;
  pkt.is_eer = false;
  pkt.num_hops = static_cast<std::uint8_t>(seg.hops.size());
  pkt.resinfo.src_as = src;
  pkt.resinfo.res_id = r.value().key.res_id;
  pkt.resinfo.bw_kbps = r.value().bw_kbps;
  pkt.resinfo.exp_time = r.value().exp_time;
  pkt.resinfo.version = r.value().version;
  for (size_t i = 0; i < seg.hops.size(); ++i) {
    pkt.ifaces[i] = dataplane::IfPair{seg.hops[i].ingress, seg.hops[i].egress};
    pkt.hvfs[i] = (*tokens)[i];
  }
  for (size_t i = 0; i + 1 < seg.hops.size(); ++i) {
    EXPECT_EQ(bed_.router(seg.hops[i].as).process(pkt),
              dataplane::BorderRouter::Verdict::kForward)
        << "hop " << i;
  }
  EXPECT_EQ(bed_.router(seg.hops.back().as).process(pkt),
            dataplane::BorderRouter::Verdict::kDeliver);
}

TEST_F(CservTest, SegrContentionSharesCapacity) {
  // Link capacity 40 Gbps * 75 % = 30 Gbps Colibri share. Two siblings
  // request 25 Gbps each through the same parent egress; together they
  // must not exceed the share.
  const AsId a{1, 112};
  const auto seg = up_segment(a);
  auto r1 = bed_.cserv(a).setup_segr(seg, 1000, 25'000'000);
  ASSERT_TRUE(r1.ok());
  auto r2 = bed_.cserv(a).setup_segr(seg, 1000, 25'000'000);
  ASSERT_TRUE(r2.ok());
  EXPECT_LE(static_cast<std::uint64_t>(r1.value().bw_kbps) +
                r2.value().bw_kbps,
            30'000'000u);
}

TEST_F(CservTest, SegrBelowMinFails) {
  const AsId a{1, 112};
  const auto seg = up_segment(a);
  // Saturate.
  ASSERT_TRUE(bed_.cserv(a).setup_segr(seg, 1000, 30'000'000).ok());
  // Impossible minimum.
  auto r = bed_.cserv(a).setup_segr(seg, 29'000'000, 30'000'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kBandwidthUnavailable);
}

TEST_F(CservTest, SegrRenewalCreatesPendingThenActivates) {
  const AsId src{1, 110};
  const auto seg = up_segment(src);
  auto setup = bed_.cserv(src).setup_segr(seg, 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  const ResKey key = setup.value().key;

  clock_.advance(2 * kNsPerSec);  // renewal rate limit: 1/s
  auto renew = bed_.cserv(src).renew_segr(key, 1000, 2'000'000);
  ASSERT_TRUE(renew.ok()) << errc_name(renew.error());
  EXPECT_EQ(renew.value().version, 1);

  // Pending everywhere, active unchanged (§4.2: explicit activation).
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(key);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->active.version, 0);
    ASSERT_TRUE(rec->pending.has_value());
    EXPECT_EQ(rec->pending->version, 1);
  }

  auto act = bed_.cserv(src).activate_segr(key, 1);
  ASSERT_TRUE(act.ok()) << errc_name(act.error());
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(key);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->active.version, 1);
    EXPECT_EQ(rec->active.bw_kbps, renew.value().bw_kbps);
    EXPECT_FALSE(rec->pending.has_value());
  }
}

TEST_F(CservTest, ActivationOfUnknownVersionFails) {
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(up_segment(src), 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  auto act = bed_.cserv(src).activate_segr(setup.value().key, 7);
  EXPECT_FALSE(act.ok());
  EXPECT_EQ(act.error(), Errc::kBadVersion);
}

TEST_F(CservTest, RenewalRateLimited) {
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(up_segment(src), 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  clock_.advance(2 * kNsPerSec);
  ASSERT_TRUE(bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000).ok());
  // Immediate second renewal exceeds 1/s + small burst.
  clock_.advance(kNsPerSec / 100);
  ASSERT_TRUE(bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000).ok());
  clock_.advance(kNsPerSec / 100);
  auto third = bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.error(), Errc::kRateLimited);
}

class EerTest : public CservTest {
 protected:
  EerTest() { bed_.provision_all_segments(1000, 10'000'000); }
};

TEST_F(EerTest, EndToEndReservationAcrossIsds) {
  // Grandchild in ISD 1 to grandchild in ISD 2: up + core + down.
  const AsId src{1, 112}, dst{2, 212};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 50'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_EQ(session.value().bw_kbps(), 50'000u);

  // The gateway has the reservation installed and produces packets that
  // verify at every on-path router.
  dataplane::FastPacket pkt;
  ASSERT_EQ(session.value().send(800, pkt), dataplane::Gateway::Verdict::kOk);
  const auto rec =
      bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  for (size_t i = 0; i < rec->path.size(); ++i) {
    const auto verdict = bed_.router(rec->path[i].as).process(pkt);
    if (i + 1 < rec->path.size()) {
      EXPECT_EQ(verdict, dataplane::BorderRouter::Verdict::kForward) << i;
    } else {
      EXPECT_EQ(verdict, dataplane::BorderRouter::Verdict::kDeliver);
    }
  }

  // Every on-path AS stored the EER and accounted it on its SegR.
  for (const auto& hop : rec->path) {
    const auto eer = bed_.cserv(hop.as).db().eer_copy(rec->key);
    ASSERT_TRUE(eer.has_value()) << hop.as.to_string();
    EXPECT_EQ(eer->effective_bw(clock_.now_sec()), 50'000u);
  }
}

TEST_F(EerTest, EerRenewalAddsVersion) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 20'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  const ResKey key = session.value().key();

  clock_.advance(13 * kNsPerSec);  // near the 16 s expiry
  EXPECT_TRUE(session.value().maybe_renew(4));
  EXPECT_EQ(session.value().version(), 1);

  const auto rec = bed_.cserv(src).db().eer_copy(key);
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->versions.size(), 1u);
  EXPECT_EQ(rec->versions.back().version, 1);
  // New expiry extends beyond the old one.
  EXPECT_GT(session.value().exp_time(), 1000u + 16u);
}

TEST_F(EerTest, EerLimitedBySegrBandwidth) {
  const AsId src{1, 110}, dst{1, 120};
  // SegRs were provisioned at 10 Gbps; an EER demanding 50 Gbps gets
  // clamped to the available SegR bandwidth.
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 50'000'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_LE(session.value().bw_kbps(), 10'000'000u);
}

TEST_F(EerTest, EerExhaustionRejectsWhenMinUnmet) {
  const AsId src{1, 110}, dst{1, 120};
  // Drain the SegR with large EERs, then ask for more than remains.
  for (int i = 0; i < 2; ++i) {
    auto s = bed_.daemon(src).open_session(dst, HostAddr::from_u64(10 + i),
                                           HostAddr::from_u64(2), 1'000'000,
                                           5'000'000);
    ASSERT_TRUE(s.ok()) << i << ": " << errc_name(s.error());
  }
  auto full = bed_.daemon(src).open_session(dst, HostAddr::from_u64(99),
                                            HostAddr::from_u64(2), 9'000'000,
                                            9'000'000);
  EXPECT_FALSE(full.ok());
}

TEST_F(EerTest, DestinationHostCanReject) {
  const AsId src{1, 110}, dst{1, 120};
  bed_.cserv(dst).set_host_acceptor(
      [](const proto::EerInfo&, BwKbps) { return false; });
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.error(), Errc::kPolicyDenied);
}

TEST_F(EerTest, SourcePolicyCapsPerHost) {
  CservConfig cfg;
  cfg.per_host_eer_cap_kbps = 500;
  SimClock clock(1000 * kNsPerSec);
  Testbed bed(topology::builders::two_isd_topology(), clock, cfg);
  bed.provision_all_segments(100, 1'000'000);
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 100'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_LE(session.value().bw_kbps(), 500u);

  auto denied = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 100'000);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), Errc::kPolicyDenied);
}

TEST_F(EerTest, WhitelistEnforced) {
  // Publish the down-segment to {2,210} with a whitelist excluding the
  // requester.
  const AsId src{1, 110}, dst{2, 210};
  // Re-publish all SegRs of dst's down segment initiators with whitelists
  // that exclude src.
  for (AsId core : bed_.topology().core_ases()) {
    auto& cs = bed_.cserv(core);
    std::vector<ResKey> keys;
    cs.db().for_each_segr([&](const reservation::SegrRecord& rec) {
      if (rec.key.src_as == core) keys.push_back(rec.key);
    });
    for (const auto& k : keys) cs.publish_segr(k, {AsId{9, 999}});
  }
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
}

TEST_F(EerTest, OffenderDeniedFutureReservations) {
  const AsId src{1, 110}, dst{1, 120}, transit{1, 100};
  bed_.cserv(transit).report_offense(
      dataplane::OffenseReport{src, 1, clock_.now_ns(), 1 << 20});
  EXPECT_TRUE(bed_.cserv(transit).reservations_denied_for(src));
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.error(), Errc::kBlocked);
}

TEST_F(EerTest, TickExpiresEverything) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  // Jump past both EER (16 s) and SegR (300 s) lifetimes.
  clock_.advance(400 * kNsPerSec);
  bed_.tick_all();
  EXPECT_EQ(bed_.cserv(src).db().eer_count(), 0u);
  EXPECT_EQ(bed_.cserv(src).db().segr_count(), 0u);
  EXPECT_TRUE(session.value().expired());
}

TEST_F(EerTest, LookupChainsFindsMultiSegmentRoutes) {
  const AsId src{1, 112}, dst{2, 212};
  const auto chains = bed_.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  bool has_three = false;
  for (const auto& chain : chains) {
    EXPECT_GE(chain.size(), 1u);
    EXPECT_LE(chain.size(), 3u);
    has_three |= chain.size() == 3;
    // Chain connectivity.
    for (size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(chain[i - 1].last_as(), chain[i].first_as());
    }
  }
  EXPECT_TRUE(has_three);
}

TEST_F(EerTest, RemoteAdvertsAreCached) {
  const AsId src{1, 110}, dst{1, 120};
  const std::uint64_t before = bed_.bus().snapshot().messages;
  (void)bed_.cserv(src).lookup_chains(dst);
  const std::uint64_t after_first = bed_.bus().snapshot().messages;
  EXPECT_GT(after_first, before);  // remote queries happened
  (void)bed_.cserv(src).lookup_chains(dst);
  const std::uint64_t after_second = bed_.bus().snapshot().messages;
  // Cached: the repeat lookup needs strictly fewer remote messages (only
  // the never-hit query pairs are retried; positive results are served
  // from the local registry).
  EXPECT_LT(after_second - after_first, after_first - before);
}

// At the default 300 s SegR lifetime, renewed SegRs outlive the
// adverts a source cached for their first versions. A later lookup for
// a destination under the same core re-caches that core's live
// down-SegR; the core SegRs must still be fetched again, not shadowed
// by it, or every cross-ISD setup from the source fails.
TEST_F(EerTest, CachedDownSegrDoesNotShadowExpiredCoreSegrs) {
  std::vector<std::unique_ptr<RenewalManager>> renewals;
  for (const AsId as : bed_.topology().as_ids()) {
    renewals.push_back(std::make_unique<RenewalManager>(bed_.cserv(as)));
    renewals.back()->manage_all_local();
  }
  const AsId src{1, 110}, same_core{1, 111}, other_isd{2, 210};
  ASSERT_FALSE(bed_.cserv(src).lookup_chains(other_isd).empty());

  // Past the first versions' expiry; renewal keeps every SegR live.
  for (int s = 0; s < 330; s += 10) {
    clock_.advance(10 * kNsPerSec);
    for (auto& r : renewals) r->tick(clock_.now_sec());
    bed_.tick_all();
  }
  ASSERT_FALSE(bed_.cserv(src).lookup_chains(same_core).empty());
  EXPECT_FALSE(bed_.cserv(src).lookup_chains(other_isd).empty());
  auto session = bed_.daemon(src).open_session(
      other_isd, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1'000);
  EXPECT_TRUE(session.ok()) << errc_name(session.error());
}

TEST_F(CservTest, ForgedRequestRejected) {
  // Craft a SegReq whose MACs are garbage: every on-path AS must refuse.
  const AsId src{1, 110};
  const auto seg = up_segment(src);
  proto::SegRequest msg;
  msg.seg_type = seg.type;
  msg.min_bw_kbps = 1;
  msg.max_bw_kbps = 1000;
  for (const auto& h : seg.hops) msg.ases.push_back(h.as);

  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = seg.hops;
  pkt.resinfo.src_as = src;
  pkt.resinfo.res_id = 777;
  pkt.resinfo.bw_kbps = 1000;
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 1;  // deliver straight to the second AS

  proto::AuthedPayload ap;
  ap.message = msg;
  ap.macs.assign(msg.ases.size(), proto::Mac16{0xDE, 0xAD});
  pkt.payload = proto::encode_authed(ap);

  Bytes framed;
  framed.push_back(0);  // packet channel
  append_bytes(framed, proto::encode_packet(pkt));
  const Bytes resp_wire = bed_.bus().call(seg.hops[1].as, framed);
  auto resp_pkt = proto::decode_packet(resp_wire);
  ASSERT_TRUE(resp_pkt.has_value());
  auto resp_ap = proto::decode_authed(resp_pkt->payload);
  ASSERT_TRUE(resp_ap.has_value());
  auto* resp = std::get_if<proto::ControlResponse>(&resp_ap->message);
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->success);
  EXPECT_EQ(resp->fail_code, Errc::kAuthFailed);
  EXPECT_EQ(bed_.cserv(seg.hops[1].as).snapshot().auth_failures, 1u);
}

}  // namespace
}  // namespace colibri::cserv
