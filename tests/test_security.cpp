// Security suite mapped to the paper's §5 DDoS-resilience analysis: each
// test reproduces one attack from the catalog and verifies the defence
// the paper claims stops it.
#include <gtest/gtest.h>

#include "colibri/app/testbed.hpp"
#include "colibri/common/rand.hpp"

namespace colibri {
namespace {

using app::Testbed;

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    bed_.provision_all_segments(1000, 2'000'000);
  }

  SimClock clock_;
  Testbed bed_;
};

// §5.1 (ii): bogus Colibri traffic — an off-path adversary fabricates
// packets with guessed HVFs. Efficient symmetric verification drops them;
// the 4-byte truncation leaves a 2^-32 per-packet guess probability.
TEST_F(SecurityTest, BogusColibriPacketsDropped) {
  const AsId victim_as{1, 100};
  auto& router = bed_.router(victim_as);
  Rng rng(1);
  int accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    dataplane::FastPacket pkt;
    pkt.is_eer = true;
    pkt.num_hops = 3;
    pkt.current_hop = 1;
    pkt.resinfo.src_as = AsId{1, 110};
    pkt.resinfo.res_id = static_cast<ResId>(1 + rng.below(100));
    pkt.resinfo.bw_kbps = 1'000'000;
    pkt.resinfo.exp_time = clock_.now_sec() + 100;
    pkt.ifaces[1] = dataplane::IfPair{1, 2};
    pkt.timestamp = static_cast<std::uint32_t>(rng.next());
    rng.fill(pkt.hvfs[1].data(), pkt.hvfs[1].size());
    accepted += router.process(pkt) ==
                dataplane::BorderRouter::Verdict::kForward;
  }
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(router.snapshot().bad_hvf, 20'000u);
}

// §5.1 framing (i): source-AS spoofing. A malicious AS stamps packets
// claiming another AS's reservation; since σ_i binds SrcAS, the forged
// attribution fails verification and the victim cannot be framed.
TEST_F(SecurityTest, SourceSpoofingFailsVerification) {
  const AsId victim{1, 110}, dst{1, 120};
  auto session = bed_.daemon(victim).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  dataplane::FastPacket pkt;
  ASSERT_EQ(session.value().send(100, pkt), dataplane::Gateway::Verdict::kOk);
  // The adversary rewrites the source AS to frame AS 1-111.
  pkt.resinfo.src_as = AsId{1, 111};
  const auto rec = bed_.cserv(victim).db().eer_copy(session.value().key());
  EXPECT_EQ(bed_.router(rec->path[0].as).process(pkt),
            dataplane::BorderRouter::Verdict::kBadHvf);
}

// §5.1 framing (ii): replay. An on-path adversary re-sends captured
// packets to overuse the victim's reservation; duplicate suppression at
// benign ASes discards every copy.
TEST_F(SecurityTest, ReplayFloodDiscarded) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  const AsId transit = rec->path[1].as;
  dataplane::DuplicateSuppression dupsup;
  bed_.router(transit).attach_dupsup(&dupsup);

  dataplane::FastPacket original;
  ASSERT_EQ(session.value().send(100, original),
            dataplane::Gateway::Verdict::kOk);
  ASSERT_EQ(bed_.router(rec->path[0].as).process(original),
            dataplane::BorderRouter::Verdict::kForward);

  // First copy passes; 1000 replays all die at the transit AS.
  dataplane::FastPacket first = original;
  ASSERT_EQ(bed_.router(transit).process(first),
            dataplane::BorderRouter::Verdict::kForward);
  int replayed_through = 0;
  for (int i = 0; i < 1000; ++i) {
    dataplane::FastPacket copy = original;
    replayed_through += bed_.router(transit).process(copy) ==
                        dataplane::BorderRouter::Verdict::kForward;
    clock_.advance(1000);
  }
  EXPECT_EQ(replayed_through, 0);
  EXPECT_EQ(dupsup.duplicates_seen(), 1000u);
}

// §5.2: admission-algorithm gaming. An attacker AS floods SegReqs trying
// to monopolize a shared egress; bounded tube fairness caps its total at
// its share, so within one renewal round a late-arriving benign AS
// obtains its proportional minimum ("a benign AS can always obtain a
// finite minimum bandwidth").
TEST_F(SecurityTest, BotnetCannotStarveBenignAs) {
  const AsId benign{1, 112};
  const auto seg = *bed_.pathdb().up_segments_from(benign).front();

  // The attacker floods 20 maximal requests over the same bottleneck
  // (1-110 -> 1-100, which the benign grandchild also transits).
  const AsId attacker{1, 110};
  const auto attacker_seg = *bed_.pathdb().up_segments_from(attacker).front();
  std::vector<ResKey> attacker_keys;
  for (int i = 0; i < 20; ++i) {
    auto r = bed_.cserv(attacker).setup_segr(attacker_seg, 1, 30'000'000);
    if (r.ok()) attacker_keys.push_back(r.value().key);
  }
  // Flooding does not multiply the attacker's holdings: its grants are
  // bounded by its share of the egress, not by the number of requests.
  ASSERT_FALSE(attacker_keys.empty());

  // The benign AS's first attempt may race into a saturated interface —
  // but it registers demand, so the attacker's *mandatory* renewals
  // (reservations live ~5 min) shrink toward the fair share.
  (void)bed_.cserv(benign).setup_segr(seg, 100'000, 5'000'000);
  clock_.advance(2 * kNsPerSec);
  for (const auto& key : attacker_keys) {
    (void)bed_.cserv(attacker).renew_segr(key, 1, 30'000'000);
  }

  // Retry: the benign AS now obtains at least its modest minimum.
  auto r = bed_.cserv(benign).setup_segr(seg, 100'000, 5'000'000);
  ASSERT_TRUE(r.ok()) << errc_name(r.error());
  EXPECT_GE(r.value().bw_kbps, 100'000u);
}

// §5.2: a malicious source AS forwards EEReqs for more bandwidth than its
// SegR holds; transit ASes independently check the SegR and clamp.
TEST_F(SecurityTest, EerCannotExceedSegr) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100,
      /*max_bw=*/0x7FFF'FFFF);
  ASSERT_TRUE(session.ok());
  // Clamped to the 2 Gbps SegRs (x the per-host policy).
  EXPECT_LE(session.value().bw_kbps(), 2'000'000u);
}

// §5.3 DoC (i): request flooding at the CServ. Per-AS rate limiting caps
// the attacker; an AS under a different ID is served normally.
TEST_F(SecurityTest, RequestFloodRateLimited) {
  const AsId attacker{1, 110}, benign{1, 111}, target{1, 100};
  const auto seg = *bed_.pathdb().up_segments_from(attacker).front();
  ASSERT_EQ(seg.hops.back().as, target);

  int rejected = 0;
  for (int i = 0; i < 500; ++i) {
    auto r = bed_.cserv(attacker).setup_segr(seg, 1, 10);
    rejected += !r.ok() && r.error() == Errc::kRateLimited;
  }
  EXPECT_GT(rejected, 200);  // the flood was curbed

  // The benign AS is unaffected (separate budget).
  const auto benign_seg = *bed_.pathdb().up_segments_from(benign).front();
  EXPECT_TRUE(bed_.cserv(benign).setup_segr(benign_seg, 1, 10).ok());
}

// §5.3 DoC: forged control messages cost the CServ one symmetric MAC
// check each and never reach admission.
TEST_F(SecurityTest, ForgedControlPlaneFilteredCheaply) {
  const AsId target{1, 100};
  const auto before = bed_.cserv(target).snapshot();

  proto::SegRequest msg;
  msg.seg_type = topology::SegType::kUp;
  msg.max_bw_kbps = 1000;
  msg.ases = {AsId{1, 110}, target};
  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = {topology::Hop{AsId{1, 110}, 0, 1}, topology::Hop{target, 2, 0}};
  pkt.resinfo.src_as = AsId{1, 110};
  pkt.resinfo.res_id = 999;
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 1;
  proto::AuthedPayload ap;
  ap.message = msg;
  ap.macs.assign(2, proto::Mac16{});  // all-zero forgeries
  pkt.payload = proto::encode_authed(ap);

  Bytes framed;
  framed.push_back(0);
  append_bytes(framed, proto::encode_packet(pkt));
  for (int i = 0; i < 100; ++i) (void)bed_.bus().call(target, framed);

  const auto after = bed_.cserv(target).snapshot();
  EXPECT_EQ(after.auth_failures - before.auth_failures, 100u);
  EXPECT_EQ(after.seg_granted, before.seg_granted);  // none admitted
}

// §5.3: renewals ride the existing reservation and survive a best-effort
// flood that (in this model) partitions the *initial-request* channel.
TEST_F(SecurityTest, RenewalsWorkWhileSetupChannelDegraded) {
  const AsId src{1, 110};
  const auto seg = *bed_.pathdb().up_segments_from(src).front();
  auto setup = bed_.cserv(src).setup_segr(seg, 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());

  // The reservation can be renewed repeatedly over itself regardless of
  // best-effort conditions (control traffic is in the protected class).
  for (int i = 0; i < 5; ++i) {
    clock_.advance(2 * kNsPerSec);
    auto renewed = bed_.cserv(src).renew_segr(setup.value().key, 1000,
                                              1'000'000 + i * 1000);
    ASSERT_TRUE(renewed.ok()) << i << ": " << errc_name(renewed.error());
    ASSERT_TRUE(
        bed_.cserv(src).activate_segr(setup.value().key, renewed.value().version)
            .ok());
  }
}

// §4.5: 4-byte HVFs — a brute-force token guess succeeds with ~2^-32 per
// packet. Statistical sanity: across 100k random guesses, zero hits.
TEST_F(SecurityTest, HvfBruteForceInfeasibleWithinLifetime) {
  const AsId target{1, 100};
  auto& router = bed_.router(target);
  Rng rng(5);
  dataplane::FastPacket pkt;
  pkt.is_eer = false;  // SegR packet: token checked directly (Eq. 3)
  pkt.num_hops = 2;
  pkt.current_hop = 0;
  pkt.resinfo.src_as = AsId{1, 110};
  pkt.resinfo.res_id = 1;
  pkt.resinfo.bw_kbps = 1000;
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.ifaces[0] = dataplane::IfPair{1, 2};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    rng.fill(pkt.hvfs[0].data(), pkt.hvfs[0].size());
    pkt.current_hop = 0;
    hits += router.process(pkt) != dataplane::BorderRouter::Verdict::kBadHvf;
  }
  EXPECT_EQ(hits, 0);
}

}  // namespace
}  // namespace colibri
