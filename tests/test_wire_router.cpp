// Tests: the border router on wire frames — frames decoded by
// batch_ingest, validated by BorderRouter::process_batch and re-emitted
// with the codec, the path every forwarded packet takes between ASes.
// Covers agreement with the per-packet reference router on tampered
// bytes, the cursor advance as the only change to a forwarded frame,
// and rejection of malformed/truncated/tampered frames.
#include <gtest/gtest.h>

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/proto/codec.hpp"
#include "support/reference_dataplane.hpp"

namespace colibri::dataplane {
namespace {

using Verdict = BorderRouter::Verdict;

drkey::Key128 key_of(std::uint8_t seed) {
  drkey::Key128 k;
  k.bytes.fill(seed);
  return k;
}

class WireRouterTest : public ::testing::Test {
 protected:
  WireRouterTest()
      : gateway_(AsId{1, 10}, clock_),
        router_(AsId{1, 20}, key_of(2), clock_),
        oracle_(AsId{1, 20}, key_of(2), clock_) {
    clock_.set(100 * kNsPerSec);
    resinfo_ = proto::ResInfo{AsId{1, 10}, 5, 1'000'000, 500, 0};
    eerinfo_ = proto::EerInfo{HostAddr::from_u64(1), HostAddr::from_u64(2)};
    path_ = {topology::Hop{AsId{1, 10}, kNoInterface, 1},
             topology::Hop{AsId{1, 20}, 2, 3},
             topology::Hop{AsId{1, 30}, 4, kNoInterface}};
    std::vector<HopAuth> sigmas;
    const drkey::Key128 keys[] = {key_of(1), key_of(2), key_of(3)};
    for (size_t i = 0; i < path_.size(); ++i) {
      crypto::Aes128 cipher(keys[i].bytes.data());
      sigmas.push_back(compute_hopauth(cipher, resinfo_, eerinfo_,
                                       path_[i].ingress, path_[i].egress));
    }
    gateway_.install(resinfo_, eerinfo_, path_, sigmas);
  }

  // A valid wire packet positioned at hop 1 (this router's hop).
  Bytes wire_packet(std::uint32_t payload) {
    FastPacket fp;
    EXPECT_EQ(gateway_.process(5, payload, fp), Gateway::Verdict::kOk);
    fp.current_hop = 1;
    proto::Packet p = to_packet(fp);
    return proto::encode_packet(p);
  }

  // One frame through the frame path: ingest, validate and, when the
  // packet passes, re-emit it into `frame`. A frame the codec rejects
  // never reaches the router and counts as malformed.
  static Verdict route(BorderRouter& router, Bytes& frame) {
    PacketBatch batch;
    if (!batch_ingest(frame, batch)) return Verdict::kMalformed;
    Verdict v;
    router.process_batch(batch, &v);
    if (v == Verdict::kForward || v == Verdict::kDeliver) {
      frame = proto::encode_packet(to_packet(batch[0]));
    }
    return v;
  }

  SimClock clock_;
  Gateway gateway_;
  BorderRouter router_;
  reference::ReferenceRouter oracle_;
  proto::ResInfo resinfo_;
  proto::EerInfo eerinfo_;
  std::vector<topology::Hop> path_;
};

TEST_F(WireRouterTest, AcceptsValidPacketAndAdvancesCursor) {
  const Bytes original = wire_packet(100);
  Bytes wire = original;
  ASSERT_EQ(route(router_, wire), Verdict::kForward);
  // The only change to the re-emitted frame is the current-hop byte.
  ASSERT_EQ(wire.size(), original.size());
  size_t changed = 0;
  for (size_t i = 0; i < wire.size(); ++i) changed += wire[i] != original[i];
  EXPECT_EQ(changed, 1u);
  auto decoded = proto::decode_packet(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->current_hop, 2);
  EXPECT_EQ(router_.snapshot().forwarded, 1u);
}

TEST_F(WireRouterTest, AgreesWithStructRouterOnRandomTampering) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Bytes wire = wire_packet(50);
    if (rng.below(2) == 1) {
      wire[rng.below(wire.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    // The reference router's verdict on the same bytes.
    auto decoded = proto::decode_packet(wire);
    const Verdict fv = route(router_, wire);
    if (!decoded.has_value() || decoded->path.size() > kMaxHops) {
      EXPECT_EQ(fv, Verdict::kMalformed) << i;
      continue;
    }
    FastPacket fp = to_fast(*decoded);
    EXPECT_EQ(fv, oracle_.process(fp)) << i;
  }
  EXPECT_EQ(router_.snapshot().forwarded, oracle_.snapshot().forwarded);
  EXPECT_EQ(router_.snapshot().bad_hvf, oracle_.snapshot().bad_hvf);
}

TEST_F(WireRouterTest, DeliversAtLastHop) {
  Bytes wire = wire_packet(10);
  ASSERT_EQ(route(router_, wire), Verdict::kForward);
  // Now at hop 2 — the last hop; a router of AS 1-30 delivers.
  BorderRouter last(AsId{1, 30}, key_of(3), clock_);
  EXPECT_EQ(route(last, wire), Verdict::kDeliver);
}

TEST_F(WireRouterTest, RejectsTruncation) {
  Bytes wire = wire_packet(100);
  for (size_t cut : {size_t{3}, size_t{20}, wire.size() - 1}) {
    Bytes copy(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_EQ(route(router_, copy), Verdict::kMalformed) << cut;
  }
}

TEST_F(WireRouterTest, RejectsLengthMismatch) {
  Bytes wire = wire_packet(100);
  wire.push_back(0);  // extra byte: declared payload no longer matches
  EXPECT_EQ(route(router_, wire), Verdict::kMalformed);
}

TEST_F(WireRouterTest, RejectsTamperedHvf) {
  auto pkt = proto::decode_packet(wire_packet(100));
  ASSERT_TRUE(pkt.has_value());
  pkt->hvfs[1][0] ^= 1;  // hop 1's HVF
  Bytes wire = proto::encode_packet(*pkt);
  EXPECT_EQ(route(router_, wire), Verdict::kBadHvf);
}

TEST_F(WireRouterTest, RejectsExpired) {
  Bytes wire = wire_packet(100);
  clock_.set(static_cast<TimeNs>(resinfo_.exp_time) * kNsPerSec + 1);
  EXPECT_EQ(route(router_, wire), Verdict::kExpired);
}

TEST_F(WireRouterTest, FuzzNeverCrashes) {
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.below(400));
    rng.fill(junk.data(), junk.size());
    (void)route(router_, junk);
  }
}

TEST_F(WireRouterTest, BurstProcessing) {
  PacketBatch batch;
  for (int i = 0; i < 32; ++i) {
    clock_.advance(1000);
    ASSERT_TRUE(batch_ingest(wire_packet(64), batch));
  }
  Verdict verdicts[PacketBatch::kCapacity];
  router_.process_batch(batch, verdicts);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(verdicts[i], Verdict::kForward) << i;
    EXPECT_EQ(batch[i].current_hop, 2) << i;
  }
}

}  // namespace
}  // namespace colibri::dataplane
