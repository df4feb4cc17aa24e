// Unit tests: packet wire format, MAC-input builders, control-plane
// message codecs.
#include <gtest/gtest.h>

#include "colibri/common/rand.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/proto/messages.hpp"

namespace colibri::proto {
namespace {

Packet sample_packet(bool eer) {
  Packet p;
  p.type = eer ? PacketType::kData : PacketType::kSegSetup;
  p.is_eer = eer;
  p.current_hop = 1;
  p.path = {topology::Hop{AsId{1, 1}, kNoInterface, 2},
            topology::Hop{AsId{1, 2}, 3, 4},
            topology::Hop{AsId{1, 3}, 5, kNoInterface}};
  p.resinfo = ResInfo{AsId{1, 1}, 42, 5000, 123456, 2};
  if (eer) {
    p.eerinfo.src_host = HostAddr::from_u64(7);
    p.eerinfo.dst_host = HostAddr::from_u64(9);
  }
  p.timestamp = 0xCAFEBABE;
  p.hvfs = {Hvf{1, 2, 3, 4}, Hvf{5, 6, 7, 8}, Hvf{9, 10, 11, 12}};
  p.payload = {0xAA, 0xBB, 0xCC};
  return p;
}

// AS ids are not carried on the wire (forwarding is interface-based), so
// round-trip equality is checked on the re-encoded bytes.
TEST(PacketCodecTest, RoundTripStable) {
  for (bool eer : {false, true}) {
    const Packet p = sample_packet(eer);
    const Bytes wire = encode_packet(p);
    EXPECT_EQ(wire.size(), p.wire_size());
    auto decoded = decode_packet(wire);
    ASSERT_TRUE(decoded.has_value()) << "eer=" << eer;
    EXPECT_EQ(encode_packet(*decoded), wire);
    EXPECT_EQ(decoded->type, p.type);
    EXPECT_EQ(decoded->resinfo, p.resinfo);
    EXPECT_EQ(decoded->timestamp, p.timestamp);
    EXPECT_EQ(decoded->hvfs, p.hvfs);
    EXPECT_EQ(decoded->payload, p.payload);
    if (eer) {
      EXPECT_EQ(decoded->eerinfo, p.eerinfo);
    }
  }
}

TEST(PacketCodecTest, PreservesInterfaces) {
  const Packet p = sample_packet(true);
  auto decoded = decode_packet(encode_packet(p));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->path.size(), p.path.size());
  for (size_t i = 0; i < p.path.size(); ++i) {
    EXPECT_EQ(decoded->path[i].ingress, p.path[i].ingress);
    EXPECT_EQ(decoded->path[i].egress, p.path[i].egress);
  }
}

TEST(PacketCodecTest, RejectsTruncated) {
  const Bytes wire = encode_packet(sample_packet(true));
  for (size_t cut : {size_t{1}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_FALSE(decode_packet(BytesView(wire.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(PacketCodecTest, RejectsTrailingGarbage) {
  Bytes wire = encode_packet(sample_packet(false));
  wire.push_back(0x00);
  EXPECT_FALSE(decode_packet(wire).has_value());
}

TEST(PacketCodecTest, RejectsBadType) {
  Bytes wire = encode_packet(sample_packet(false));
  wire[0] = 0x77;
  EXPECT_FALSE(decode_packet(wire).has_value());
}

TEST(PacketCodecTest, RejectsZeroHops) {
  Bytes wire = encode_packet(sample_packet(false));
  wire[2] = 0;  // hop count
  EXPECT_FALSE(decode_packet(wire).has_value());
}

TEST(PacketCodecTest, RejectsCurrentHopBeyondPath) {
  Bytes wire = encode_packet(sample_packet(false));
  wire[3] = 3;  // current hop == hop count
  EXPECT_FALSE(decode_packet(wire).has_value());
}

TEST(TraceContextCodecTest, RoundTripsThroughWire) {
  for (const bool eer : {false, true}) {
    Packet p = sample_packet(eer);
    p.has_trace = true;
    p.trace = TraceContext{0x0123456789ABCDEF, 0xFEDCBA9876543210,
                           0xDEADBEEF, 0xCAFED00D, TraceContext::kSampled};
    const Bytes wire = encode_packet(p);
    EXPECT_EQ(wire.size(), p.wire_size());
    auto decoded = decode_packet(wire);
    ASSERT_TRUE(decoded.has_value()) << "eer=" << eer;
    EXPECT_TRUE(decoded->has_trace);
    EXPECT_EQ(decoded->trace, p.trace);
    EXPECT_TRUE(decoded->trace.sampled());
    EXPECT_EQ(encode_packet(*decoded), wire);
  }
}

TEST(TraceContextCodecTest, AbsentBlockDecodesToZeroedContext) {
  // Frames encoded before the extension existed carry no flag 0x02 and
  // no block; they must decode to an absent context, byte-identically
  // on re-encode.
  const Packet p = sample_packet(false);
  const Bytes wire = encode_packet(p);
  auto decoded = decode_packet(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->has_trace);
  EXPECT_EQ(decoded->trace, TraceContext{});
  EXPECT_FALSE(decoded->trace.present());
  EXPECT_EQ(encode_packet(*decoded), wire);
}

TEST(TraceContextCodecTest, TraceBlockCostsExactlyItsWireBytes) {
  Packet p = sample_packet(true);
  const std::size_t plain = p.wire_size();
  p.has_trace = true;
  EXPECT_EQ(p.wire_size(), plain + kTraceContextLen);
  EXPECT_EQ(encode_packet(p).size(), plain + kTraceContextLen);
}

TEST(TraceContextCodecTest, RejectsTruncatedTraceBlock) {
  Packet p = sample_packet(false);
  p.has_trace = true;
  p.trace.trace_hi = 1;
  const Bytes wire = encode_packet(p);
  // Any cut inside or after the trace block must be rejected, not read
  // out of bounds.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_packet(BytesView(wire.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(TraceContextCodecTest, ZeroContextWithFlagReencodesCanonically) {
  // has_trace with an all-zero context is a legal frame (flag set, block
  // zeroed); the distinction from "no flag" must survive the round trip
  // so decode∘encode stays the identity for the fuzz harness.
  Packet p = sample_packet(false);
  p.has_trace = true;  // trace left zeroed
  const Bytes wire = encode_packet(p);
  auto decoded = decode_packet(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->has_trace);
  EXPECT_FALSE(decoded->trace.present());
  EXPECT_EQ(encode_packet(*decoded), wire);
}

TEST(TraceContextCodecTest, PeekMatchesFullDecode) {
  for (const bool eer : {false, true}) {
    Packet p = sample_packet(eer);
    EXPECT_EQ(peek_trace_context(encode_packet(p)), TraceContext{});
    p.has_trace = true;
    p.trace = TraceContext{11, 22, 33, 44, TraceContext::kSampled};
    EXPECT_EQ(peek_trace_context(encode_packet(p)), p.trace);
  }
  // Too short to hold the block at its offset: absent, no crash.
  EXPECT_EQ(peek_trace_context(BytesView{}), TraceContext{});
  const Bytes wire = encode_packet([] {
    Packet p = sample_packet(false);
    p.has_trace = true;
    p.trace.span_id = 7;
    return p;
  }());
  EXPECT_EQ(peek_trace_context(BytesView(wire.data(), 30)), TraceContext{});
}

TEST(TraceContextCodecTest, RejectsUnknownFlagBits) {
  Bytes wire = encode_packet(sample_packet(false));
  for (std::uint8_t bit = 0x04; bit != 0; bit <<= 1) {
    Bytes mutated = wire;
    mutated[1] |= bit;
    EXPECT_FALSE(decode_packet(mutated).has_value())
        << "flag bit " << int(bit);
  }
}

TEST(PacketCodecTest, FuzzDecodeNeverCrashes) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.below(200));
    rng.fill(junk.data(), junk.size());
    (void)decode_packet(junk);  // must not crash / UB (ASan would flag)
  }
}

TEST(PacketCodecTest, FuzzMutatedValidPacket) {
  Rng rng(100);
  const Bytes wire = encode_packet(sample_packet(true));
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = wire;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    if (auto p = decode_packet(mutated)) {
      // If it decodes, re-encoding must reproduce the mutated bytes.
      EXPECT_EQ(encode_packet(*p), mutated);
    }
  }
}

TEST(MacInputTest, SegInputLayout) {
  const ResInfo ri{AsId{1, 5}, 7, 100, 200, 3};
  std::uint8_t buf[kSegMacInputLen];
  build_seg_mac_input(ri, 11, 22, buf);
  // Interfaces at the tail, little-endian.
  EXPECT_EQ(buf[21], 11);
  EXPECT_EQ(buf[23], 22);
  // Version byte after ResInfo scalars.
  EXPECT_EQ(buf[20], 3);
}

TEST(MacInputTest, DifferentInterfacesDifferentInput) {
  const ResInfo ri{AsId{1, 5}, 7, 100, 200, 3};
  std::uint8_t a[kSegMacInputLen], b[kSegMacInputLen];
  build_seg_mac_input(ri, 1, 2, a);
  build_seg_mac_input(ri, 2, 1, b);
  EXPECT_NE(0, std::memcmp(a, b, sizeof(a)));
}

TEST(MacInputTest, HopAuthInputIncludesHosts) {
  const ResInfo ri{AsId{1, 5}, 7, 100, 200, 3};
  EerInfo e1{HostAddr::from_u64(1), HostAddr::from_u64(2)};
  EerInfo e2{HostAddr::from_u64(1), HostAddr::from_u64(3)};
  std::uint8_t a[kHopAuthInputLen], b[kHopAuthInputLen];
  build_hopauth_input(ri, e1, 1, 2, a);
  build_hopauth_input(ri, e2, 1, 2, b);
  EXPECT_NE(0, std::memcmp(a, b, sizeof(a)));
}

TEST(MacInputTest, DataInputBindsSizeAndTime) {
  std::uint8_t a[kDataMacInputLen], b[kDataMacInputLen], c[kDataMacInputLen];
  build_data_mac_input(1, 100, a);
  build_data_mac_input(2, 100, b);
  build_data_mac_input(1, 101, c);
  EXPECT_NE(0, std::memcmp(a, b, sizeof(a)));
  EXPECT_NE(0, std::memcmp(a, c, sizeof(a)));
}

// --- control-plane messages -------------------------------------------------

TEST(MessageCodecTest, SegRequestRoundTrip) {
  SegRequest m;
  m.seg_type = topology::SegType::kCore;
  m.min_bw_kbps = 100;
  m.max_bw_kbps = 1000;
  m.ases = {AsId{1, 1}, AsId{1, 2}};
  m.granted = {900};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  auto* d = std::get_if<SegRequest>(&*decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->seg_type, m.seg_type);
  EXPECT_EQ(d->min_bw_kbps, m.min_bw_kbps);
  EXPECT_EQ(d->max_bw_kbps, m.max_bw_kbps);
  EXPECT_EQ(d->ases, m.ases);
  EXPECT_EQ(d->granted, m.granted);
}

TEST(MessageCodecTest, EerRequestRoundTrip) {
  EerRequest m;
  m.min_bw_kbps = 50;
  m.ases = {AsId{1, 1}, AsId{1, 2}, AsId{1, 3}};
  m.path = {topology::Hop{AsId{1, 1}, 0, 1}, topology::Hop{AsId{1, 2}, 2, 3},
            topology::Hop{AsId{1, 3}, 4, 0}};
  m.segrs = {ResKey{AsId{1, 1}, 9}, ResKey{AsId{1, 100}, 3}};
  m.granted = {70, 60};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  auto* d = std::get_if<EerRequest>(&*decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->ases, m.ases);
  EXPECT_EQ(d->path, m.path);
  EXPECT_EQ(d->segrs, m.segrs);
  EXPECT_EQ(d->granted, m.granted);
}

TEST(MessageCodecTest, ActivationRoundTrip) {
  SegActivation m{5};
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  auto* d = std::get_if<SegActivation>(&*decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->version, 5);
}

TEST(MessageCodecTest, ResponseRoundTrip) {
  ControlResponse m;
  m.success = true;
  m.final_bw_kbps = 777;
  m.tokens = {Hvf{1, 2, 3, 4}, Hvf{5, 6, 7, 8}};
  m.sealed_hopauths = {Bytes{1, 2, 3}, Bytes{}};
  m.fail_code = Errc::kOk;
  m.fail_hop = 0;
  auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  auto* d = std::get_if<ControlResponse>(&*decoded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->success, m.success);
  EXPECT_EQ(d->final_bw_kbps, m.final_bw_kbps);
  EXPECT_EQ(d->tokens, m.tokens);
  EXPECT_EQ(d->sealed_hopauths, m.sealed_hopauths);
}

TEST(MessageCodecTest, RejectsUnknownTag) {
  Bytes wire = {0x7F, 0x00};
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(AuthInputTest, IndependentOfGrantedVector) {
  SegRequest a;
  a.min_bw_kbps = 1;
  a.max_bw_kbps = 2;
  a.ases = {AsId{1, 1}};
  SegRequest b = a;
  b.granted = {1000, 2000};
  const ResInfo ri{AsId{1, 1}, 1, 2, 3, 0};
  EXPECT_EQ(auth_input(a, ri), auth_input(b, ri));
}

TEST(AuthInputTest, BindsResInfo) {
  SegRequest m;
  m.ases = {AsId{1, 1}};
  const ResInfo r1{AsId{1, 1}, 1, 2, 3, 0};
  const ResInfo r2{AsId{1, 1}, 2, 2, 3, 0};
  EXPECT_NE(auth_input(m, r1), auth_input(m, r2));
}

TEST(AuthedPayloadTest, RoundTrip) {
  AuthedPayload ap;
  SegRequest m;
  m.ases = {AsId{1, 1}, AsId{1, 2}};
  m.max_bw_kbps = 10;
  ap.message = m;
  ap.macs = {Mac16{1}, Mac16{2}};
  auto decoded = decode_authed(encode_authed(ap));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->macs, ap.macs);
  auto* d = std::get_if<SegRequest>(&decoded->message);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->ases, m.ases);
}

TEST(AuthedPayloadTest, RejectsTruncated) {
  AuthedPayload ap;
  ap.message = SegActivation{1};
  ap.macs = {Mac16{}};
  Bytes wire = encode_authed(ap);
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(decode_authed(wire).has_value());
}

TEST(WireSizeTest, EerHeaderLargerThanSegHeader) {
  Packet seg = sample_packet(false);
  Packet eer = sample_packet(true);
  eer.payload = seg.payload;
  EXPECT_EQ(eer.wire_size(), seg.wire_size() + 32);
}

}  // namespace
}  // namespace colibri::proto
