// Wire-format fuzz harness.
//
// One entry point, two drivers: under COLIBRI_FUZZING it is a libFuzzer
// target exploring the packet codec coverage-guided; without libFuzzer
// the same function replays the checked-in corpus as a plain ctest case
// (see replay_main.cpp). Either way, every input must uphold the wire
// invariants:
//
//   1. decode -> encode is the byte-identical identity on accepted
//      frames (the codec has one canonical form, no accepted aliases);
//   2. decode(encode(p)) == p;
//   3. batch_ingest accepts exactly the decodable frames whose hop
//      count fits a FastPacket;
//   4. the FastPacket round trip preserves every header field
//      forwarding reads;
//   5. the router pipeline (process_batch on the ingested batch) and the
//      per-packet reference router of tests/support return the same
//      verdict and cursor position for the decoded packet — parity must
//      hold for arbitrary adversarial input, not just well-formed
//      streams;
//   6. the trace-context block is control-plane only: stripping it from
//      an accepted frame yields another accepted frame that is exactly
//      kTraceContextLen shorter, and both frames produce the identical
//      data-plane (FastPacket) view. peek_trace_context agrees with the
//      full decode on every accepted frame.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "colibri/common/clock.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/proto/codec.hpp"
#include "support/reference_dataplane.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "wire invariant violated: %s\n", what);
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const colibri::BytesView frame(data, size);
  const auto pkt = colibri::proto::decode_packet(frame);

  colibri::dataplane::PacketBatch batch;
  const bool ingested = colibri::dataplane::batch_ingest(frame, batch);

  if (!pkt.has_value()) {
    check(!ingested, "ingest accepted an undecodable frame");
    return 0;
  }

  const colibri::Bytes re = colibri::proto::encode_packet(*pkt);
  check(re.size() == size && std::memcmp(re.data(), data, size) == 0,
        "re-encode of an accepted frame is not byte-identical");
  const auto again = colibri::proto::decode_packet(re);
  check(again.has_value() && *again == *pkt, "decode(encode(p)) != p");

  // Trace-context invariants on every accepted frame. The O(1) peek the
  // bus uses must agree with the full decode, and the stripped twin
  // (same frame, no trace block) must itself be canonical.
  check(colibri::proto::peek_trace_context(frame) ==
            (pkt->has_trace ? pkt->trace : colibri::proto::TraceContext{}),
        "peek_trace_context disagrees with decode");
  colibri::proto::Packet stripped = *pkt;
  stripped.has_trace = false;
  stripped.trace = {};
  const colibri::Bytes swire = colibri::proto::encode_packet(stripped);
  check(swire.size() ==
            size - (pkt->has_trace ? colibri::proto::kTraceContextLen : 0),
        "trace block does not cost exactly its wire bytes");
  const auto spkt = colibri::proto::decode_packet(swire);
  check(spkt.has_value() && *spkt == stripped,
        "stripping the trace block broke the frame");

  const bool fits = pkt->path.size() <= colibri::dataplane::kMaxHops;
  check(ingested == fits, "ingest disagrees with decode + hop bound");
  if (!fits) return 0;
  check(batch.size == 1, "ingest did not append exactly one packet");

  const colibri::dataplane::FastPacket fp = colibri::dataplane::to_fast(*pkt);
  const colibri::proto::Packet back = colibri::dataplane::to_packet(fp);
  check(back.type == pkt->type && back.is_eer == pkt->is_eer &&
            back.current_hop == pkt->current_hop &&
            back.resinfo == pkt->resinfo && back.timestamp == pkt->timestamp &&
            back.payload.size() == pkt->payload.size() &&
            back.hvfs == pkt->hvfs,
        "FastPacket round trip lost header state");
  check(!pkt->is_eer || back.eerinfo == pkt->eerinfo,
        "FastPacket round trip lost host addresses");
  for (std::size_t i = 0; i < pkt->path.size(); ++i) {
    check(back.path[i].ingress == pkt->path[i].ingress &&
              back.path[i].egress == pkt->path[i].egress,
          "FastPacket round trip lost interface pairs");
  }

  // Zero-context fallback parity: the data plane never sees the trace
  // block, so the traced frame and its stripped twin convert to the
  // same FastPacket view.
  check(colibri::dataplane::to_packet(colibri::dataplane::to_fast(*spkt)) ==
            back,
        "trace context leaked into the data-plane view");

  // Verdict parity on adversarial input: hookless pipeline and reference
  // routers with a frozen clock (persistent across inputs; only their
  // counters grow).
  static colibri::SimClock clock(100 * colibri::kNsPerSec);
  static const colibri::drkey::Key128 key = [] {
    colibri::drkey::Key128 k;
    k.bytes.fill(7);
    return k;
  }();
  static colibri::dataplane::reference::ReferenceRouter oracle(
      colibri::AsId{1, 2}, key, clock);
  static colibri::dataplane::BorderRouter pipeline(colibri::AsId{1, 2}, key,
                                                   clock, nullptr);

  colibri::dataplane::FastPacket oracle_pkt = fp;
  const auto vr = oracle.process(oracle_pkt);
  colibri::dataplane::BorderRouter::Verdict vp;
  pipeline.process_batch(batch, &vp);
  check(vr == vp, "reference/pipeline router verdict divergence");
  check(oracle_pkt.current_hop == batch[0].current_hop,
        "reference/pipeline cursor divergence");
  return 0;
}
