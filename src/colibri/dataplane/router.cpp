#include "colibri/dataplane/router.hpp"

#include <cstring>

#include "colibri/crypto/cmac_multi.hpp"

namespace colibri::dataplane {

namespace {

inline std::size_t idx(BorderRouter::Verdict v) {
  return static_cast<std::size_t>(v);
}

}  // namespace

BorderRouter::BorderRouter(AsId local_as, const drkey::Key128& hop_key,
                           const Clock& clock,
                           telemetry::MetricsRegistry* registry)
    : local_as_(local_as),
      hop_cipher_(hop_key.bytes.data()),
      clock_(&clock),
      registration_(registry, this) {}

template <bool kRecording>
BorderRouter::Verdict BorderRouter::finalize(FastPacket& pkt, TimeNs now,
                                             const proto::Hvf& expected,
                                             telemetry::FlightRecord* rec) {
  if constexpr (kRecording) {
    rec->time_ns = now;
    rec->src_as = pkt.resinfo.src_as.raw();
    rec->res_id = pkt.resinfo.res_id;
    rec->version = pkt.resinfo.version;
    rec->hop = pkt.current_hop;
    rec->if_in = pkt.ifaces[pkt.current_hop].in;
    rec->if_eg = pkt.ifaces[pkt.current_hop].eg;
    rec->timestamp = pkt.timestamp;
    rec->wire_bytes = pkt.wire_size();
    rec->exp_time = pkt.resinfo.exp_time;
  }
  // Reservation expiry.
  if (pkt.resinfo.exp_time <= static_cast<UnixSec>(now / kNsPerSec)) {
    return Verdict::kExpired;
  }
  // Policing: traffic from blocked source ASes is dropped up front.
  if (blocklist_ != nullptr && blocklist_->blocked(pkt.resinfo.src_as)) {
    return Verdict::kBlocked;
  }

  if constexpr (kRecording) {
    rec->hvf_checked = true;
    std::copy_n(pkt.hvfs[pkt.current_hop].begin(), rec->hvf_got.size(),
                rec->hvf_got.begin());
    std::copy_n(expected.begin(), rec->hvf_want.size(),
                rec->hvf_want.begin());
  }
  if (!hvf_equal(expected, pkt.hvfs[pkt.current_hop])) {
    return Verdict::kBadHvf;
  }

  // Replay suppression (EER data only; control traffic is rate-limited at
  // the CServ instead).
  if (dupsup_ != nullptr && pkt.is_eer &&
      pkt.type == proto::PacketType::kData) {
    const TimeNs ts_ns =
        PacketTimestamp::decode(pkt.timestamp, pkt.resinfo.exp_time);
    const auto verdict = dupsup_->check(pkt.resinfo.src_as, pkt.resinfo.res_id,
                                        pkt.timestamp, ts_ns, now);
    if constexpr (kRecording) {
      rec->dupsup_verdict = static_cast<std::uint8_t>(verdict);
    }
    if (verdict != DuplicateSuppression::Verdict::kFresh) {
      return Verdict::kReplay;
    }
  }

  // Probabilistic overuse monitoring.
  if (ofd_ != nullptr && pkt.is_eer && pkt.type == proto::PacketType::kData) {
    const auto verdict =
        ofd_->update(pkt.resinfo.src_as, pkt.resinfo.res_id, pkt.wire_size(),
                     pkt.resinfo.bw_kbps, now);
    if constexpr (kRecording) {
      rec->ofd_verdict = static_cast<std::uint8_t>(verdict);
    }
    if (verdict == OverUseFlowDetector::Verdict::kOveruse) {
      if (blocklist_ != nullptr) {
        blocklist_->report(OffenseReport{pkt.resinfo.src_as,
                                         pkt.resinfo.res_id, now,
                                         pkt.wire_size()});
      }
      return Verdict::kOveruse;
    }
  }

  if (pkt.at_last_hop()) {
    return Verdict::kDeliver;
  }
  ++pkt.current_hop;
  return Verdict::kForward;
}

// Multi-lane expected-HVF computation. All per-packet MACs under K_i
// share one key, so the CBC-MAC chains of the whole batch run through
// Aes128::encrypt_blocks (4-wide interleaved on AES-NI); the Eq. 6
// encryption is keyed per packet by σ_i, so those lanes go through
// AesSchedule + aes128_encrypt_each. Pure computation — no telemetry,
// no clock, no hook state — which is why it may run speculatively for
// packets the sequential finalize later drops as expired or blocked.
void BorderRouter::batch_expected_hvfs(const FastPacket* pkts, std::size_t n,
                                       const bool* fmt_ok,
                                       proto::Hvf* expected) const {
  constexpr std::size_t kCap = PacketBatch::kCapacity;
  constexpr std::size_t kHopStride = 64;  // kHopAuthInputLen (57) padded
  constexpr std::size_t kSegStride = 32;  // kSegMacInputLen (25) padded
  static_assert(proto::kHopAuthInputLen <= kHopStride);
  static_assert(proto::kSegMacInputLen <= kSegStride);
  static_assert(proto::kDataMacInputLen <= 16);

  std::uint8_t eer_lane[kCap];
  std::uint8_t seg_lane[kCap];
  std::size_t n_eer = 0, n_seg = 0;
  alignas(16) std::uint8_t eer_msgs[kCap * kHopStride];
  alignas(16) std::uint8_t seg_msgs[kCap * kSegStride];
  for (std::size_t i = 0; i < n; ++i) {
    if (!fmt_ok[i]) continue;
    const FastPacket& p = pkts[i];
    const IfPair hop = p.ifaces[p.current_hop];
    if (p.is_eer) {
      proto::build_hopauth_input(p.resinfo, p.eerinfo, hop.in, hop.eg,
                                 eer_msgs + n_eer * kHopStride);
      eer_lane[n_eer++] = static_cast<std::uint8_t>(i);
    } else {
      proto::build_seg_mac_input(p.resinfo, hop.in, hop.eg,
                                 seg_msgs + n_seg * kSegStride);
      seg_lane[n_seg++] = static_cast<std::uint8_t>(i);
    }
  }

  if (n_seg != 0) {
    // Eq. 3, all SegR lanes under K_i at once.
    alignas(16) std::uint8_t macs[kCap * 16];
    crypto::cbcmac_fixed_multi(hop_cipher_, seg_msgs, proto::kSegMacInputLen,
                               kSegStride, n_seg, macs);
    for (std::size_t j = 0; j < n_seg; ++j) {
      proto::Hvf& v = expected[seg_lane[j]];
      std::memcpy(v.data(), macs + 16 * j, v.size());
    }
  }

  if (n_eer != 0) {
    // Eq. 4: all σ_i lanes under K_i at once.
    alignas(16) std::uint8_t sigmas[kCap * 16];
    crypto::cbcmac_fixed_multi(hop_cipher_, eer_msgs, proto::kHopAuthInputLen,
                               kHopStride, n_eer, sigmas);
    // Eq. 6: one single-block encryption per packet, keyed by its σ_i.
    crypto::AesSchedule scheds[kCap];
    alignas(16) std::uint8_t blocks[kCap * 16];
    std::memset(blocks, 0, 16 * n_eer);
    for (std::size_t j = 0; j < n_eer; ++j) {
      scheds[j].expand(sigmas + 16 * j);
      const FastPacket& p = pkts[eer_lane[j]];
      proto::build_data_mac_input(p.timestamp, p.wire_size(), blocks + 16 * j);
    }
    alignas(16) std::uint8_t enc[kCap * 16];
    crypto::aes128_encrypt_each(scheds, n_eer, blocks, enc);
    for (std::size_t j = 0; j < n_eer; ++j) {
      proto::Hvf& v = expected[eer_lane[j]];
      std::memcpy(v.data(), enc + 16 * j, v.size());
    }
  }
}

BorderRouter::Verdict BorderRouter::process(FastPacket& pkt) {
  Verdict v;
  run(&pkt, 1, &v);
  return v;
}

void BorderRouter::process_batch(PacketBatch& batch, Verdict* verdicts) {
  run(batch.pkts.data(), batch.size, verdicts);
}

void BorderRouter::run(FastPacket* pkts, std::size_t n, Verdict* verdicts) {
  constexpr std::size_t kCap = PacketBatch::kCapacity;
  const bool armed = recorder_ != nullptr && recorder_->armed();
  const bool prof = profiler_.enabled();
  std::int64_t tp = prof ? telemetry::profiler_now_ns() : 0;

  // Stage 1: header sanity + clock sampling, sequential in packet order:
  // exactly one now_ns() per well-formed packet (plus the recorder's
  // pre-finalize sample when armed), in arrival order, so verdicts do
  // not depend on how a stream is cut into batches, even under a clock
  // that advances per call.
  TimeNs now[kCap];
  TimeNs pre[kCap];
  bool fmt_ok[kCap] = {};
  bool sampled[kCap];
  for (std::size_t i = 0; i < n; ++i) {
    if (armed) {
      sampled[i] = recorder_->sample_tick();
      pre[i] = clock_->now_ns();
    }
    const FastPacket& p = pkts[i];
    fmt_ok[i] = !(p.num_hops == 0 || p.num_hops > kMaxHops ||
                  p.current_hop >= p.num_hops);
    if (fmt_ok[i]) now[i] = clock_->now_ns();
  }
  if (prof) tp = profiler_.lap(kStageHeaderSanity, tp);

  // Stage 2: prefetch the dupsup Bloom-filter words for the whole batch
  // so the sequential finalize finds them in cache.
  if (dupsup_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const FastPacket& p = pkts[i];
      if (fmt_ok[i] && p.is_eer && p.type == proto::PacketType::kData) {
        dupsup_->prefetch(p.resinfo.src_as, p.resinfo.res_id, p.timestamp);
      }
    }
  }
  if (prof) tp = profiler_.lap(kStagePrefetch, tp);

  // Stage 3: batched expected HVFs (pure, possibly speculative).
  proto::Hvf expected[kCap];
  batch_expected_hvfs(pkts, n, fmt_ok, expected);
  if (prof) tp = profiler_.lap(kStageHvfCrypto, tp);

  // Stage 4: sequential per-packet finalize, in arrival order. The
  // stateful hooks demand this: packet i's overuse report may land its
  // source AS on the blocklist before packet j > i is checked, and the
  // dupsup filter must observe duplicates in stream order.
  for (std::size_t i = 0; i < n; ++i) {
    Verdict v;
    if (!armed) {
      v = fmt_ok[i] ? finalize<false>(pkts[i], now[i], expected[i], nullptr)
                    : Verdict::kMalformed;
    } else {
      telemetry::FlightRecord rec;
      rec.component = telemetry::FlightRecorder::kRouter;
      rec.time_ns = pre[i];  // finalize overwrites unless malformed
      rec.res_id = pkts[i].resinfo.res_id;
      rec.src_as = pkts[i].resinfo.src_as.raw();
      v = fmt_ok[i] ? finalize<true>(pkts[i], now[i], expected[i], &rec)
                    : Verdict::kMalformed;
      recorder_->offer(rec, sampled[i],
                       v != Verdict::kForward && v != Verdict::kDeliver,
                       static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(errc_from_verdict(v)));
    }
    verdicts_[idx(v)].bump();
    verdicts[i] = v;
  }
  if (prof) {
    profiler_.lap(kStageFinalize, tp);
    profiler_.count_batch(n);
  }
}

RouterStats BorderRouter::snapshot() const {
  RouterStats s;
  s.forwarded = verdicts_[idx(Verdict::kForward)].value();
  s.delivered = verdicts_[idx(Verdict::kDeliver)].value();
  s.bad_hvf = verdicts_[idx(Verdict::kBadHvf)].value();
  s.expired = verdicts_[idx(Verdict::kExpired)].value();
  s.malformed = verdicts_[idx(Verdict::kMalformed)].value();
  s.blocked = verdicts_[idx(Verdict::kBlocked)].value();
  s.replayed = verdicts_[idx(Verdict::kReplay)].value();
  s.overuse_dropped = verdicts_[idx(Verdict::kOveruse)].value();
  return s;
}

void BorderRouter::reset() {
  for (auto& c : verdicts_) c.reset();
  profiler_.reset();
}

void BorderRouter::collect_metrics(telemetry::MetricSink& sink) const {
  sink.counter("router.forwarded", verdicts_[idx(Verdict::kForward)].value());
  sink.counter("router.delivered", verdicts_[idx(Verdict::kDeliver)].value());
  for (std::size_t i = idx(Verdict::kBadHvf); i < kNumVerdicts; ++i) {
    const auto v = static_cast<Verdict>(i);
    sink.counter(std::string("router.drop.") + errc_name(errc_from_verdict(v)),
                 verdicts_[i].value());
  }
  telemetry::PrefixedSink prefixed("router.", sink);
  profiler_.collect_metrics(prefixed);
}

Errc errc_from_verdict(BorderRouter::Verdict v) {
  switch (v) {
    case BorderRouter::Verdict::kForward:
    case BorderRouter::Verdict::kDeliver:
      return Errc::kOk;
    case BorderRouter::Verdict::kBadHvf: return Errc::kAuthFailed;
    case BorderRouter::Verdict::kExpired: return Errc::kExpired;
    case BorderRouter::Verdict::kMalformed: return Errc::kMalformed;
    case BorderRouter::Verdict::kBlocked: return Errc::kBlocked;
    case BorderRouter::Verdict::kReplay: return Errc::kReplay;
    case BorderRouter::Verdict::kOveruse: return Errc::kOveruse;
  }
  return Errc::kInternal;
}

std::vector<telemetry::AlertRule> default_router_alert_rules(
    double drops_per_sec, TimeNs for_ns) {
  telemetry::AlertRule r;
  r.name = "router.drop-spike";
  r.series = "router.drop.";  // prefix: sums every drop reason
  r.signal = telemetry::AlertSignal::kRate;
  r.span_ns = kNsPerSec;
  r.cmp = telemetry::AlertCmp::kAbove;
  r.threshold = drops_per_sec;
  r.for_ns = for_ns;
  r.severity = telemetry::Severity::kError;
  std::vector<telemetry::AlertRule> rules;
  rules.push_back(std::move(r));
  return rules;
}

}  // namespace colibri::dataplane
