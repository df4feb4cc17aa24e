#include "colibri/dataplane/gateway.hpp"

#include <cstring>

#include "colibri/crypto/cmac_multi.hpp"

namespace colibri::dataplane {

FastPacket to_fast(const proto::Packet& pkt) {
  FastPacket fp;
  fp.type = pkt.type;
  fp.is_eer = pkt.is_eer;
  fp.num_hops = static_cast<std::uint8_t>(pkt.path.size());
  fp.current_hop = pkt.current_hop;
  fp.resinfo = pkt.resinfo;
  fp.eerinfo = pkt.eerinfo;
  fp.timestamp = pkt.timestamp;
  fp.payload_bytes = static_cast<std::uint32_t>(pkt.payload.size());
  for (size_t i = 0; i < pkt.path.size() && i < kMaxHops; ++i) {
    fp.ifaces[i] = IfPair{pkt.path[i].ingress, pkt.path[i].egress};
    if (i < pkt.hvfs.size()) fp.hvfs[i] = pkt.hvfs[i];
  }
  return fp;
}

proto::Packet to_packet(const FastPacket& fp) {
  proto::Packet pkt;
  pkt.type = fp.type;
  pkt.is_eer = fp.is_eer;
  pkt.current_hop = fp.current_hop;
  pkt.resinfo = fp.resinfo;
  pkt.eerinfo = fp.eerinfo;
  pkt.timestamp = fp.timestamp;
  pkt.path.resize(fp.num_hops);
  pkt.hvfs.resize(fp.num_hops);
  for (size_t i = 0; i < fp.num_hops; ++i) {
    pkt.path[i].ingress = fp.ifaces[i].in;
    pkt.path[i].egress = fp.ifaces[i].eg;
    pkt.hvfs[i] = fp.hvfs[i];
  }
  pkt.payload.resize(fp.payload_bytes);
  return pkt;
}

Gateway::Gateway(AsId local_as, const Clock& clock, const GatewayConfig& cfg,
                 telemetry::MetricsRegistry* registry)
    : local_as_(local_as),
      clock_(&clock),
      cfg_(cfg),
      table_(cfg.expected_reservations),
      registration_(registry, this) {}

namespace {
inline std::size_t idx(Gateway::Verdict v) { return static_cast<std::size_t>(v); }
constexpr size_t kChunk = 64;  // packets per pipeline run
}  // namespace

bool Gateway::install(const proto::ResInfo& resinfo,
                      const proto::EerInfo& eerinfo,
                      const std::vector<topology::Hop>& path,
                      const std::vector<HopAuth>& sigmas) {
  if (path.size() > kMaxHops || path.size() != sigmas.size() || path.empty()) {
    return false;
  }
  GatewayEntry e;
  e.resinfo = resinfo;
  e.eerinfo = eerinfo;
  e.num_hops = static_cast<std::uint8_t>(path.size());
  for (size_t i = 0; i < path.size(); ++i) {
    e.ifaces[i] = IfPair{path[i].ingress, path[i].egress};
    e.sigmas[i] = sigmas[i];
  }
  const auto burst = static_cast<std::uint64_t>(
      cfg_.burst_sec * static_cast<double>(resinfo.bw_kbps) * 125.0);
  e.bucket = TokenBucket(resinfo.bw_kbps, std::max<std::uint64_t>(burst, 2000),
                         clock_->now_ns());
  return table_.insert(resinfo.res_id, std::move(e));
}

bool Gateway::remove(ResId id) { return table_.erase(id); }

Gateway::Verdict Gateway::prepare(ResId id, std::uint32_t payload_bytes,
                                  FastPacket& out, GatewayEntry** entry_out,
                                  telemetry::FlightRecord* rec) {
  GatewayEntry* e = table_.find(id);
  if (e == nullptr) {
    return Verdict::kNoReservation;
  }
  const TimeNs now = clock_->now_ns();
  if (rec != nullptr) {
    rec->time_ns = now;
    rec->src_as = e->resinfo.src_as.raw();
    rec->version = e->resinfo.version;
    rec->exp_time = e->resinfo.exp_time;
  }
  if (e->resinfo.exp_time <= static_cast<UnixSec>(now / kNsPerSec)) {
    return Verdict::kExpired;
  }

  // Header assembly first: the monitored size includes the header (§4.8,
  // "malicious source ASes cannot flood the system with packets with very
  // small or no payload").
  out.type = proto::PacketType::kData;
  out.is_eer = true;
  out.num_hops = e->num_hops;
  out.current_hop = 0;
  out.resinfo = e->resinfo;
  out.eerinfo = e->eerinfo;
  out.payload_bytes = payload_bytes;
  out.ifaces = e->ifaces;
  const std::uint32_t size = out.wire_size();
  if (rec != nullptr) {
    rec->wire_bytes = size;
    rec->bucket_checked = true;
    rec->bucket_available_bytes = e->bucket.available_bytes();
  }

  // Deterministic monitoring (token bucket per EER).
  if (!e->bucket.allow(size, now)) {
    return Verdict::kRateLimited;
  }

  // High-precision timestamp, unique per packet for this source.
  out.timestamp = PacketTimestamp::encode(now, e->resinfo.exp_time);
  if (rec != nullptr) rec->timestamp = out.timestamp;

  *entry_out = e;
  return Verdict::kOk;
}

Gateway::Verdict Gateway::process(ResId id, std::uint32_t payload_bytes,
                                  FastPacket& out) {
  Verdict v;
  run(&id, &payload_bytes, 1, &out, &v);
  return v;
}

Gateway::Verdict Gateway::process_encapsulated(ResId id,
                                               std::uint32_t payload_bytes,
                                               proto::Ipv4Encap intra,
                                               Bytes& frame_out) {
  FastPacket pkt;
  const Verdict v = process(id, payload_bytes, pkt);
  if (v != Verdict::kOk) return v;
  intra.dscp = proto::classify_for_dscp(/*is_eer_data=*/true,
                                        /*is_control=*/false);
  frame_out = proto::encapsulate(intra, proto::encode_packet(to_packet(pkt)));
  return Verdict::kOk;
}

size_t Gateway::process_batch(const ResId* ids,
                              const std::uint32_t* payload_bytes, size_t n,
                              FastPacket* out, Verdict* verdicts) {
  size_t ok = 0;
  for (size_t done = 0; done < n; done += kChunk) {
    const size_t m = (n - done < kChunk) ? n - done : kChunk;
    ok += run(ids + done, payload_bytes + done, m, out + done, verdicts + done);
  }
  return ok;
}

size_t Gateway::run(const ResId* ids, const std::uint32_t* payload_bytes,
                    size_t n, FastPacket* out, Verdict* verdicts) {
  const bool armed = recorder_ != nullptr && recorder_->armed();
  const bool prof = profiler_.enabled();
  std::int64_t tp = prof ? telemetry::profiler_now_ns() : 0;

  // Stage 1: prefetch the reservation-table probe lines for the whole
  // batch so the sequential prepare stage overlaps its DRAM misses.
  for (size_t i = 0; i < n; ++i) table_.prefetch(ids[i]);
  if (prof) tp = profiler_.lap(kStagePrefetch, tp);

  // Stage 2: sequential prepare in arrival order. The token bucket and
  // timestamp encoder are stateful: duplicate ids within one batch must
  // observe each other's token consumption exactly as they would one
  // call apart. No inserts happen here, so the entry pointers stay valid
  // through the crypto stage below.
  GatewayEntry* ents[kChunk];
  size_t ok = 0;
  for (size_t i = 0; i < n; ++i) {
    ents[i] = nullptr;
    Verdict v;
    if (!armed) {
      v = prepare(ids[i], payload_bytes[i], out[i], &ents[i], nullptr);
    } else {
      telemetry::FlightRecord rec;
      rec.component = telemetry::FlightRecorder::kGateway;
      const bool sampled = recorder_->sample_tick();
      rec.time_ns = clock_->now_ns();  // prepare overwrites once entry found
      rec.res_id = ids[i];
      rec.src_as = local_as_.raw();  // unknown reservation: our own AS
      v = prepare(ids[i], payload_bytes[i], out[i], &ents[i], &rec);
      recorder_->offer(rec, sampled, v != Verdict::kOk,
                       static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(errc_from_verdict(v)));
    }
    verdicts_[idx(v)].bump();
    verdicts[i] = v;
    if (v == Verdict::kOk) {
      ++ok;
    } else {
      ents[i] = nullptr;
    }
  }
  if (prof) tp = profiler_.lap(kStagePrepare, tp);

  // Stage 3: multi-lane Eq. 6 HVF fill. Every (packet, hop) pair is one
  // AES lane with its own σ_i key; lanes are keyed and enciphered
  // 4-wide, flushed in fixed-size groups so the scratch stays on the
  // stack (up to kChunk packets × kMaxHops hops per chunk).
  constexpr size_t kLanes = 64;
  crypto::Aes128 ciphers[kLanes];  // keyed below; no per-call clear
  alignas(16) std::uint8_t blocks[kLanes * 16];
  alignas(16) std::uint8_t enc[kLanes * 16];
  proto::Hvf* dst[kLanes];
  size_t l = 0;
  const auto flush = [&] {
    crypto::aes128_encrypt_each(ciphers, l, blocks, enc);
    for (size_t j = 0; j < l; ++j) {
      std::memcpy(dst[j]->data(), enc + 16 * j, dst[j]->size());
    }
    l = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    const GatewayEntry* e = ents[i];
    if (e == nullptr) continue;
    const std::uint32_t size = out[i].wire_size();
    for (std::uint8_t h = 0; h < e->num_hops; ++h) {
      ciphers[l].set_key(e->sigmas[h].data());
      std::memset(blocks + 16 * l, 0, 16);
      proto::build_data_mac_input(out[i].timestamp, size, blocks + 16 * l);
      dst[l] = &out[i].hvfs[h];
      if (++l == kLanes) flush();
    }
  }
  if (l != 0) flush();
  if (prof) {
    profiler_.lap(kStageHvfCrypto, tp);
    profiler_.count_batch(n);
  }
  return ok;
}

GatewayStats Gateway::snapshot() const {
  GatewayStats s;
  s.forwarded = verdicts_[idx(Verdict::kOk)].value();
  s.no_reservation = verdicts_[idx(Verdict::kNoReservation)].value();
  s.rate_limited = verdicts_[idx(Verdict::kRateLimited)].value();
  s.expired = verdicts_[idx(Verdict::kExpired)].value();
  return s;
}

void Gateway::reset() {
  for (auto& c : verdicts_) c.reset();
  profiler_.reset();
}

void Gateway::collect_metrics_bare(telemetry::MetricSink& sink) const {
  sink.counter("forwarded", verdicts_[idx(Verdict::kOk)].value());
  for (std::size_t i = idx(Verdict::kNoReservation); i < kNumVerdicts; ++i) {
    const auto v = static_cast<Verdict>(i);
    sink.counter(std::string("drop.") + errc_name(errc_from_verdict(v)),
                 verdicts_[i].value());
  }
  profiler_.collect_metrics(sink);
}

void Gateway::collect_metrics(telemetry::MetricSink& sink) const {
  telemetry::PrefixedSink prefixed("gateway.", sink);
  collect_metrics_bare(prefixed);
}

Errc errc_from_verdict(Gateway::Verdict v) {
  switch (v) {
    case Gateway::Verdict::kOk: return Errc::kOk;
    case Gateway::Verdict::kNoReservation: return Errc::kNoSuchReservation;
    case Gateway::Verdict::kRateLimited: return Errc::kRateLimited;
    case Gateway::Verdict::kExpired: return Errc::kExpired;
  }
  return Errc::kInternal;
}

}  // namespace colibri::dataplane
