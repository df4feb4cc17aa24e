// Per-packet reference border router and gateway: the differential
// oracle for the data-plane pipeline.
//
// BorderRouter and Gateway run one staged batch pipeline (process() is a
// batch of one). These references take each packet end to end in the
// most direct form of paper §4.6 instead: header check, one clock read,
// then expiry, blocklist, the HVF (computed lazily with the single-block
// helpers of hvf.hpp, never the multi-lane crypto), dupsup, OFD and the
// cursor advance. They share only the packet types, the HVF helpers and
// the hook objects with the pipeline, so agreement checks its stage
// split, multi-lane crypto and hook ordering against an independent
// definition: verdicts, cursor, emitted headers, counters, the order of
// clock reads and flight records must all match.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"

namespace colibri::dataplane::reference {

class ReferenceRouter {
 public:
  using Verdict = BorderRouter::Verdict;

  ReferenceRouter(AsId local_as, const drkey::Key128& hop_key,
                  const Clock& clock)
      : local_as_(local_as), key_(hop_key.bytes.data()), clock_(&clock) {}

  void attach_blocklist(Blocklist* b) { blocklist_ = b; }
  void attach_dupsup(DuplicateSuppression* d) { dupsup_ = d; }
  void attach_ofd(OverUseFlowDetector* o) { ofd_ = o; }
  void attach_flight_recorder(telemetry::FlightRecorder* r) { recorder_ = r; }
  AsId local_as() const { return local_as_; }

  Verdict process(FastPacket& pkt) {
    telemetry::FlightRecord rec;
    const bool armed = recorder_ != nullptr && recorder_->armed();
    const bool sampled = armed && recorder_->sample_tick();
    if (armed) {
      rec.component = telemetry::FlightRecorder::kRouter;
      rec.time_ns = clock_->now_ns();  // classify overwrites unless malformed
      rec.res_id = pkt.resinfo.res_id;
      rec.src_as = pkt.resinfo.src_as.raw();
    }
    const Verdict v = classify(pkt, armed ? &rec : nullptr);
    ++counts_[static_cast<std::size_t>(v)];
    if (armed) {
      recorder_->offer(rec, sampled,
                       v != Verdict::kForward && v != Verdict::kDeliver,
                       static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(errc_from_verdict(v)));
    }
    return v;
  }

  RouterStats snapshot() const {
    auto n = [&](Verdict v) { return counts_[static_cast<std::size_t>(v)]; };
    return {n(Verdict::kForward), n(Verdict::kDeliver),   n(Verdict::kBadHvf),
            n(Verdict::kExpired), n(Verdict::kMalformed), n(Verdict::kBlocked),
            n(Verdict::kReplay),  n(Verdict::kOveruse)};
  }

 private:
  Verdict classify(FastPacket& pkt, telemetry::FlightRecord* rec) {
    if (pkt.num_hops == 0 || pkt.num_hops > kMaxHops ||
        pkt.current_hop >= pkt.num_hops) {
      return Verdict::kMalformed;
    }
    const TimeNs now = clock_->now_ns();
    const IfPair hop = pkt.ifaces[pkt.current_hop];
    const proto::Hvf& got = pkt.hvfs[pkt.current_hop];
    if (rec != nullptr) {
      rec->time_ns = now;
      rec->version = pkt.resinfo.version;
      rec->hop = pkt.current_hop;
      rec->if_in = hop.in;
      rec->if_eg = hop.eg;
      rec->timestamp = pkt.timestamp;
      rec->wire_bytes = pkt.wire_size();
      rec->exp_time = pkt.resinfo.exp_time;
    }
    if (pkt.resinfo.exp_time <= static_cast<UnixSec>(now / kNsPerSec)) {
      return Verdict::kExpired;
    }
    if (blocklist_ != nullptr && blocklist_->blocked(pkt.resinfo.src_as)) {
      return Verdict::kBlocked;
    }
    // Eq. 4 then Eq. 6 for EER packets, Eq. 3 for SegR control packets.
    const proto::Hvf want =
        pkt.is_eer
            ? compute_data_hvf(compute_hopauth(key_, pkt.resinfo, pkt.eerinfo,
                                               hop.in, hop.eg),
                               pkt.timestamp, pkt.wire_size())
            : compute_seg_hvf(key_, pkt.resinfo, hop.in, hop.eg);
    if (rec != nullptr) {
      rec->hvf_checked = true;
      std::copy_n(got.begin(), rec->hvf_got.size(), rec->hvf_got.begin());
      std::copy_n(want.begin(), rec->hvf_want.size(), rec->hvf_want.begin());
    }
    if (!hvf_equal(want, got)) return Verdict::kBadHvf;

    const bool eer_data = pkt.is_eer && pkt.type == proto::PacketType::kData;
    if (dupsup_ != nullptr && eer_data) {
      const auto d = dupsup_->check(
          pkt.resinfo.src_as, pkt.resinfo.res_id, pkt.timestamp,
          PacketTimestamp::decode(pkt.timestamp, pkt.resinfo.exp_time), now);
      if (rec != nullptr) rec->dupsup_verdict = static_cast<std::uint8_t>(d);
      if (d != DuplicateSuppression::Verdict::kFresh) return Verdict::kReplay;
    }
    if (ofd_ != nullptr && eer_data) {
      const auto o = ofd_->update(pkt.resinfo.src_as, pkt.resinfo.res_id,
                                  pkt.wire_size(), pkt.resinfo.bw_kbps, now);
      if (rec != nullptr) rec->ofd_verdict = static_cast<std::uint8_t>(o);
      if (o == OverUseFlowDetector::Verdict::kOveruse) {
        if (blocklist_ != nullptr) {
          blocklist_->report({pkt.resinfo.src_as, pkt.resinfo.res_id, now,
                              pkt.wire_size()});
        }
        return Verdict::kOveruse;
      }
    }
    if (pkt.at_last_hop()) return Verdict::kDeliver;
    ++pkt.current_hop;
    return Verdict::kForward;
  }

  AsId local_as_;
  crypto::Aes128 key_;
  const Clock* clock_;
  Blocklist* blocklist_ = nullptr;
  DuplicateSuppression* dupsup_ = nullptr;
  OverUseFlowDetector* ofd_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::array<std::uint64_t, BorderRouter::kNumVerdicts> counts_{};
};

class ReferenceGateway {
 public:
  using Verdict = Gateway::Verdict;

  ReferenceGateway(AsId local_as, const Clock& clock,
                   const GatewayConfig& cfg = {})
      : local_as_(local_as), clock_(&clock), cfg_(cfg) {}

  bool install(const proto::ResInfo& ri, const proto::EerInfo& ei,
               const std::vector<topology::Hop>& path,
               const std::vector<HopAuth>& sigmas) {
    if (path.empty() || path.size() > kMaxHops ||
        path.size() != sigmas.size()) {
      return false;
    }
    GatewayEntry e;
    e.resinfo = ri;
    e.eerinfo = ei;
    e.num_hops = static_cast<std::uint8_t>(path.size());
    for (size_t i = 0; i < path.size(); ++i) {
      e.ifaces[i] = IfPair{path[i].ingress, path[i].egress};
      e.sigmas[i] = sigmas[i];
    }
    // Burst allowance: burst_sec of the reserved rate, at least 2000 B.
    const auto burst = static_cast<std::uint64_t>(
        cfg_.burst_sec * static_cast<double>(ri.bw_kbps) * 125.0);
    e.bucket = TokenBucket(ri.bw_kbps, std::max<std::uint64_t>(burst, 2000),
                           clock_->now_ns());
    if (ri.res_id == 0) return false;  // reserved, as in the gateway table
    table_[ri.res_id] = e;
    return true;
  }
  void attach_flight_recorder(telemetry::FlightRecorder* r) { recorder_ = r; }

  Verdict process(ResId id, std::uint32_t payload_bytes, FastPacket& out) {
    telemetry::FlightRecord rec;
    const bool armed = recorder_ != nullptr && recorder_->armed();
    const bool sampled = armed && recorder_->sample_tick();
    if (armed) {
      rec.component = telemetry::FlightRecorder::kGateway;
      rec.time_ns = clock_->now_ns();  // classify overwrites once found
      rec.res_id = id;
      rec.src_as = local_as_.raw();  // unknown reservation: our own AS
    }
    const Verdict v = classify(id, payload_bytes, out, armed ? &rec : nullptr);
    ++counts_[static_cast<std::size_t>(v)];
    if (armed) {
      recorder_->offer(rec, sampled, v != Verdict::kOk,
                       static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(errc_from_verdict(v)));
    }
    return v;
  }

  GatewayStats snapshot() const {
    return {counts_[0], counts_[1], counts_[2], counts_[3]};
  }

 private:
  Verdict classify(ResId id, std::uint32_t payload_bytes, FastPacket& out,
                   telemetry::FlightRecord* rec) {
    const auto it = table_.find(id);
    if (it == table_.end()) return Verdict::kNoReservation;
    GatewayEntry& e = it->second;
    const TimeNs now = clock_->now_ns();
    if (rec != nullptr) {
      rec->time_ns = now;
      rec->src_as = e.resinfo.src_as.raw();
      rec->version = e.resinfo.version;
      rec->exp_time = e.resinfo.exp_time;
    }
    if (e.resinfo.exp_time <= static_cast<UnixSec>(now / kNsPerSec)) {
      return Verdict::kExpired;
    }
    // The monitored size includes the header (§4.8): assemble it first.
    out.type = proto::PacketType::kData;
    out.is_eer = true;
    out.num_hops = e.num_hops;
    out.current_hop = 0;
    out.resinfo = e.resinfo;
    out.eerinfo = e.eerinfo;
    out.payload_bytes = payload_bytes;
    out.ifaces = e.ifaces;
    const std::uint32_t size = out.wire_size();
    if (rec != nullptr) {
      rec->wire_bytes = size;
      rec->bucket_checked = true;
      rec->bucket_available_bytes = e.bucket.available_bytes();
    }
    if (!e.bucket.allow(size, now)) return Verdict::kRateLimited;
    out.timestamp = PacketTimestamp::encode(now, e.resinfo.exp_time);
    if (rec != nullptr) rec->timestamp = out.timestamp;
    // One single-block MAC per on-path AS (Eq. 6), keyed by σ_i.
    for (std::uint8_t h = 0; h < e.num_hops; ++h) {
      out.hvfs[h] = compute_data_hvf(e.sigmas[h], out.timestamp, size);
    }
    return Verdict::kOk;
  }

  AsId local_as_;
  const Clock* clock_;
  GatewayConfig cfg_;
  std::unordered_map<ResId, GatewayEntry> table_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::array<std::uint64_t, Gateway::kNumVerdicts> counts_{};
};

}  // namespace colibri::dataplane::reference
