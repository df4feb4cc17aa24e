#include "colibri/sim/scenario.hpp"

#include <unordered_map>

namespace colibri::sim {
namespace {

constexpr double kGbps = 1e9;

BwKbps gbps_to_kbps(double gbps) {
  return static_cast<BwKbps>(gbps * 1e6);
}

}  // namespace

ProtectionScenario::ProtectionScenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  src_hop_key_.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  dst_hop_key_.bytes = {16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1};

  // Two-hop path: source AS egress 1 -> destination AS ingress 1.
  path_ = {topology::Hop{src_as_, kNoInterface, 1},
           topology::Hop{dst_as_, 1, kNoInterface}};

  for (size_t i = 0; i < cfg_.reservation_gbps.size(); ++i) {
    proto::ResInfo ri;
    ri.src_as = src_as_;
    ri.res_id = static_cast<ResId>(i + 1);
    ri.bw_kbps = gbps_to_kbps(cfg_.reservation_gbps[i]);
    ri.exp_time = 3600;  // far beyond any phase
    ri.version = 0;
    reservations_.push_back(ri);

    proto::EerInfo ei;
    ei.src_host = HostAddr::from_u64(100 + i);
    ei.dst_host = HostAddr::from_u64(200 + i);
    eerinfos_.push_back(ei);
  }
}

PhaseResult ProtectionScenario::run_phase(const std::vector<FlowSpec>& flows) {
  Simulator sim;

  // Gateway of the (honest) source AS with both reservations installed.
  dataplane::Gateway gateway(src_as_, sim.clock());
  crypto::Aes128 src_cipher(src_hop_key_.bytes.data());
  crypto::Aes128 dst_cipher(dst_hop_key_.bytes.data());
  for (size_t i = 0; i < reservations_.size(); ++i) {
    std::vector<dataplane::HopAuth> sigmas = {
        dataplane::compute_hopauth(src_cipher, reservations_[i], eerinfos_[i],
                                   path_[0].ingress, path_[0].egress),
        dataplane::compute_hopauth(dst_cipher, reservations_[i], eerinfos_[i],
                                   path_[1].ingress, path_[1].egress)};
    gateway.install(reservations_[i], eerinfos_[i], path_, sigmas);
  }

  // Source-AS border router (validates hop 0, advances the cursor) and the
  // destination border router under test with the monitoring pipeline.
  dataplane::BorderRouter src_br(src_as_, src_hop_key_, sim.clock());
  dataplane::BorderRouter dst_br(dst_as_, dst_hop_key_, sim.clock());
  dataplane::OfdConfig ofd_cfg;
  ofd_cfg.overuse_factor = 1.05;
  ofd_cfg.watch_burst_sec = 0.01;
  dataplane::OverUseFlowDetector ofd(ofd_cfg);
  dataplane::DuplicateSuppression dupsup;
  dst_br.attach_ofd(&ofd);
  dst_br.attach_dupsup(&dupsup);

  // Output port (40 Gbps) with a measuring sink; its queue depths and
  // per-class drops export through the process-wide registry.
  PriorityPort out_port(sim, cfg_.link_gbps * kGbps);
  out_port.attach_metrics(&telemetry::MetricsRegistry::global());
  std::unordered_map<std::uint64_t, std::uint64_t> delivered_bytes;
  const TimeNs measure_start = cfg_.warmup_ns;
  out_port.set_sink([&](SimPacket&& pkt) {
    if (sim.now() >= measure_start) delivered_bytes[pkt.flow] += pkt.bytes;
  });

  // Input links feeding the destination router.
  std::vector<std::unique_ptr<SimLink>> inputs;
  for (int i = 0; i < cfg_.num_inputs; ++i) {
    auto link = std::make_unique<SimLink>(sim, cfg_.link_gbps * kGbps,
                                          /*propagation_ns=*/10'000);
    link->set_sink([&, &sim_ref = sim](SimPacket&& pkt) {
      if (pkt.has_colibri) {
        const auto verdict = dst_br.process(pkt.colibri);
        if (verdict != dataplane::BorderRouter::Verdict::kDeliver &&
            verdict != dataplane::BorderRouter::Verdict::kForward) {
          return;  // dropped at the router
        }
      }
      (void)sim_ref;
      out_port.enqueue(std::move(pkt));
    });
    inputs.push_back(std::move(link));
  }

  // Build sources.
  std::vector<std::unique_ptr<CbrSource>> sources;
  Rng rng(42);
  for (size_t fi = 0; fi < flows.size(); ++fi) {
    const FlowSpec& f = flows[fi];
    SimLink& in = *inputs[static_cast<size_t>(f.input_port)];
    const std::uint64_t flow_id = fi + 1;
    PacketSink sink = [&in](SimPacket&& pkt) { in.send(std::move(pkt)); };

    switch (f.kind) {
      case FlowSpec::Kind::kBestEffort: {
        sources.push_back(std::make_unique<CbrSource>(
            sim, std::move(sink), TrafficClass::kBestEffort,
            f.rate_gbps * kGbps, f.payload_bytes, flow_id));
        break;
      }
      case FlowSpec::Kind::kAuthentic: {
        // Gateway output is at hop 0; the source border router advances it
        // before it enters the inter-domain link.
        PacketSink via_src_br = [&, sink](SimPacket&& pkt) mutable {
          if (pkt.has_colibri) {
            if (src_br.process(pkt.colibri) !=
                dataplane::BorderRouter::Verdict::kForward) {
              return;
            }
          }
          sink(std::move(pkt));
        };
        sources.push_back(std::make_unique<GatewayColibriSource>(
            sim, std::move(via_src_br), gateway,
            reservations_[static_cast<size_t>(f.reservation)].res_id,
            f.rate_gbps * kGbps, f.payload_bytes, flow_id));
        break;
      }
      case FlowSpec::Kind::kUnauthentic: {
        // Bogus Colibri packets: plausible header, random HVFs.
        dataplane::FastPacket tmpl;
        tmpl.is_eer = true;
        tmpl.num_hops = 2;
        tmpl.current_hop = 1;
        tmpl.resinfo = reservations_[static_cast<size_t>(f.reservation)];
        tmpl.eerinfo = eerinfos_[static_cast<size_t>(f.reservation)];
        tmpl.payload_bytes = f.payload_bytes;
        tmpl.ifaces[0] = dataplane::IfPair{0, 1};
        tmpl.ifaces[1] = dataplane::IfPair{1, 0};
        auto stamper = [&rng](dataplane::FastPacket& fp) {
          rng.fill(fp.hvfs[1].data(), fp.hvfs[1].size());
        };
        sources.push_back(std::make_unique<RawColibriSource>(
            sim, std::move(sink), tmpl, f.rate_gbps * kGbps, flow_id,
            stamper));
        break;
      }
      case FlowSpec::Kind::kOveruse: {
        // A malicious source AS that skips gateway monitoring: packets
        // carry *valid* HVFs but arrive far above the reserved rate.
        const auto& ri = reservations_[static_cast<size_t>(f.reservation)];
        const auto& ei = eerinfos_[static_cast<size_t>(f.reservation)];
        dataplane::FastPacket tmpl;
        tmpl.is_eer = true;
        tmpl.num_hops = 2;
        tmpl.current_hop = 1;
        tmpl.resinfo = ri;
        tmpl.eerinfo = ei;
        tmpl.payload_bytes = f.payload_bytes;
        tmpl.ifaces[0] = dataplane::IfPair{0, 1};
        tmpl.ifaces[1] = dataplane::IfPair{1, 0};
        const dataplane::HopAuth sigma = dataplane::compute_hopauth(
            dst_cipher, ri, ei, path_[1].ingress, path_[1].egress);
        std::uint32_t last_ts = 0xFFFF'FFFF;
        auto stamper = [&sim, sigma, exp = ri.exp_time,
                        last_ts](dataplane::FastPacket& fp) mutable {
          // Unique, fresh timestamps so duplicate suppression does not
          // mask the overuse (the point is to exercise the OFD). The
          // timestamp counts *down* toward ExpT, so uniqueness means
          // strictly decreasing.
          std::uint32_t ts = PacketTimestamp::encode(sim.now(), exp);
          if (ts >= last_ts) ts = last_ts - 1;
          last_ts = ts;
          fp.timestamp = ts;
          fp.hvfs[1] = dataplane::compute_data_hvf(sigma, fp.timestamp,
                                                   fp.wire_size());
        };
        sources.push_back(std::make_unique<RawColibriSource>(
            sim, std::move(sink), tmpl, f.rate_gbps * kGbps, flow_id,
            stamper));
        break;
      }
    }
    sources.back()->start(/*at=*/static_cast<TimeNs>(fi) * 100,
                          /*stop=*/cfg_.duration_ns);
  }

  sim.run_until(cfg_.duration_ns + 5'000'000);

  PhaseResult result;
  const double measured_sec =
      static_cast<double>(cfg_.duration_ns - measure_start) / kNsPerSec;
  for (size_t fi = 0; fi < flows.size(); ++fi) {
    FlowResult fr;
    fr.label = flows[fi].label;
    fr.input_port = flows[fi].input_port;
    fr.offered_gbps = flows[fi].rate_gbps;
    fr.delivered_gbps =
        static_cast<double>(delivered_bytes[fi + 1]) * 8.0 / measured_sec /
        kGbps;
    result.flows.push_back(std::move(fr));
  }
  result.router_bad_hvf = dst_br.snapshot().bad_hvf;
  result.router_overuse_dropped = dst_br.snapshot().overuse_dropped;
  return result;
}

std::vector<std::vector<FlowSpec>> table2_phases() {
  using K = FlowSpec::Kind;
  std::vector<FlowSpec> phase1 = {
      {"Reservation 1", K::kAuthentic, 0, 0.4, 1000, 0},
      {"Reservation 2", K::kAuthentic, 1, 0.8, 1000, 1},
      {"Best effort (in 2)", K::kBestEffort, 1, 39.2, 1000, 0},
      {"Best effort (in 3)", K::kBestEffort, 2, 40.0, 1000, 0},
  };
  std::vector<FlowSpec> phase2 = {
      {"Reservation 1", K::kAuthentic, 0, 0.4, 1000, 0},
      {"Reservation 2", K::kAuthentic, 1, 0.8, 1000, 1},
      {"Best effort (in 2)", K::kBestEffort, 1, 39.2, 1000, 0},
      {"Best effort (in 3)", K::kBestEffort, 2, 20.0, 1000, 0},
      {"Colibri unauth.", K::kUnauthentic, 2, 20.0, 1000, 0},
  };
  std::vector<FlowSpec> phase3 = {
      {"Reservation 1 (overuse)", K::kOveruse, 0, 40.0, 1000, 0},
      {"Reservation 2", K::kAuthentic, 1, 0.8, 1000, 1},
      {"Best effort (in 2)", K::kBestEffort, 1, 39.2, 1000, 0},
      {"Best effort (in 3)", K::kBestEffort, 2, 20.0, 1000, 0},
      {"Colibri unauth.", K::kUnauthentic, 2, 20.0, 1000, 0},
  };
  return {phase1, phase2, phase3};
}

}  // namespace colibri::sim
