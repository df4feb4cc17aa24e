// Cross-module integration tests: full control-plane + data-plane flows
// through the Testbed — the life of a reservation from beaconing to
// packet delivery, failure recovery, attack handling, and the §3.4
// traffic-split accounting.
#include <gtest/gtest.h>

#include "colibri/app/testbed.hpp"
#include "colibri/sim/scenario.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/trace_assembler.hpp"
#include "colibri/telemetry/trace_export.hpp"

namespace colibri {
namespace {

using app::Testbed;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    // Modest per-segment demand so every discovered segment fits within
    // the links' Colibri share and provisioning succeeds everywhere.
    const size_t provisioned = bed_.provision_all_segments(1000, 2'000'000);
    EXPECT_GT(provisioned, 0u);
  }

  SimClock clock_;
  Testbed bed_;
};

// A packet produced by a session traverses every on-path border router
// and is delivered — while a tampered copy is rejected at the first hop.
TEST_F(IntegrationTest, LifeOfAPacket) {
  const AsId src{1, 112}, dst{2, 221};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(0xA), HostAddr::from_u64(0xB), 1000, 100'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());

  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  ASSERT_GE(rec->path.size(), 4u);  // crosses the core

  for (int n = 0; n < 50; ++n) {
    dataplane::FastPacket pkt;
    ASSERT_EQ(session.value().send(1000, pkt), dataplane::Gateway::Verdict::kOk);
    for (size_t i = 0; i < rec->path.size(); ++i) {
      const auto verdict = bed_.router(rec->path[i].as).process(pkt);
      if (i + 1 < rec->path.size()) {
        ASSERT_EQ(verdict, dataplane::BorderRouter::Verdict::kForward);
      } else {
        ASSERT_EQ(verdict, dataplane::BorderRouter::Verdict::kDeliver);
      }
    }
    clock_.advance(1'000'000);
  }
}

// Observability: after real traffic through the testbed, one global
// registry snapshot exposes router verdict counters, cserv admission
// counters, and latency histograms — without any component wiring
// beyond construction.
TEST_F(IntegrationTest, TelemetrySnapshotCoversControlAndDataPlane) {
  auto& reg = telemetry::MetricsRegistry::global();

  const AsId src{1, 112}, dst{2, 221};
  // Time every validation at the first-hop router, stage by stage.
  bed_.router(src).profiler().set_enabled(true);

  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(0xA), HostAddr::from_u64(0xB), 1000, 100'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());

  for (int n = 0; n < 20; ++n) {
    dataplane::FastPacket pkt;
    ASSERT_EQ(session.value().send(1000, pkt), dataplane::Gateway::Verdict::kOk);
    for (const auto& hop : rec->path) {
      (void)bed_.router(hop.as).process(pkt);
    }
    clock_.advance(1'000'000);
  }
  bed_.router(src).profiler().set_enabled(false);

  const auto snap = reg.snapshot();
  // Data plane: router verdicts (forwarded across all on-path routers)
  // and gateway accounting.
  EXPECT_GE(snap.counters.at("router.forwarded"), 20u);
  EXPECT_GE(snap.counters.at("router.delivered"), 20u);
  EXPECT_EQ(snap.counters.count("router.drop.auth-failed"), 1u);
  EXPECT_GE(snap.counters.at("gateway.forwarded"), 20u);
  // Control plane: admission outcomes from provisioning + the EER.
  EXPECT_GT(snap.counters.at("cserv.seg_requests"), 0u);
  EXPECT_GT(snap.counters.at("cserv.seg_granted"), 0u);
  EXPECT_GT(snap.counters.at("cserv.eer_granted"), 0u);
  // Latency histograms populated on both planes.
  EXPECT_GT(snap.histograms.at("cserv.request_latency_ns").count, 0u);
  // Each process() call is a batch of one through the staged pipeline.
  for (const char* stage : {"router.stage.header_sanity_ns",
                            "router.stage.hvf_crypto_ns",
                            "router.stage.finalize_ns",
                            "router.batch_occupancy"}) {
    EXPECT_GE(snap.histograms.at(stage).count, 20u) << stage;
  }
  EXPECT_GT(snap.histograms.at("bus.hop_latency_ns").count, 0u);

  // The JSON export carries the same names.
  const std::string json = reg.to_json();
  for (const char* needle :
       {"router.forwarded", "cserv.seg_granted", "router.stage.finalize_ns",
        "\"p99\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

// Bus span tracing: opt-in, records the nested control-plane call chain
// of a single request with per-hop self time.
TEST_F(IntegrationTest, BusSpanTracingRecordsControlPlaneHops) {
  auto& tracer = bed_.bus().tracer();
  tracer.enable();
  const AsId src{1, 111}, dst{2, 222};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(0x1), HostAddr::from_u64(0x2), 1000, 50'000);
  tracer.disable();
  ASSERT_TRUE(session.ok()) << errc_name(session.error());

  const auto trace = tracer.take();
  ASSERT_FALSE(trace.spans.empty());
  // Every span closed, durations are sane, and self time never exceeds
  // the span's own duration.
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const auto& s = trace.spans[i];
    EXPECT_GE(s.duration_ns, 0);
    EXPECT_LE(trace.self_time_ns(i), s.duration_ns);
    if (s.parent >= 0) {
      EXPECT_EQ(trace.spans[static_cast<size_t>(s.parent)].depth, s.depth - 1);
    }
  }
}

// Distributed tracing end to end: an EER setup crossing the core (4+
// on-path ASes) carries one trace context hop by hop; the assembler
// stitches the per-AS spans into a single causal tree whose hop order is
// the topology path order, and both exposition surfaces (Perfetto flow
// arrows, waterfall) render it.
TEST_F(IntegrationTest, DistributedTraceFollowsTopologyPath) {
  auto& tracer = bed_.bus().tracer();
  tracer.enable();
  const AsId src{1, 112}, dst{2, 221};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(0xA), HostAddr::from_u64(0xB), 1000, 100'000);
  tracer.disable();
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  ASSERT_GE(rec->path.size(), 4u);  // crosses the core

  const telemetry::SpanTrace capture = tracer.take();
  telemetry::TraceAssembler assembler;
  assembler.add_capture(capture);
  const auto traces = assembler.assemble();
  ASSERT_FALSE(traces.empty());

  // Exactly one assembled trace carries this reservation.
  const std::int64_t res_id =
      static_cast<std::int64_t>(session.value().key().res_id);
  std::size_t matches = 0;
  for (const auto& t : traces) matches += t.res_id() == res_id;
  ASSERT_EQ(matches, 1u);
  const telemetry::AssembledTrace* t =
      telemetry::TraceAssembler::find_by_res_id(traces, res_id);
  ASSERT_NE(t, nullptr);

  // The admission chain (the hops that reached a verdict for this EER)
  // is the topology path, in order: source first, then each on-path AS.
  std::vector<const telemetry::HopAttribution*> chain;
  for (const auto& h : t->hops) {
    if (h.arg("verdict").rfind("eer.", 0) == 0) chain.push_back(&h);
  }
  ASSERT_EQ(chain.size(), rec->path.size());
  EXPECT_EQ(chain[0]->as, src.to_string());
  EXPECT_EQ(chain[0]->parent_span_id, 0u);  // the initiator is the root
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i]->as, rec->path[i].as.to_string()) << "hop " << i;
    EXPECT_FALSE(chain[i]->orphan);
    EXPECT_FALSE(chain[i]->truncated);
    if (i > 0) {
      // Causality on the wire ids, not capture order.
      EXPECT_EQ(chain[i]->parent_span_id, chain[i - 1]->span_id);
      EXPECT_GT(chain[i]->depth, chain[i - 1]->depth);
    }
  }
  // Latency attribution adds up: downstream time is inside the root.
  EXPECT_GE(t->total_ns(), chain.back()->total_ns);
  EXPECT_NE(t->waterfall().find("<-- bottleneck"), std::string::npos);

  // Perfetto: the same capture renders cross-track flow arrows.
  telemetry::PerfettoTraceBuilder ptb;
  ptb.add_span_trace(capture, "control-plane", "setup");
  const std::string json = ptb.to_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

// Tracing disabled is the default and must add nothing to the wire: the
// same setup with the tracer off produces packets with no trace flag.
TEST_F(IntegrationTest, NoTraceContextOnTheWireWhenDisabled) {
  ASSERT_FALSE(bed_.bus().tracer().enabled());
  ASSERT_FALSE(bed_.bus().tracing_active());
  const AsId src{1, 111}, dst{2, 222};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(0x1), HostAddr::from_u64(0x2), 1000, 50'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  // Nothing was recorded, and no context is live on the bus.
  EXPECT_TRUE(bed_.bus().tracer().take().spans.empty());
  EXPECT_FALSE(bed_.bus().current_context().present());
}

// Path choice (§2.1): when the first chain's SegR has no capacity left,
// the daemon retries over an alternative and still succeeds.
TEST_F(IntegrationTest, FailoverToAlternativePath) {
  const AsId src{1, 110}, dst{1, 120};
  const auto chains = bed_.daemon(src).candidate_chains(dst);
  ASSERT_GE(chains.size(), 2u);

  // Exhaust the EER bandwidth of the SegRs *unique* to the first chain
  // (chains typically share the single up-SegR from the source AS;
  // saturating that would block every path).
  std::set<ResKey> shared;
  for (size_t c = 1; c < chains.size(); ++c) {
    for (const auto& advert : chains[c]) shared.insert(advert.key);
  }
  size_t saturated = 0;
  for (const auto& advert : chains.front()) {
    if (shared.contains(advert.key)) continue;
    for (const auto& hop : advert.hops) {
      const bool hit = bed_.cserv(hop.as).db().with_segr(
          advert.key, [](reservation::SegrRecord* r) {
            if (r == nullptr) return false;
            r->eer_allocated_kbps = r->active.bw_kbps;
            return true;
          });
      if (hit) ++saturated;
    }
  }
  ASSERT_GT(saturated, 0u);

  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 10'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  // The established path is not the saturated first chain.
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  std::vector<ResKey> first_chain_keys;
  for (const auto& a : chains.front()) first_chain_keys.push_back(a.key);
  EXPECT_NE(rec->segrs, first_chain_keys);
}

// Seamless renewal (§4.2): traffic keeps flowing across a version change;
// the monitor treats all versions as one flow.
TEST_F(IntegrationTest, SeamlessRenewalUnderTraffic) {
  const AsId src{1, 110}, dst{1, 121};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 1'000'000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());

  for (int second = 0; second < 40; ++second) {
    clock_.advance(kNsPerSec);
    ASSERT_TRUE(session.value().maybe_renew()) << "second " << second;
    dataplane::FastPacket pkt;
    ASSERT_EQ(session.value().send(500, pkt), dataplane::Gateway::Verdict::kOk)
        << "second " << second;
    for (size_t i = 0; i < rec->path.size(); ++i) {
      const auto v = bed_.router(rec->path[i].as).process(pkt);
      ASSERT_TRUE(v == dataplane::BorderRouter::Verdict::kForward ||
                  v == dataplane::BorderRouter::Verdict::kDeliver);
    }
  }
  // Multiple versions were created along the way.
  EXPECT_GE(session.value().version(), 2);
}

// SegR version switch does not disturb existing EERs (§4.2).
TEST_F(IntegrationTest, SegrActivationKeepsEersAlive) {
  const AsId src{1, 110}, dst{1, 111};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 10'000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  const ResKey segr_key = rec->segrs.front();

  clock_.advance(2 * kNsPerSec);
  auto renew =
      bed_.cserv(segr_key.src_as).renew_segr(segr_key, 1000, 15'000'000);
  ASSERT_TRUE(renew.ok()) << errc_name(renew.error());
  ASSERT_TRUE(bed_.cserv(segr_key.src_as)
                  .activate_segr(segr_key, renew.value().version)
                  .ok());

  // The EER still forwards.
  dataplane::FastPacket pkt;
  ASSERT_EQ(session.value().send(100, pkt), dataplane::Gateway::Verdict::kOk);
  for (size_t i = 0; i < rec->path.size(); ++i) {
    const auto v = bed_.router(rec->path[i].as).process(pkt);
    ASSERT_TRUE(v == dataplane::BorderRouter::Verdict::kForward ||
                v == dataplane::BorderRouter::Verdict::kDeliver);
  }
}

// Full policing loop (§4.8): a source AS that skips gateway monitoring is
// detected by a transit OFD, blocked at the router, reported to the
// CServ, and denied future reservations.
TEST_F(IntegrationTest, PolicingLoopBlocksOveruser) {
  const AsId src{1, 110}, dst{1, 120}, transit{1, 100};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 1'000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());

  // Wire monitoring into the transit router.
  dataplane::OverUseFlowDetector ofd;
  dataplane::Blocklist blocklist;
  auto& transit_router = bed_.router(transit);
  transit_router.attach_ofd(&ofd);
  transit_router.attach_blocklist(&blocklist);

  // Malicious gateway: craft packets directly at 100x the reservation.
  // The transit AS's router must confirm overuse and block.
  const auto transit_rec = bed_.cserv(transit).db().eer_copy(rec->key);
  ASSERT_TRUE(transit_rec.has_value());
  const std::uint8_t transit_hop = transit_rec->local_hop;

  proto::ResInfo ri;
  ri.src_as = src;
  ri.res_id = rec->key.res_id;
  ri.bw_kbps = session.value().bw_kbps();
  ri.exp_time = session.value().exp_time();
  ri.version = session.value().version();
  proto::EerInfo ei;
  ei.src_host = rec->src_host;
  ei.dst_host = rec->dst_host;
  crypto::Aes128 transit_cipher(bed_.cserv(transit).hop_key().bytes.data());
  const dataplane::HopAuth sigma = dataplane::compute_hopauth(
      transit_cipher, ri, ei, rec->path[transit_hop].ingress,
      rec->path[transit_hop].egress);

  bool blocked = false;
  for (int i = 0; i < 200'000 && !blocked; ++i) {
    dataplane::FastPacket pkt;
    pkt.is_eer = true;
    pkt.num_hops = static_cast<std::uint8_t>(rec->path.size());
    pkt.current_hop = transit_hop;
    pkt.resinfo = ri;
    pkt.eerinfo = ei;
    pkt.payload_bytes = 1000;
    for (size_t h = 0; h < rec->path.size(); ++h) {
      pkt.ifaces[h] =
          dataplane::IfPair{rec->path[h].ingress, rec->path[h].egress};
    }
    pkt.timestamp = PacketTimestamp::encode(clock_.now_ns(), ri.exp_time);
    pkt.hvfs[transit_hop] =
        dataplane::compute_data_hvf(sigma, pkt.timestamp, pkt.wire_size());
    const auto v = transit_router.process(pkt);
    blocked = v == dataplane::BorderRouter::Verdict::kBlocked;
    clock_.advance(10'000);  // 1000 B / 10 µs = 800 Mbps >> 1 Mbps
  }
  EXPECT_TRUE(blocked);
  EXPECT_GE(blocklist.reports().size(), 1u);

  // Close the loop: the report reaches the CServ, which denies future
  // reservations from the offender.
  for (const auto& offense : blocklist.drain_reports()) {
    bed_.cserv(transit).report_offense(offense);
  }
  auto denied = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(5), HostAddr::from_u64(6), 1000, 1'000);
  EXPECT_FALSE(denied.ok());
}

// Control-plane messages cross the bus serialized; the accounting shows
// real message flow (management-scalability sanity).
TEST_F(IntegrationTest, BusCarriesSerializedControlPlane) {
  EXPECT_GT(bed_.bus().snapshot().messages, 0u);
  EXPECT_GT(bed_.bus().snapshot().bytes, 0u);
}

// §3.4 traffic split: admission never grants more than the Colibri share
// of a link (75 % by default), leaving room for best effort.
TEST_F(IntegrationTest, TrafficSplitRespectedByAdmission) {
  const topology::Topology& topo = bed_.topology();
  for (AsId as : topo.as_ids()) {
    const auto& node = topo.node(as);
    auto& ledger = bed_.cserv(as).segr_admission().ledger();
    for (const auto& intf : node.interfaces) {
      EXPECT_LE(ledger.granted_total(intf.id),
                node.colibri_capacity(intf.id))
          << as.to_string() << " if " << intf.id;
    }
  }
}

// End-to-end protection scenario smoke (Table 2 shape at reduced rate).
TEST(ProtectionIntegrationTest, BestEffortCannotStarveReservations) {
  sim::ScenarioConfig cfg;
  cfg.duration_ns = 40'000'000;
  cfg.warmup_ns = 10'000'000;
  sim::ProtectionScenario scenario(cfg);
  std::vector<sim::FlowSpec> flows = {
      {"res1", sim::FlowSpec::Kind::kAuthentic, 0, 0.4, 1000, 0},
      {"be-flood", sim::FlowSpec::Kind::kBestEffort, 1, 40.0, 1000, 0},
      {"be-flood2", sim::FlowSpec::Kind::kBestEffort, 2, 40.0, 1000, 0},
  };
  const auto r = scenario.run_phase(flows);
  EXPECT_NEAR(r.flows[0].delivered_gbps, 0.4, 0.05);
}

}  // namespace
}  // namespace colibri
