#include "colibri/app/obs.hpp"

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "colibri/app/chaos.hpp"
#include "colibri/app/fleet.hpp"
#include "colibri/app/testbed.hpp"
#include "colibri/cserv/failover.hpp"
#include "colibri/cserv/renewal_manager.hpp"
#include "colibri/dataplane/shard.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/history.hpp"
#include "colibri/telemetry/incident.hpp"
#include "colibri/telemetry/openmetrics.hpp"
#include "colibri/telemetry/timeseries.hpp"
#include "colibri/telemetry/trace_export.hpp"

namespace colibri::app {
namespace {

// One dashboard frame: current + peak windowed rates for the headline
// series, the windowed admission p99, shard health as the sampler sees
// it, SLO budgets, and the alert-engine tallies with any firing rules.
std::string render_watch_frame(const telemetry::WindowedSampler& sampler,
                               const telemetry::AlertEngine& engine,
                               TimeNs now_ns) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "== colibri watch @ t=%.3fs  windows=%llu (period %lld ms) ==\n",
                static_cast<double>(now_ns) / 1e9,
                static_cast<unsigned long long>(sampler.windows_sampled()),
                static_cast<long long>(sampler.period_ns() / 1'000'000));
  out += line;
  const auto rate_row = [&](const char* label, const char* series,
                            bool prefix) {
    std::snprintf(line, sizeof(line), "%-24s %12.0f/s  peak %12.0f/s\n", label,
                  sampler.rate(series, kNsPerSec, prefix),
                  sampler.peak_rate(series, prefix));
    out += line;
  };
  rate_row("gateway.forwarded", "gateway.forwarded", false);
  rate_row("router.forwarded", "router.forwarded", false);
  rate_row("router.drop.*", "router.drop.", true);
  rate_row("gateway_shard.*.fwd", "gateway_shard.", true);
  const auto p99 = sampler.windowed_percentile("cserv.request_latency_ns",
                                               0.99, 10 * kNsPerSec);
  std::snprintf(line, sizeof(line), "admission p99 (10s): %s\n",
                p99 ? (std::to_string(static_cast<long long>(*p99)) + " ns")
                          .c_str()
                    : "no data");
  out += line;
  const auto shards = sampler.gauge_level("gateway_runtime.shard.count");
  const auto depth =
      sampler.gauge_level("gateway_runtime.shard.", /*prefix=*/true);
  if (shards) {
    std::snprintf(line, sizeof(line),
                  "shards: %lld  max shard gauge: %lld\n",
                  static_cast<long long>(*shards),
                  static_cast<long long>(depth.value_or(0)));
    out += line;
  }
  // Fleet-federation state, present only when a FleetCollector exports
  // into this registry (the fleet scenario).
  if (const auto fleet = sampler.gauge_level("fleet.as_count")) {
    std::snprintf(
        line, sizeof(line),
        "fleet: ases=%lld links=%lld tracked=%lld audit violations=%lld\n",
        static_cast<long long>(*fleet),
        static_cast<long long>(
            sampler.gauge_level("fleet.link_count").value_or(0)),
        static_cast<long long>(
            sampler.gauge_level("fleet.series_tracked").value_or(0)),
        static_cast<long long>(
            sampler.gauge_level("telemetry.audit.last_violations")
                .value_or(0)));
    out += line;
  }
  // Protection-pair state, present only when a FailoverManager exports
  // into this registry (the failover scenario).
  if (const auto prot = sampler.gauge_level("cserv.failover.protected")) {
    std::snprintf(line, sizeof(line),
                  "failover: protected=%lld active=%lld cutovers %9.0f/s\n",
                  static_cast<long long>(*prot),
                  static_cast<long long>(
                      sampler.gauge_level("cserv.failover.active").value_or(0)),
                  sampler.rate("cserv.failover.cutovers", kNsPerSec));
    out += line;
  }
  for (const auto& s : engine.slo_status()) {
    std::snprintf(line, sizeof(line),
                  "slo %-20s burn %6.2f  budget %5.1f%%  [%s]\n",
                  s.name.c_str(), s.burn_rate, s.budget_remaining * 100.0,
                  telemetry::alert_state_name(s.state));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "alerts: rules=%zu evaluations=%llu firing=%zu fired=%llu "
                "resolved=%llu\n",
                engine.rule_count(),
                static_cast<unsigned long long>(engine.evaluations()),
                engine.firing_count(),
                static_cast<unsigned long long>(engine.fired_total()),
                static_cast<unsigned long long>(engine.resolved_total()));
  out += line;
  for (const auto& st : engine.status()) {
    if (st.state == telemetry::AlertState::kInactive) continue;
    std::snprintf(line, sizeof(line), "  [%s] %s value=%.2f\n",
                  telemetry::alert_state_name(st.state), st.name.c_str(),
                  st.last_value);
    out += line;
  }
  return out;
}

// The failover timeline: steady reserved traffic over the primary core
// SegR, a FaultInjector-scheduled outage of the protected link, backup
// cutover (the failover rule pack fires), heal, fail-back (it
// resolves), then traffic re-established over the primary. Every leg
// cuts monitored windows, so `watch` replays the incident end to end.
// The timeline is fixed (options only select the scenario).
ObsArtifacts run_failover_scenario(const ObsOptions& opts) {
  SimClock clock(1'000 * kNsPerSec);
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events(clock);
  ObsArtifacts out;

  cserv::CservConfig cfg;
  cfg.metrics = &registry;
  cfg.events = &events;
  Testbed bed(topology::builders::two_isd_topology(), clock, cfg);
  FaultInjector inj(clock, /*seed=*/0xFA110, &events);
  bed.bus().attach_fault_injector(&inj);

  // 1 s windows: the incident runs on a seconds timeline, one frame per
  // simulated second.
  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = kNsPerSec;
  scfg.ring_capacity = 256;
  scfg.series_filter = replayable_series;
  telemetry::WindowedSampler sampler(registry, clock, scfg, &registry);
  sampler.track_rate("gateway.forwarded");
  sampler.track_rate("router.forwarded");
  sampler.track_rate("cserv.failover.cutovers");
  telemetry::AlertEngine engine(sampler, clock, &events, &registry);
  engine.add_rules(cserv::default_cserv_alert_rules());
  engine.add_rules(cserv::default_failover_alert_rules());

  // Post-mortem trail: every cut window is appended to the history
  // store, and the firing failover rule opens an incident bundle. With
  // opts.forensics_dir set, both survive the process for the offline
  // `colibri_obs history` / `colibri_obs incident` commands.
  std::unique_ptr<telemetry::HistoryBackend> history_backend;
  if (opts.forensics_dir.empty()) {
    history_backend = std::make_unique<telemetry::MemoryHistoryBackend>();
  } else {
    history_backend = std::make_unique<telemetry::DirectoryHistoryBackend>(
        opts.forensics_dir + "/history");
  }
  telemetry::HistoryStore history(*history_backend, {}, &registry);
  telemetry::IncidentRecorder incidents(engine);
  incidents.set_event_log(&events);
  incidents.set_sampler(&sampler);
  incidents.set_fault_injector(&inj);
  if (!opts.forensics_dir.empty()) {
    incidents.set_directory(opts.forensics_dir + "/incidents");
  }

  const auto monitor = [&] {
    if (sampler.poll()) {
      (void)engine.evaluate();
      history.append_latest(sampler);
      out.watch_frames.push_back(
          render_watch_frame(sampler, engine, clock.now_ns()));
    }
  };
  clock.advance(scfg.period_ns);
  (void)sampler.poll();  // baseline window

  bed.provision_all_segments(/*min_bw=*/1'000, /*max_bw=*/2'000'000);
  const std::optional<ResKey> primary = find_primary_core_segr(bed);
  cserv::FailoverManager fm(bed.cserv(kProtectedLinkA));
  std::optional<ResKey> backup;
  if (primary) {
    auto b = fm.provision_backup(*primary,
                                 protection_backup_segment(bed.topology()),
                                 /*min_bw=*/1'000, /*max_bw=*/30'000);
    if (b) backup = b.value();
  }

  // Outage window: down 5 s into the timeline, healed 10 s later.
  inj.schedule_link_failure(kProtectedLinkId, clock.now_ns() + 5 * kNsPerSec,
                            clock.now_ns() + 15 * kNsPerSec);

  const AsId src_as{1, 112}, dst_as{2, 212};
  const HostAddr src_host = HostAddr::from_u64(0xA11CE);
  const HostAddr dst_host = HostAddr::from_u64(0xB0B);

  // Flight recorder on the source gateway: the incident bundle embeds
  // its ring, so the black box holds the last packets the gateway saw
  // before the alert fired.
  telemetry::FlightRecorder::Config rcfg;
  rcfg.sample_every = 1;  // keep every decision; the ring bounds memory
  telemetry::FlightRecorder gw_rec(rcfg);
  bed.gateway(src_as).attach_flight_recorder(&gw_rec);
  incidents.add_flight_recorder("gateway.src", &gw_rec);

  std::optional<ReservationSession> session;
  std::vector<topology::Hop> path;
  const auto reopen = [&] {
    if (primary) bed.cserv(src_as).registry().invalidate(*primary);
    if (backup) bed.cserv(src_as).registry().invalidate(*backup);
    auto r = bed.daemon(src_as).open_session(dst_as, src_host, dst_host,
                                             1'000, 5'000);
    if (!r) return;
    session.emplace(std::move(r.value()));
    if (auto eer = bed.cserv(src_as).db().eer_copy(session->key())) {
      path = eer->path;
    }
  };
  reopen();

  // Fixed 30 s timeline (5 s steady / 10 s outage / 15 s healed);
  // opts.packets paces the default scenario only.
  for (int i = 0; i < 30; ++i) {
    clock.advance(kNsPerSec);
    bed.bus().deliver_delayed();
    for (const auto& t : inj.poll_link_transitions()) {
      if (t.link_id != kProtectedLinkId) continue;
      if (!t.up) {
        fm.on_link_down(kProtectedLinkA, kProtectedLinkB, t.at_ns);
        session.reset();  // the EER rode the dead link; migrate
        reopen();         // ...onto the freshly-published backup
      } else {
        fm.on_link_up(kProtectedLinkA, kProtectedLinkB);
        session.reset();  // drift back to the primary
        reopen();
      }
    }
    if (!session) reopen();
    if (session) {
      bool crosses_down = !inj.link_up(kProtectedLinkId);
      if (crosses_down) {
        crosses_down = false;
        for (size_t h = 0; h + 1 < path.size(); ++h) {
          const auto a = path[h].as, b = path[h + 1].as;
          crosses_down |= (a == kProtectedLinkA && b == kProtectedLinkB) ||
                          (a == kProtectedLinkB && b == kProtectedLinkA);
        }
      }
      dataplane::FastPacket pkt;
      if (!crosses_down &&
          session->send(1'000, pkt) == dataplane::Gateway::Verdict::kOk) {
        bool dropped = false;
        for (const auto& hop : path) {
          const auto v = bed.router(hop.as).process(pkt);
          if (v != dataplane::BorderRouter::Verdict::kForward &&
              v != dataplane::BorderRouter::Verdict::kDeliver) {
            dropped = true;
            break;
          }
        }
        out.delivered += !dropped;
      }
      if (!session->maybe_renew()) session.reset();
    }
    bed.tick_all();
    monitor();
  }

  out.watch_text = render_watch_frame(sampler, engine, clock.now_ns());
  out.sampler_windows = sampler.windows_sampled();
  out.alert_rules = engine.rule_count();
  out.alert_evaluations = engine.evaluations();
  out.alerts_fired = engine.fired_total();
  out.alerts_resolved = engine.resolved_total();
  out.alerts_firing = engine.firing_count();
  out.metrics = registry.snapshot();
  out.metrics_json = out.metrics.to_json();
  out.openmetrics = telemetry::to_openmetrics(out.metrics);
  out.events_count = events.size();
  out.events_jsonl = events.to_jsonl();
  out.history_frames = history.stats().frames_appended;
  out.history_segments = history.segment_count();
  out.incident_bundles = incidents.bundle_count();
  if (incidents.bundle_count() > 0) {
    out.first_incident_rule = incidents.bundles().front().rule;
  }
  return out;
}

// The fleet-federation timeline, mapped onto the common artifact
// shape: the rendered fleet tables are the watch frames (each carries
// a "fleet:" headline), the export registry's snapshot is the metrics
// surface, and the audit verdict rides the fleet_* / audit_* fields.
ObsArtifacts run_fleet_obs_scenario(const ObsOptions& /*opts*/) {
  FleetArtifacts fa = run_fleet_scenario();
  ObsArtifacts out;
  out.fleet_as_count = fa.as_count;
  out.fleet_link_count = fa.link_count;
  out.fleet_windows = fa.fleet_windows;
  out.audit_passes = fa.audit_passes;
  out.audit_checks = fa.audit_checks;
  out.audit_violations = fa.audit_violations;
  out.delivered = fa.delivered;
  out.sampler_windows = fa.sampler_windows;
  out.alert_rules = fa.alert_rules;
  out.alert_evaluations = fa.alert_evaluations;
  out.alerts_fired = fa.alerts_fired;
  out.alerts_firing = fa.alerts_firing;
  out.watch_frames = std::move(fa.frames);
  out.watch_text = std::move(fa.table);
  out.metrics = std::move(fa.metrics);
  out.metrics_json = std::move(fa.metrics_json);
  out.openmetrics = std::move(fa.openmetrics);
  out.events_jsonl = std::move(fa.events_jsonl);
  out.events_count = fa.events_count;
  return out;
}

}  // namespace

std::vector<std::string> obs_scenario_names() {
  return {"default", "failover", "fleet"};
}

ObsArtifacts run_obs_scenario(const ObsOptions& opts) {
  if (opts.scenario == "failover") return run_failover_scenario(opts);
  if (opts.scenario == "fleet") return run_fleet_obs_scenario(opts);
  SimClock clock(1'000 * kNsPerSec);
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events(clock);
  ObsArtifacts out;

  cserv::CservConfig cfg;
  cfg.metrics = &registry;
  cfg.events = &events;
  Testbed bed(topology::builders::two_isd_topology(), clock, cfg);

  // Live-monitoring plane: 10 ms windows keep the SimClock-paced packet
  // loop (~160 us/packet) cutting several windows; the engine carries
  // every component's default rule pack plus two SLOs. Both re-export
  // into the same registry, so the derived gauges and alert counters
  // ride the snapshot below.
  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = 10'000'000;
  scfg.ring_capacity = 256;
  telemetry::WindowedSampler sampler(registry, clock, scfg, &registry);
  sampler.track_rate("gateway.forwarded");
  sampler.track_rate("router.forwarded");
  sampler.track_rate("router.drop.");
  sampler.track_percentiles("cserv.request_latency_ns");
  for (int s = 0; s < 4; ++s) {
    sampler.track_watermark("gateway_runtime.shard." + std::to_string(s) +
                            ".ring_depth");
  }
  telemetry::AlertEngine engine(sampler, clock, &events, &registry);
  engine.add_rules(cserv::default_cserv_alert_rules());
  engine.add_rules(dataplane::default_router_alert_rules());
  engine.add_rules(dataplane::ShardedGatewayRuntime::default_alert_rules(
      /*shard_count=*/4, /*ring_depth_threshold=*/48));
  {
    telemetry::Slo lat;
    lat.name = "admission-latency";
    lat.kind = telemetry::Slo::Kind::kLatency;
    lat.objective = 0.001;
    lat.series = "cserv.request_latency_ns";
    lat.latency_threshold_ns = 50'000'000;
    engine.add_slo(lat);
    telemetry::Slo del;
    del.name = "router-delivery";
    del.kind = telemetry::Slo::Kind::kFraction;
    del.objective = 0.05;  // <=5% of router verdicts may be drops
    del.series = "router.drop.";
    del.total_series = "router.";
    engine.add_slo(del);
  }
  const auto monitor = [&] {
    if (sampler.poll()) {
      (void)engine.evaluate();
      out.watch_frames.push_back(
          render_watch_frame(sampler, engine, clock.now_ns()));
    }
  };
  // Baseline window before the lifecycle starts: the first sample only
  // records the snapshot to delta against, so the provisioning burst
  // lands whole in window 1.
  clock.advance(scfg.period_ns);
  (void)sampler.poll();

  // Lifecycle tracing: every bus hop call of the setup conversation —
  // segment provisioning and the end-to-end EER admission — is
  // collected as a span; the admission handlers annotate their span
  // with the verdict they reached at that AS.
  bed.bus().tracer().enable();
  bed.provision_all_segments(/*min_bw=*/1'000, /*max_bw=*/2'000'000);

  const AsId src_as{1, 112}, dst_as{2, 212};
  auto session = bed.daemon(src_as).open_session(
      dst_as, HostAddr::from_u64(0xA11CE), HostAddr::from_u64(0xB0B),
      /*min_bw=*/1'000, /*max_bw=*/50'000);
  const telemetry::SpanTrace setup_trace = bed.bus().tracer().take();
  bed.bus().tracer().disable();
  if (!session.ok()) return out;

  // Stitch the captured spans into causal trees (one per originated
  // request) and register the assembler so cserv.trace.* — per-hop
  // latency histograms, orphan/truncated counters — lands in the
  // snapshot taken below.
  telemetry::TraceAssembler assembler(&registry);
  assembler.add_capture(setup_trace);
  out.traces = assembler.assemble();

  const auto eer = bed.cserv(src_as).db().eer_copy(session.value().key());
  if (!eer) return out;
  // The record is swept once the EER expires below; keep our own copy.
  const std::vector<topology::Hop> path = eer->path;

  // Flight recorders: one on the source gateway, one per on-path router.
  telemetry::FlightRecorder::Config rcfg;
  rcfg.capacity = opts.recorder_capacity;
  rcfg.sample_every = opts.sample_every;
  telemetry::FlightRecorder gw_rec(rcfg);
  bed.gateway(src_as).attach_flight_recorder(&gw_rec);
  std::vector<std::unique_ptr<telemetry::FlightRecorder>> router_recs;
  for (const auto& hop : path) {
    router_recs.push_back(std::make_unique<telemetry::FlightRecorder>(rcfg));
    bed.router(hop.as).attach_flight_recorder(router_recs.back().get());
  }

  // Policing at the first transit AS, with escalations on the event log.
  dataplane::Blocklist blocklist(&registry);
  dataplane::DuplicateSuppression dupsup;
  blocklist.set_event_log(&events);
  dataplane::BorderRouter& first_router = bed.router(path[0].as);
  first_router.attach_blocklist(&blocklist);
  first_router.attach_dupsup(&dupsup);

  // Clean traffic end to end, paced at the reserved rate.
  dataplane::FastPacket last_good{};
  bool have_good = false;
  for (int i = 0; i < opts.packets; ++i) {
    dataplane::FastPacket pkt;
    if (session.value().send(1'000, pkt) != dataplane::Gateway::Verdict::kOk) {
      continue;
    }
    const dataplane::FastPacket fresh = pkt;
    bool dropped = false;
    for (const auto& hop : path) {
      const auto v = bed.router(hop.as).process(pkt);
      if (v != dataplane::BorderRouter::Verdict::kForward &&
          v != dataplane::BorderRouter::Verdict::kDeliver) {
        dropped = true;
        break;
      }
    }
    out.delivered += !dropped;
    last_good = fresh;
    have_good = true;
    clock.advance(session.value().pace_interval_ns(1'000));
    monitor();
  }

  if (have_good) {
    // Tampered bandwidth field: rejected by the HVF check (Eq. 6).
    dataplane::FastPacket evil = last_good;
    evil.resinfo.bw_kbps *= 100;
    (void)first_router.process(evil);
    // Replay of an already-seen packet: caught by duplicate suppression.
    dataplane::FastPacket replay = last_good;
    (void)first_router.process(replay);
    (void)first_router.process(replay);
  }
  // Unknown reservation at the gateway.
  dataplane::FastPacket unknown_out;
  (void)bed.gateway(src_as).process(0xDEAD'BEEF, 1'000, unknown_out);
  // A confirmed offense escalates: blocklist + CServ denial.
  const dataplane::OffenseReport offense{AsId{2, 999}, 42, clock.now_ns(),
                                         50'000};
  blocklist.report(offense);
  bed.cserv(path[0].as).report_offense(offense);
  // Cut a window over the attack burst so its drop counters show up as
  // a rate spike instead of dissolving into the next long window.
  clock.advance(scfg.period_ns);
  monitor();

  // Batched data-plane leg with the per-stage profiler on and capturing
  // spans: the same reservation pushed through the gateway's staged
  // pipeline, then the resulting packets through the first router's
  // batch pipeline. This is what fills "gateway.stage.*" /
  // "router.stage.*" and the stage tracks of the Perfetto export.
  dataplane::Gateway& gw = bed.gateway(src_as);
  gw.profiler().set_enabled(true);
  gw.profiler().set_span_capture(64);
  first_router.profiler().set_enabled(true);
  first_router.profiler().set_span_capture(64);
  {
    constexpr std::size_t kBatch = 32;
    ResId ids[kBatch];
    std::uint32_t pls[kBatch];
    dataplane::FastPacket outp[kBatch];
    dataplane::Gateway::Verdict gv[kBatch];
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids[i] = session.value().key().res_id;
      pls[i] = 1'000;
    }
    (void)gw.process_batch(ids, pls, kBatch, outp, gv);
    dataplane::PacketBatch batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (gv[i] == dataplane::Gateway::Verdict::kOk) batch.push(outp[i]);
    }
    dataplane::BorderRouter::Verdict rv[dataplane::PacketBatch::kCapacity];
    if (!batch.empty()) first_router.process_batch(batch, rv);
  }
  gw.profiler().set_enabled(false);
  first_router.profiler().set_enabled(false);

  // Sharded-runtime health leg: the source AS's reservation state
  // sharded four ways, driven through the SPSC rings by this thread
  // while the workers drain. A deliberately small ring makes the
  // backpressure counters move on a busy machine.
  dataplane::ShardedGateway sharded(src_as, clock, /*num_shards=*/4, {},
                                    &registry);
  gw.for_each_entry([&](ResId id, const dataplane::GatewayEntry& e) {
    sharded.shard(sharded.shard_of(id)).install_entry(id, e);
  });
  dataplane::ShardedGatewayRuntime runtime(sharded, /*ring_capacity=*/64,
                                           &registry);
  runtime.start();
  {
    const ResId res = session.value().key().res_id;
    for (int i = 0; i < 2'000; ++i) {
      // Mix known and unknown ids so the shard verdicts spread across
      // forwarded and drop.no-such-reservation; retry rejected
      // submissions so every request is eventually accepted.
      const ResId id =
          (i % 4 == 3) ? static_cast<ResId>(0xDEAD'0000ULL + i) : res;
      while (!runtime.submit(id, 1'000)) std::this_thread::yield();
    }
    runtime.drain();
  }
  (void)runtime.check_stalls();  // baseline
  const std::vector<size_t> stalled = runtime.check_stalls();
  runtime.stop();
  // Window over the runtime leg, cut only after stop(): the SimClock
  // must never move while the workers run (they read it concurrently
  // and SimClock::advance is not thread-safe), so the whole burst
  // lands in one window.
  clock.advance(scfg.period_ns);
  monitor();

  // Automatic SegR renewal: jump to within the renewal lead of expiry.
  std::vector<std::unique_ptr<cserv::RenewalManager>> managers;
  for (AsId as : bed.topology().as_ids()) {
    managers.push_back(std::make_unique<cserv::RenewalManager>(bed.cserv(as)));
    managers.back()->manage_all_local();
  }
  clock.set((1'000 + reservation::kSegrLifetimeSec - 30) * kNsPerSec);
  for (auto& m : managers) m->tick(clock.now_sec());
  monitor();  // one giant window across the jump; renewals land here

  // Let the EER run out; the sweep emits the expiry audit events.
  clock.advance(60 * kNsPerSec);
  bed.tick_all();
  monitor();

  out.watch_text = render_watch_frame(sampler, engine, clock.now_ns());
  out.sampler_windows = sampler.windows_sampled();
  out.alert_rules = engine.rule_count();
  out.alert_evaluations = engine.evaluations();
  out.alerts_fired = engine.fired_total();
  out.alerts_resolved = engine.resolved_total();
  out.alerts_firing = engine.firing_count();

  out.metrics = registry.snapshot();
  out.metrics_json = out.metrics.to_json();
  out.openmetrics = telemetry::to_openmetrics(out.metrics);
  out.events_count = events.size();
  out.events_jsonl = events.to_jsonl();
  std::string records;
  std::size_t n_records = 0;
  auto drain_into = [&](telemetry::FlightRecorder& r) {
    n_records += r.size();
    records += r.to_jsonl();
  };
  drain_into(gw_rec);
  for (auto& r : router_recs) drain_into(*r);
  out.records_count = n_records;
  out.records_jsonl = std::move(records);

  // Perfetto export: setup spans (one track per AS), lifecycle events
  // (tracks keyed by the emitting AS), and the captured stage spans of
  // the batched data-plane leg.
  telemetry::PerfettoTraceBuilder ptb;
  ptb.add_span_trace(setup_trace, "control-plane", "setup");
  ptb.add_events(events.events(), "lifecycle");
  ptb.add_stage_spans(gw.profiler(), gw.profiler().spans(), "data-plane",
                      "gateway " + src_as.to_string());
  ptb.add_stage_spans(first_router.profiler(), first_router.profiler().spans(),
                      "data-plane", "router " + path[0].as.to_string());
  out.perfetto_json = ptb.to_json();
  out.trace_events = ptb.event_count();
  out.trace_tracks = ptb.track_count();

  // Health surface: one line per shard plus the stall verdict.
  out.health_shards = runtime.shard_count();
  out.stalled_shards = stalled.size();
  for (size_t i = 0; i < runtime.shard_count(); ++i) {
    const auto h = runtime.shard_health(i);
    out.health_rejected += h.rejected;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "shard %zu: submitted=%llu processed=%llu ok=%llu "
                  "batches=%llu rejected=%llu ring_depth=%llu "
                  "high_watermark=%llu heartbeats=%llu\n",
                  i, static_cast<unsigned long long>(h.submitted),
                  static_cast<unsigned long long>(h.processed),
                  static_cast<unsigned long long>(h.ok),
                  static_cast<unsigned long long>(h.batches),
                  static_cast<unsigned long long>(h.rejected),
                  static_cast<unsigned long long>(h.ring_depth),
                  static_cast<unsigned long long>(h.high_watermark),
                  static_cast<unsigned long long>(h.heartbeats));
    out.health_text += line;
  }
  out.health_text += stalled.empty()
                         ? "stall detector: all workers live\n"
                         : "stall detector: " +
                               std::to_string(stalled.size()) +
                               " shard(s) stalled\n";

  // Detach before the local recorders/policing objects go out of scope.
  bed.gateway(src_as).attach_flight_recorder(nullptr);
  for (size_t i = 0; i < path.size(); ++i) {
    bed.router(path[i].as).attach_flight_recorder(nullptr);
  }
  first_router.attach_blocklist(nullptr);
  first_router.attach_dupsup(nullptr);
  return out;
}

}  // namespace colibri::app
