#include "colibri/app/chaos.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "colibri/app/testbed.hpp"
#include "colibri/cserv/failover.hpp"
#include "colibri/cserv/renewal_manager.hpp"
#include "colibri/reservation/persist.hpp"
#include "colibri/sim/faults.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/history.hpp"
#include "colibri/telemetry/incident.hpp"
#include "colibri/telemetry/json.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri::app {
namespace {

// --- scenario script (all times in simulated seconds) -----------------------
//
// 1000  provision every beacon-discovered segment + the backup SegR
// 1240  renewal storm opens: SegRs (lifetime 300 s) come due, end-host
//       sessions open, churn EERs start flowing through c2a
// 1245  control-message fault window opens
// 1250  c1a<->c2a core link fails        -> failover cutover at c1a
// 1260  c2a CServ killed mid-storm; the WAL append the crash interrupts
//       is torn; restore_from_wal() replays under live traffic
// 1262  link heals                       -> fail-back at c1a
// 1265  message fault window closes
// 1290  storm ends; sessions dropped, EERs (lifetime 16 s) drain out
// 1312  re-establishment: advert caches invalidated, sessions reopened
//       over the restored steady state; digest taken a few ticks later
constexpr TimeNs kSec = kNsPerSec;
constexpr TimeNs kProvisionNs = 1'000 * kSec;
constexpr TimeNs kStormStartNs = 1'240 * kSec;
constexpr int kStormSteps = 50;
constexpr TimeNs kMsgFaultStartNs = 1'245 * kSec;
constexpr TimeNs kMsgFaultEndNs = 1'265 * kSec;
// Mid-step timestamps: the world ticks once per second, so a failure at
// t+0.25s is detected at the next tick — a real, assertable
// detection-to-cutover latency instead of a degenerate zero.
constexpr TimeNs kLinkFailNs = 1'250 * kSec + 250'000'000;
constexpr TimeNs kLinkHealNs = 1'262 * kSec + 500'000'000;
constexpr TimeNs kCrashNs = 1'260 * kSec;
constexpr int kDrainSteps = 22;
constexpr int kVerifySteps = 5;

// The protected core link and the ASes of the two-ISD topology we script.
constexpr std::uint64_t kCoreLinkId = kProtectedLinkId;
constexpr AsId kC1a = kProtectedLinkA;  // failover initiator (pair owner)
constexpr AsId kC1b{1, 101};            // backup detour
constexpr AsId kC2a = kProtectedLinkB;  // crash victim; far link end
constexpr BwKbps kSegrMinBw = 1'000;
constexpr BwKbps kSegrMaxBw = 2'000'000;
constexpr BwKbps kBackupBw = 30'000;  // cheap standby, still fits the EERs
constexpr BwKbps kSessionBw = 5'000;  // min == max: admission is all-or-nothing
constexpr BwKbps kChurnBw = 500;

struct ChaosSession {
  AsId src;
  AsId dst;
  HostAddr src_host;
  HostAddr dst_host;
  std::optional<ReservationSession> session;
  std::vector<topology::Hop> path;  // EER path, cached at open
  bool ever_open = false;
};

IfId iface_to(const topology::Topology& topo, AsId from, AsId to) {
  for (const auto& itf : topo.node(from).interfaces) {
    if (itf.neighbor == to) return itf.id;
  }
  return kNoInterface;
}

bool hop_pair_is(const topology::Hop& x, const topology::Hop& y, AsId a,
                 AsId b) {
  return (x.as == a && y.as == b) || (x.as == b && y.as == a);
}

bool path_crosses(const std::vector<topology::Hop>& hops, AsId a, AsId b) {
  for (size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hop_pair_is(hops[i], hops[i + 1], a, b)) return true;
  }
  return false;
}

std::string hops_str(const std::vector<topology::Hop>& hops) {
  std::string out;
  for (const auto& h : hops) {
    if (!out.empty()) out += '-';
    out += h.as.to_string() + ':' + std::to_string(h.ingress) + '>' +
           std::to_string(h.egress);
  }
  return out;
}

// Structural end-state digest for twin comparison. Includes which
// reservations exist at every AS, on which paths and (for EERs) at which
// bandwidth; excludes what legitimately diverges under faults — EER
// res_ids (retried setups mint fresh ids), SegR bandwidths and versions
// (forecast-driven renewals observe different utilization histories
// mid-chaos), and expiry times.
std::string universe_digest(Testbed& bed, UnixSec now) {
  std::vector<AsId> ases = bed.topology().as_ids();
  std::sort(ases.begin(), ases.end());
  std::string out;
  for (AsId as : ases) {
    const reservation::ReservationDb& db = bed.cserv(as).db();
    std::vector<std::string> lines;
    for (const auto& r : db.segr_snapshot()) {
      if (r.expired(now)) continue;
      lines.push_back("segr " + r.key.src_as.to_string() + '#' +
                      std::to_string(r.key.res_id) +
                      " t=" + std::to_string(static_cast<int>(r.seg_type)) +
                      " path=" + hops_str(r.hops));
    }
    for (const auto& e : db.eer_snapshot()) {
      const BwKbps bw = e.effective_bw(now);
      if (bw == 0) continue;
      lines.push_back("eer " + e.key.src_as.to_string() + ' ' +
                      e.src_host.to_string() + "->" + e.dst_host.to_string() +
                      " bw=" + std::to_string(bw) +
                      " path=" + hops_str(e.path));
    }
    std::sort(lines.begin(), lines.end());
    out += "== " + as.to_string() + '\n';
    for (const auto& l : lines) out += l + '\n';
  }
  return out;
}

// Canonical transition history: every event as a JSON line without the
// process-global seq (the only field that differs between bit-identical
// reruns), the same form incident bundles embed.
std::string canonical_history(const std::vector<telemetry::Event>& events) {
  telemetry::JsonWriter w;
  for (const auto& ev : events) {
    ev.write_json(w, /*with_seq=*/false);
    w.layout("\n");
  }
  return w.take();
}

}  // namespace

bool replayable_series(std::string_view name) {
  return name != "cserv.request_latency_ns" && name != "bus.hop_latency_ns";
}

std::optional<ResKey> find_primary_core_segr(Testbed& bed) {
  std::optional<ResKey> primary;
  for (const auto& r : bed.cserv(kC1a).db().segr_snapshot()) {
    if (r.key.src_as == kC1a && r.seg_type == topology::SegType::kCore &&
        r.hops.size() == 2 && r.hops.back().as == kC2a) {
      if (!primary || r.key.res_id < primary->res_id) primary = r.key;
    }
  }
  return primary;
}

topology::PathSegment protection_backup_segment(
    const topology::Topology& topo) {
  topology::PathSegment seg;
  seg.type = topology::SegType::kCore;
  seg.hops.push_back({kC1a, kNoInterface, iface_to(topo, kC1a, kC1b)});
  seg.hops.push_back(
      {kC1b, iface_to(topo, kC1b, kC1a), iface_to(topo, kC1b, kC2a)});
  seg.hops.push_back({kC2a, iface_to(topo, kC2a, kC1b), kNoInterface});
  return seg;
}

ChaosReport run_chaos_universe(const ChaosOptions& opts) {
  ChaosReport report;
  report.seed = opts.seed;
  report.faulted = opts.faults;

  SimClock clock;
  clock.set(kProvisionNs);
  telemetry::MetricsRegistry registry;  // private: universes never mix
  telemetry::EventLog events(clock, 1 << 15);
  std::optional<FaultInjector> inj;
  if (opts.faults) {
    inj.emplace(clock, opts.seed, &events);
    if (opts.drop_p + opts.dup_p + opts.delay_p > 0) {
      inj->add_message_plan({kMsgFaultStartNs, kMsgFaultEndNs, 0, opts.drop_p,
                             opts.dup_p, opts.delay_p});
    }
    if (opts.fail_link) {
      inj->schedule_link_failure(kCoreLinkId, kLinkFailNs, kLinkHealNs);
    }
  }

  cserv::CservConfig cfg;
  cfg.metrics = &registry;
  cfg.events = &events;
  Testbed bed(topology::builders::two_isd_topology(), clock, cfg);
  if (inj) bed.bus().attach_fault_injector(&*inj);

  // WAL under the crash victim — fault-decorated only in the faulted
  // universe, attached in both so the workload stays symmetric.
  reservation::MemoryStorage wal_disk;
  std::optional<sim::FaultyStorage> faulty_disk;
  if (inj) faulty_disk.emplace(wal_disk, *inj);
  reservation::ReservationWal wal(faulty_disk ? *faulty_disk
                                              : static_cast<reservation::LogStorage&>(wal_disk));
  bed.cserv(kC2a).attach_wal(&wal);

  // --- forensics: live monitoring + the post-mortem trail -----------------
  // 1 s windows match the step cadence: every step cuts one frame into
  // the history store, and the failover rule pack turns the cutover into
  // the alert edge that opens an incident bundle. Attached in both
  // universes so the workload stays symmetric; only the faulted one
  // trips the rules.
  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = kSec;
  scfg.ring_capacity = 256;  // > every window the run cuts
  scfg.series_filter = replayable_series;
  telemetry::WindowedSampler sampler(registry, clock, scfg, &registry);
  sampler.track_rate("cserv.setup.ok");
  telemetry::AlertEngine engine(sampler, clock, &events, &registry);
  engine.add_rules(cserv::default_failover_alert_rules());

  std::unique_ptr<telemetry::HistoryBackend> history_backend;
  if (opts.forensics_dir.empty()) {
    history_backend = std::make_unique<telemetry::MemoryHistoryBackend>();
  } else {
    history_backend = std::make_unique<telemetry::DirectoryHistoryBackend>(
        opts.forensics_dir + "/history");
  }
  telemetry::HistoryConfig hcfg;
  hcfg.max_segment_bytes = 4 * 1024;  // several mid-run rotations
  std::optional<telemetry::HistoryStore> history;
  history.emplace(*history_backend, hcfg, &registry);
  std::uint64_t history_frames_before_reopen = 0;

  telemetry::IncidentRecorder incidents(engine);
  incidents.set_event_log(&events);
  incidents.set_sampler(&sampler);
  if (inj) incidents.set_fault_injector(&*inj);
  if (!opts.forensics_dir.empty()) {
    incidents.set_directory(opts.forensics_dir + "/incidents");
  }

  const auto monitor = [&] {
    if (sampler.poll()) {
      (void)engine.evaluate();
      history->append_latest(sampler);
    }
  };

  // --- steady state: segments + protection pair --------------------------
  bed.provision_all_segments(kSegrMinBw, kSegrMaxBw);

  std::optional<ResKey> primary = find_primary_core_segr(bed);
  cserv::FailoverManager fm(bed.cserv(kC1a));
  std::optional<ResKey> backup;
  if (primary) {
    auto b = fm.provision_backup(*primary,
                                 protection_backup_segment(bed.topology()),
                                 kSegrMinBw, kBackupBw);
    if (b) backup = b.value();
  }

  // Renewal managers for every AS, raw-id ordered for a deterministic
  // tick sequence. min_bw / forecast floor sized so the backup never
  // shrinks below what the failed-over EERs need.
  cserv::RenewalManagerConfig rm_cfg;
  rm_cfg.min_bw_kbps = kBackupBw;
  rm_cfg.forecast.floor_kbps = kBackupBw;
  std::map<std::uint64_t, std::unique_ptr<cserv::RenewalManager>> rms;
  for (AsId as : bed.topology().as_ids()) {
    auto rm = std::make_unique<cserv::RenewalManager>(bed.cserv(as), rm_cfg);
    rm->manage_all_local();
    rms[as.raw()] = std::move(rm);
  }

  // --- storm: sessions + chaos timeline ----------------------------------
  clock.set(kStormStartNs);
  const AsId srcs[] = {{1, 110}, {1, 111}, {1, 120}, {1, 112}};
  const AsId dsts[] = {{2, 210}, {2, 211}, {2, 220}, {2, 212}};
  std::vector<ChaosSession> sessions;
  for (int i = 0; i < opts.sessions; ++i) {
    ChaosSession s;
    s.src = srcs[static_cast<size_t>(i) % std::size(srcs)];
    s.dst = dsts[static_cast<size_t>(i) % std::size(dsts)];
    s.src_host = HostAddr::from_u64(0xA000 + static_cast<std::uint64_t>(i));
    s.dst_host = HostAddr::from_u64(0xB000 + static_cast<std::uint64_t>(i));
    sessions.push_back(std::move(s));
  }

  auto try_open = [&](ChaosSession& s) {
    auto r = bed.daemon(s.src).open_session(s.dst, s.src_host, s.dst_host,
                                            kSessionBw, kSessionBw);
    if (!r) {
      ++report.open_failures;
      return;
    }
    if (s.ever_open) ++report.session_reopens;
    s.ever_open = true;
    s.session.emplace(std::move(r.value()));
    s.path.clear();
    if (auto eer = bed.cserv(s.src).db().eer_copy(s.session->key())) {
      s.path = eer->path;
    }
  };

  // Drops the cached primary/backup adverts at a source so the next
  // chain lookup re-queries c1a's registry instead of riding a stale
  // advert across a failover transition.
  auto invalidate_core_adverts = [&](AsId src) {
    if (primary) bed.cserv(src).registry().invalidate(*primary);
    if (backup) bed.cserv(src).registry().invalidate(*backup);
  };

  auto core_link_down = [&] { return inj && !inj->link_up(kCoreLinkId); };

  // Churn traffic through the crash victim: one fire-and-forget EER per
  // step, never renewed, so c2a's WAL keeps appending right up to (and
  // through) the crash.
  auto open_churn = [&](int step) {
    (void)bed.daemon(AsId{2, 210})
        .open_session(AsId{2, 212},
                      HostAddr::from_u64(0xC000 + static_cast<std::uint64_t>(step)),
                      HostAddr::from_u64(0xD000 + static_cast<std::uint64_t>(step)),
                      kChurnBw, kChurnBw);
  };

  auto step_world = [&](bool with_traffic, int step) {
    clock.advance(kSec);
    bed.bus().deliver_delayed();
    if (inj) {
      for (const auto& t : inj->poll_link_transitions()) {
        if (t.link_id != kCoreLinkId) continue;
        if (!t.up) {
          fm.on_link_down(kC1a, kC2a, t.at_ns);
          // Sessions riding the dead link migrate: flush their stale
          // adverts now so the reopen finds the freshly-published backup.
          for (auto& s : sessions) {
            if (s.session && path_crosses(s.path, kC1a, kC2a)) {
              invalidate_core_adverts(s.src);
              s.session.reset();
            }
          }
        } else {
          fm.on_link_up(kC1a, kC2a);
        }
      }
    }

    if (inj && opts.crash_cserv && clock.now_ns() == kCrashNs) {
      // Tear the WAL append the crash interrupts, write it (the churn
      // EER below), then kill and restore the CServ under live traffic.
      inj->arm_wal_fault(WalFaultKind::kTear, 9);
      open_churn(step);
      cserv::CServ& fresh = bed.restart_as(kC2a);
      fresh.attach_wal(&wal);
      report.wal_records_recovered = fresh.restore_from_wal();
      for (const auto& r : fresh.db().segr_snapshot()) {
        if (r.key.src_as == kC2a) fresh.publish_segr(r.key, {});
      }
      auto rm = std::make_unique<cserv::RenewalManager>(fresh, rm_cfg);
      rm->manage_all_local();
      rms[kC2a.raw()] = std::move(rm);
      report.crash_restored = true;
      // The crash takes the collector down with the CServ: seal the
      // history store and reopen it over the same backend, exactly as a
      // restarted process would — recovery replays the intact prefix,
      // then appends continue into a fresh segment.
      history_frames_before_reopen = history->stats().frames_appended;
      history.emplace(*history_backend, hcfg, &registry);
      report.history_frames_recovered = history->stats().frames_recovered;
    } else if (with_traffic) {
      open_churn(step);
    }

    if (with_traffic) {
      for (auto& s : sessions) {
        if (!s.session) {
          try_open(s);
          continue;
        }
        dataplane::FastPacket pkt;
        if (s.session->send(1'000, pkt) == dataplane::Gateway::Verdict::kOk) {
          if (core_link_down() && path_crosses(s.path, kC1a, kC2a)) {
            ++report.data_lost;
          } else {
            bool dropped = false;
            for (const auto& hop : s.path) {
              const auto v = bed.router(hop.as).process(pkt);
              if (v != dataplane::BorderRouter::Verdict::kForward &&
                  v != dataplane::BorderRouter::Verdict::kDeliver) {
                dropped = true;
                break;
              }
            }
            dropped ? ++report.data_lost : ++report.data_delivered;
          }
        }
        if (!s.session->maybe_renew()) ++report.renew_failures;
        if (s.session->expired()) s.session.reset();
      }
    }

    const UnixSec now = clock.now_sec();
    for (auto& [_, rm] : rms) rm->tick(now);
    bed.tick_all();
    monitor();
  };

  for (auto& s : sessions) try_open(s);
  for (int i = 0; i < kStormSteps; ++i) step_world(true, i);

  // --- drain: sessions stop, EERs expire out -----------------------------
  for (auto& s : sessions) s.session.reset();
  for (int i = 0; i < kDrainSteps; ++i) step_world(false, kStormSteps + i);

  // --- re-establish over the healed steady state and verify --------------
  for (auto& s : sessions) {
    invalidate_core_adverts(s.src);
    try_open(s);
  }
  for (int i = 0; i < kVerifySteps; ++i) step_world(true, -1 - i);

  for (const auto& s : sessions) report.sessions_up += s.session.has_value();
  const cserv::FailoverStats fs = fm.snapshot();
  report.cutovers = fs.cutovers;
  report.failbacks = fs.failbacks;
  report.unprotected = fs.unprotected;
  if (inj) {
    report.faults = inj->snapshot();
    if (faulty_disk) report.wal_appends_faulted = faulty_disk->faulted();
  }

  const std::vector<telemetry::Event> evs = events.events();
  for (const auto& ev : evs) {
    if (ev.component == "failover" && ev.name == "failover.cutover") {
      if (auto lat = ev.u64("latency_ns")) report.failover_latency_ns = *lat;
    }
  }
  report.history = canonical_history(evs);
  report.digest = universe_digest(bed, clock.now_sec());

  report.history_frames =
      history_frames_before_reopen + history->stats().frames_appended;
  report.history_segments = history->segment_count();
  report.incident_bundles = incidents.bundle_count();
  report.incidents_suppressed = incidents.suppressed_total();
  if (incidents.bundle_count() > 0) {
    report.first_incident_rule = incidents.bundles().front().rule;
  }
  const auto ring = sampler.recent_windows(scfg.ring_capacity);
  if (!ring.empty()) {
    report.monitor_span_start_ns = ring.front().start_ns;
    report.monitor_span_end_ns = ring.back().end_ns;
    report.monitored_counter_total = sampler.counter_delta(
        "", telemetry::WindowedSampler::kSpanAll, /*prefix=*/true);
  }
  return report;
}

ChaosTwinReport run_chaos_twins(ChaosOptions opts) {
  ChaosTwinReport twins;
  opts.faults = true;
  twins.faulted = run_chaos_universe(opts);
  opts.faults = false;
  twins.clean = run_chaos_universe(opts);
  twins.converged = !twins.faulted.digest.empty() &&
                    twins.faulted.digest == twins.clean.digest;
  return twins;
}

}  // namespace colibri::app
