// Control-plane session churn: a Testbed over the 16-AS two-ISD topology
// on a SimClock, every CServ logging to a WAL on MemoryStorage, holding
// thousands of live end-to-end reservations between seeded host pairs.
//
// Each simulated second: sessions near expiry call renew_eer, ended
// sessions give up their gateway entry and are replaced through
// ColibriDaemon::open_session, tick_all runs once, and every AS's
// RenewalManager renews, activates and re-publishes the SegRs it
// initiated before their lifetime ends. One
// request is in flight at a time (hosts wait for the reply). After every
// request the source gateway must hold the returned version; at the end
// of every epoch (see kEpochSec) a ConservationAuditor pass over all ASes
// must come back clean.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "colibri/app/testbed.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/cserv/renewal_manager.hpp"
#include "colibri/reservation/persist.hpp"
#include "colibri/telemetry/audit.hpp"

namespace perfbench {
namespace {

using namespace colibri;

constexpr UnixSec kStartSec = 1'000'000;
constexpr std::size_t kSessions = 3'000;     // live sessions held
constexpr UnixSec kMinLife = 20, kMaxLife = 120;  // session length, sim s
constexpr UnixSec kEerLead = 4;    // renew an EER this close to expiry
// A WAL is compacted to a snapshot once it outgrows this size.
constexpr std::size_t kWalCompactBytes = std::size_t{2} << 20;
constexpr BwKbps kEerMin = 10, kEerMax = 100;
// SegRs are renewed every kSegrRenewEvery simulated seconds (the default
// 300 s lifetime less the RenewalManager's 60 s lead), but each version
// lives a day. CServ::lookup_segrs(from, AsId{}) takes a partial cache hit
// for the whole answer: once a core AS's cached adverts expire while a
// re-cached down-SegR of that core is live, its core SegRs are not looked
// up again and setups that need them are refused with no-such-segment
// (about 0.7% of requests from the first expiry on, at the default
// lifetime). Day-long versions keep every cached advert live for a run.
constexpr std::uint32_t kSegrLifetime = 86'400;
constexpr std::uint32_t kSegrRenewEvery = 240;
// The churn runs in epochs of this many simulated seconds (four SegR
// renewal rounds), each on a fresh bed built from the seed. Every CServ's
// ControlRateLimiter keeps renewal state per reservation that nothing
// expires, so a bed's memory grows with simulated time; without epochs
// the peak RSS of a run would follow the host's speed.
constexpr UnixSec kEpochSec = 4 * kSegrRenewEvery;
constexpr BwKbps kSegrMin = 100'000, kSegrMax = 2'000'000;

// Bus channel tags: the first byte of every bus message.
constexpr std::uint8_t kChanPacket = 0;
constexpr std::uint8_t kChanRegistryQuery = 1;
constexpr std::uint8_t kChanKeyFetch = 2;

// Per-request self time of every CServ::handle call, measured by
// re-attaching each AS's bus handler as a timing wrapper. A frame's self
// time is its duration minus the nested bus calls it made.
class BusTimer {
 public:
  bool active = false;

  void enter(std::uint8_t chan) { stack_.push_back({now_ns(), 0.0, chan}); }
  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double total = static_cast<double>(now_ns() - f.start);
    const double self = total - f.child_ns;
    if (stack_.empty()) {
      top_level_ns += total;
    } else {
      stack_.back().child_ns += total;
    }
    if (f.chan == kChanPacket) {
      hop_self_ns += self;
      hop_self.add(self / 1e3);
    } else {
      aux_self_ns += self;
      if (f.chan == kChanKeyFetch) ++key_fetches;
      if (f.chan == kChanRegistryQuery) ++registry_queries;
    }
  }
  // Starts a new request's accumulators (the samples keep growing).
  void begin_request() {
    top_level_ns = hop_self_ns = aux_self_ns = 0.0;
  }

  double top_level_ns = 0, hop_self_ns = 0, aux_self_ns = 0;
  std::uint64_t key_fetches = 0, registry_queries = 0;
  Samples hop_self;  // per handled request packet, µs

 private:
  struct Frame {
    std::int64_t start;
    double child_ns;
    std::uint8_t chan;
  };
  std::vector<Frame> stack_;
};

struct Session {
  AsId src, dst;
  ResKey key;
  UnixSec exp = 0;
  ResVer version = 0;
  UnixSec end = 0;
};

// The system under test. Storage is declared before the testbed so the
// WALs outlive the CServs that log to them.
struct Bed {
  SimClock clock{static_cast<TimeNs>(kStartSec) * kNsPerSec};
  std::vector<std::unique_ptr<reservation::MemoryStorage>> disks;
  std::vector<std::unique_ptr<reservation::ReservationWal>> wals;
  std::unique_ptr<app::Testbed> bed;
  std::vector<AsId> ases;  // sorted, for deterministic iteration
  std::vector<std::unique_ptr<cserv::RenewalManager>> renewals;  // per AS
  std::vector<std::pair<AsId, AsId>> pairs;
  std::vector<Session> sessions;
  Rng rng{1};
  std::uint64_t next_host = 1;
};

// AS sequence of a SegR chain, joined at transfer ASes.
std::vector<AsId> chain_ases(const std::vector<cserv::SegrAdvert>& chain) {
  std::vector<AsId> out;
  for (const auto& a : chain) {
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
      if (i == 0 && !out.empty() && out.back() == a.hops[0].as) continue;
      out.push_back(a.hops[i].as);
    }
  }
  return out;
}

// Sends one probe packet through the source gateway: it must carry the
// version and expiry the control request returned.
bool gateway_holds(app::Testbed& bed, const Session& s) {
  dataplane::FastPacket pkt;
  const auto v = bed.gateway(s.src).process(s.key.res_id, 0, pkt);
  return v == dataplane::Gateway::Verdict::kOk &&
         pkt.resinfo.version == s.version && pkt.resinfo.exp_time == s.exp;
}

// Refused control requests by error code. A refusal is a failed
// operation (it counts in `failed`); a wrong answer to an accepted request
// is a correctness failure.
using Refusals = std::map<std::string, std::uint64_t>;

std::unique_ptr<Bed> build_bed(std::uint64_t seed, Refusals& refused) {
  auto b = std::make_unique<Bed>();
  b->rng = Rng(seed * 0xD1B54A32D192ED03ULL + 5);
  cserv::CservConfig cfg;
  // Rate limits are per-deployment settings; raised so the limiter does
  // not cap the measurement (as in bench_cserv_throughput).
  cfg.rate_limits.per_as_requests_per_sec = 1e12;
  cfg.rate_limits.per_as_burst = 1e12;
  cfg.rate_limits.renewals_per_reservation_per_sec = 1e12;
  cfg.rate_limits.renewal_burst = 1e12;
  cfg.segr_lifetime_sec = kSegrLifetime;
  b->bed = std::make_unique<app::Testbed>(
      topology::builders::two_isd_topology(), b->clock, cfg);
  b->ases = b->bed->topology().as_ids();
  std::sort(b->ases.begin(), b->ases.end(),
            [](AsId x, AsId y) { return x.raw() < y.raw(); });
  for (const AsId as : b->ases) {
    b->disks.push_back(std::make_unique<reservation::MemoryStorage>());
    b->wals.push_back(
        std::make_unique<reservation::ReservationWal>(*b->disks.back()));
    b->bed->cserv(as).attach_wal(b->wals.back().get());
  }
  b->bed->provision_all_segments(kSegrMin, kSegrMax);
  // SegRs are renewed at no less than their provisioned demand: the
  // operator's capacity plan, as the rate limits above are.
  cserv::RenewalManagerConfig rcfg;
  rcfg.forecast.floor_kbps = kSegrMin;
  rcfg.lead_sec = kSegrLifetime - kSegrRenewEvery;
  for (const AsId as : b->ases) {
    b->renewals.push_back(
        std::make_unique<cserv::RenewalManager>(b->bed->cserv(as), rcfg));
    b->renewals.back()->manage_all_local();
  }

  // Host pairs whose first candidate chain is a loop-free path of 2-6
  // ASes (a leaf talking to its own ancestor would stitch a loop).
  for (const AsId src : b->ases) {
    for (const AsId dst : b->ases) {
      if (src == dst) continue;
      const auto chains = b->bed->daemon(src).candidate_chains(dst);
      if (chains.empty()) continue;
      auto path = chain_ases(chains.front());
      const std::size_t n = path.size();
      std::sort(path.begin(), path.end(),
                [](AsId x, AsId y) { return x.raw() < y.raw(); });
      if (n < 2 || n > 6 ||
          std::adjacent_find(path.begin(), path.end()) != path.end()) {
        continue;
      }
      b->pairs.emplace_back(src, dst);
    }
  }

  // Open the initial sessions spread over one EER lifetime, so their
  // renewals are spread over every simulated second.
  const UnixSec lifetime = reservation::kEerLifetimeSec;
  b->sessions.resize(kSessions);
  for (UnixSec sec = 0; sec < lifetime; ++sec) {
    b->clock.advance(kNsPerSec);
    const UnixSec now = b->clock.now_sec();
    for (std::size_t i = sec; i < kSessions; i += lifetime) {
      Session& s = b->sessions[i];
      const auto& [src, dst] = b->pairs[b->rng.below(b->pairs.size())];
      auto r = b->bed->daemon(src).open_session(
          dst, HostAddr::from_u64(b->next_host),
          HostAddr::from_u64(b->next_host + 1), kEerMin, kEerMax);
      b->next_host += 2;
      s.src = src;
      s.dst = dst;
      s.end = now + kMinLife +
              static_cast<UnixSec>(b->rng.below(kMaxLife - kMinLife));
      if (!r) {
        ++refused[errc_name(r.error())];
        s.end = now;  // replaced in the first measured second
        continue;
      }
      s.key = r.value().key();
      s.exp = r.value().exp_time();
      s.version = r.value().version();
    }
    b->bed->tick_all();
  }
  return b;
}

}  // namespace

Outcome run_cp_session_churn(const Options& opt) {
  Outcome out;
  std::uint64_t attempted = 0, wrong = 0;
  Refusals refused;

  // Set-up (testbed, WALs, SegR provisioning, initial sessions) is
  // repeated and its median reported; the last bed starts the first epoch.
  Samples setup;
  BusTimer timer;  // outlives the beds whose buses hold handlers using it
  std::unique_ptr<Bed> b;
  for (int i = 0; i < 9; ++i) {
    b.reset();
    refused.clear();
    const std::int64_t s0 = now_ns();
    b = build_bed(opt.seed, refused);
    setup.add(static_cast<double>(now_ns() - s0) / 1e9);
  }

  // Admission counters and SegR renewal outcomes, summed over epochs.
  std::uint64_t eer_req = 0, eer_granted = 0, eer_req0 = 0,
                eer_granted0 = 0;
  cserv::RenewalStats segr;
  std::size_t managed = 0, epochs = 0, audit_checks = 0, violations = 0;
  UnixSec epoch_end = 0;

  const auto start_epoch = [&]() {
    app::Testbed& bed = *b->bed;
    attempted += kSessions;
    ++epochs;
    epoch_end = b->clock.now_sec() + kEpochSec;
    if (opt.trace) {
      for (const AsId as : b->ases) {
        cserv::CServ* cs = &bed.cserv(as);
        bed.bus().attach(as, [cs, &timer](BytesView wire) -> Bytes {
          if (!timer.active || wire.empty()) return cs->handle(wire);
          timer.enter(wire[0]);
          Bytes r = cs->handle(wire);
          timer.leave();
          return r;
        });
      }
    }
    eer_req0 = eer_granted0 = 0;
    for (const AsId as : b->ases) {
      const auto st = bed.cserv(as).snapshot();
      eer_req0 += st.eer_requests;
      eer_granted0 += st.eer_granted;
    }
  };

  // Ends an epoch: SegR renewal outcomes, admission counters, and a
  // ConservationAuditor pass over all ASes that must come back clean.
  const auto end_epoch = [&]() {
    app::Testbed& bed = *b->bed;
    managed = 0;
    for (const auto& m : b->renewals) {
      const cserv::RenewalStats st = m->snapshot();
      segr.renewed += st.renewed;
      segr.activated += st.activated;
      segr.failed += st.failed;
      managed += m->managed();
    }
    telemetry::ConservationAuditor auditor(b->clock);
    for (const AsId as : b->ases) {
      auditor.add_target({as.to_string(), as, &bed.cserv(as).db(),
                          bed.cserv(as).eer_admission(),
                          &bed.topology().node(as)});
    }
    // Every comparison the auditor makes is one attempted check; every
    // violation is a failed one.
    const telemetry::AuditReport audit = auditor.run(b->clock.now_sec());
    attempted += audit.checks;
    wrong += audit.violations.size();
    audit_checks += audit.checks;
    violations += audit.violations.size();
    eer_req -= eer_req0;
    eer_granted -= eer_granted0;
    for (const AsId as : b->ases) {
      const auto st = bed.cserv(as).snapshot();
      eer_req += st.eer_requests;
      eer_granted += st.eer_granted;
    }
  };

  Samples setup_plain, renew_plain, all_plain, traced_e2e;
  Samples lookup, setup_lookup, initiator_self, hop_sum, aux_sum, tick;
  double segr_renew_ns = 0;
  Windows windows;
  std::size_t sim_seconds = 0;
  std::uint64_t traced_reqs = 0, traced_msgs = 0, traced_bytes = 0,
                traced_allocs = 0, traced_wal = 0;
  std::uint64_t request_no = 0;

  const auto wal_bytes = [&]() {
    std::uint64_t s = 0;
    for (const auto& d : b->disks) s += d->raw().size();
    return s;
  };

  // One control request (a session setup or renewal): timed, checked,
  // and on traced requests decomposed by layer.
  const auto request = [&](Session& s, bool is_setup, double& busy_ns) {
    const bool traced = opt.trace && (request_no++ % 2 == 1);
    app::Testbed& bed = *b->bed;
    cserv::MessageBus& bus = bed.bus();
    const UnixSec now = b->clock.now_sec();
    std::uint64_t a0 = 0, w0 = 0;
    cserv::BusStats bs0;
    if (traced) {
      a0 = alloc_count();
      w0 = wal_bytes();
      bs0 = bus.snapshot();
      timer.begin_request();
      timer.active = true;
    }
    bool ok = false;
    Errc err = Errc::kNoSuchSegment;  // open_session's error when no chain
    double lookup_ns = 0;
    const std::int64_t t0 = now_ns();
    if (is_setup) {
      const HostAddr src_host = HostAddr::from_u64(b->next_host);
      const HostAddr dst_host = HostAddr::from_u64(b->next_host + 1);
      b->next_host += 2;
      if (!traced) {
        auto r = bed.daemon(s.src).open_session(s.dst, src_host, dst_host,
                                                kEerMin, kEerMax);
        if (r) {
          ok = true;
          s.key = r.value().key();
          s.exp = r.value().exp_time();
          s.version = r.value().version();
        } else {
          err = r.error();
        }
      } else {
        // open_session split at its layer boundary: the daemon's chain
        // lookup, then setup_eer over each chain until one admits.
        const auto chains = bed.daemon(s.src).candidate_chains(s.dst);
        lookup_ns = static_cast<double>(now_ns() - t0);
        timer.begin_request();
        for (const auto& chain : chains) {
          std::vector<ResKey> keys;
          for (const auto& a : chain) keys.push_back(a.key);
          auto r = bed.cserv(s.src).setup_eer(keys, src_host, dst_host,
                                              kEerMin, kEerMax);
          if (r) {
            ok = true;
            s.key = r.value().key;
            s.exp = r.value().exp_time;
            s.version = r.value().version;
            break;
          }
          err = r.error();
        }
      }
    } else {
      auto r = bed.cserv(s.src).renew_eer(s.key, kEerMin, kEerMax);
      if (r) {
        ok = true;
        s.exp = r.value().exp_time;
        s.version = r.value().version;
      } else {
        err = r.error();
      }
    }
    const std::int64_t t1 = now_ns();
    const double ns = static_cast<double>(t1 - t0);
    busy_ns += ns;
    ++attempted;
    if (traced) {
      timer.active = false;
      ++traced_reqs;
      traced_allocs += alloc_count() - a0;
      traced_wal += wal_bytes() - w0;
      const cserv::BusStats bs1 = bus.snapshot();
      traced_msgs += bs1.messages - bs0.messages;
      traced_bytes += bs1.bytes - bs0.bytes;
      traced_e2e.add(ns / 1e3);
      lookup.add(lookup_ns / 1e3);
      if (is_setup) setup_lookup.add(lookup_ns / 1e3);
      initiator_self.add((ns - lookup_ns - timer.top_level_ns) / 1e3);
      hop_sum.add(timer.hop_self_ns / 1e3);
      aux_sum.add(timer.aux_self_ns / 1e3);
    } else {
      (is_setup ? setup_plain : renew_plain).add(ns / 1e3);
      all_plain.add(ns / 1e3);
      windows.add_latency(ns / 1e3);
    }
    if (!ok) {
      ++refused[errc_name(err)];
      s.end = now;  // give the slot a fresh session next second
    } else if (!gateway_holds(bed, s)) {
      ++wrong;
      s.end = now;
    }
  };

  start_epoch();
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (now_ns() < end) {
    if (b->clock.now_sec() >= epoch_end) {
      end_epoch();
      b.reset();
      b = build_bed(opt.seed, refused);
      start_epoch();
    }
    app::Testbed& bed = *b->bed;
    b->clock.advance(kNsPerSec);
    const UnixSec now = b->clock.now_sec();
    double busy_ns = 0;
    std::uint64_t reqs = 0;
    for (Session& s : b->sessions) {
      if (s.end <= now) {
        bed.gateway(s.src).remove(s.key.res_id);
        const auto& [src, dst] = b->pairs[b->rng.below(b->pairs.size())];
        s.src = src;
        s.dst = dst;
        s.end = now + kMinLife +
                static_cast<UnixSec>(b->rng.below(kMaxLife - kMinLife));
        request(s, true, busy_ns);
        ++reqs;
      } else if (s.exp <= now + kEerLead) {
        request(s, false, busy_ns);
        ++reqs;
      }
    }

    std::int64_t t0 = now_ns();
    bed.tick_all();
    std::int64_t t1 = now_ns();
    tick.add(static_cast<double>(t1 - t0) / 1e3);
    busy_ns += static_cast<double>(t1 - t0);

    t0 = now_ns();
    for (auto& m : b->renewals) m->tick(now);
    t1 = now_ns();
    segr_renew_ns += static_cast<double>(t1 - t0);
    busy_ns += static_cast<double>(t1 - t0);

    t0 = now_ns();
    for (std::size_t i = 0; i < b->ases.size(); ++i) {
      if (b->disks[i]->raw().size() > kWalCompactBytes) {
        b->wals[i]->checkpoint(bed.cserv(b->ases[i]).db());
      }
    }
    busy_ns += static_cast<double>(now_ns() - t0);
    windows.add_work(static_cast<double>(reqs), busy_ns / 1e9);
    ++sim_seconds;
  }

  end_epoch();
  attempted += segr.renewed + segr.failed;
  if (segr.failed != 0) refused["segr-renewal"] += segr.failed;
  if (segr.activated != segr.renewed) {
    refused["segr-activation"] += segr.renewed - segr.activated;
  }

  out.attempted = attempted;
  std::uint64_t refusals = 0;
  for (const auto& [_, n] : refused) refusals += n;
  const std::uint64_t failed = refusals + wrong;
  out.failed = failed;
  out.correct = wrong == 0;
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double rps = windows.rate();
  out.end_to_end["setup_s"] = {setup.median(), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.end_to_end["ok_ratio"] = {1.0 - fail_ratio, "ratio"};
  out.end_to_end["throughput_per_s"] = {rps, "1/s"};
  out.end_to_end["latency_p50_us"] = {windows.latency_p50(), "us"};
  out.end_to_end["latency_tail_us"] = {all_plain.tail().second, "us"};

  const double treqs = static_cast<double>(traced_reqs);
  auto& L = out.per_layer;
  L["fail_ratio"] = {fail_ratio, "ratio"};
  L["e2e.samples"] = {static_cast<double>(all_plain.count()), "count"};
  L["cp.requests_per_s"] = {rps, "1/s"};
  L["cp.setup_p50_us"] = {setup_plain.median(), "us"};
  L["cp.setup_p99_us"] = {setup_plain.tail().second, "us"};
  L["cp.renew_p50_us"] = {renew_plain.median(), "us"};
  L["cp.renew_p99_us"] = {renew_plain.tail().second, "us"};
  L["daemon.lookup_us"] = {setup_lookup.median(), "us"};
  L["cserv.initiator_self_us"] = {initiator_self.median(), "us"};
  L["cserv.hop_self_p50_us"] = {timer.hop_self.median(), "us"};
  L["cserv.hop_self_p99_us"] = {timer.hop_self.tail().second, "us"};
  L["bus.msgs_per_req"] = {ratio(static_cast<double>(traced_msgs), treqs),
                           "count"};
  L["bus.bytes_per_req"] = {ratio(static_cast<double>(traced_bytes), treqs),
                            "B"};
  L["bus.key_fetches"] = {
      ratio(static_cast<double>(timer.key_fetches), treqs), "count"};
  L["bus.registry_queries"] = {
      ratio(static_cast<double>(timer.registry_queries), treqs), "count"};
  L["cserv.tick_us"] = {tick.median(), "us"};
  // RenewalManager time (planning scans included) per SegR it renewed.
  L["cserv.segr_renew_us"] = {
      ratio(segr_renew_ns / 1e3, static_cast<double>(segr.renewed)), "us"};
  L["admission.grant_ratio"] = {
      ratio(static_cast<double>(eer_granted), static_cast<double>(eer_req)),
      "ratio"};
  L["wal.bytes_per_req"] = {ratio(static_cast<double>(traced_wal), treqs), "B"};
  L["cserv.allocs_per_req"] = {ratio(static_cast<double>(traced_allocs), treqs),
                               "count"};
  const double layers = lookup.median() + initiator_self.median() +
                        hop_sum.median() + aux_sum.median();
  L["trace.residual_us"] = {traced_e2e.median() - layers, "us"};
  L["trace.overhead_pct"] = {
      ratio(traced_e2e.median() - all_plain.median(), all_plain.median()) * 100.0,
      "%"};

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "cp_session_churn: 16 ASes, %zu host pairs, %zu live "
                "sessions, lifetimes %u-%u s, %zu initiated SegRs, %llu SegR "
                "renewals, %zu simulated seconds in %zu epochs of %u s",
                b->pairs.size(), kSessions, kMinLife, kMaxLife, managed,
                static_cast<unsigned long long>(segr.renewed), sim_seconds,
                epochs, kEpochSec);
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "audit (end of every epoch): %zu checks, %zu violations",
                audit_checks, violations);
  out.notes.push_back(buf);
  std::string refusal_note = "refused requests:";
  for (const auto& [name, n] : refused) {
    refusal_note += " " + name + "=" + std::to_string(n);
  }
  out.notes.push_back(refusals ? refusal_note : "refused requests: none");
  out.notes.push_back(describe("request latency", all_plain, "us"));
  out.notes.push_back(windows.describe());
  out.notes.push_back(describe("setup latency", setup_plain, "us"));
  out.notes.push_back(describe("renewal latency", renew_plain, "us"));
  if (opt.trace) {
    out.notes.push_back(describe("traced request latency", traced_e2e, "us"));
    out.notes.push_back(describe("cserv hop self", timer.hop_self, "us"));
  }
  return out;
}

}  // namespace perfbench
