// Data-plane path workloads: a host's (ResId, payload length) through the
// source gateway, then over wire frames through the border router of
// every on-path AS, to delivery at the last AS.
//
// Per 64-packet batch:
//   1. Gateway::process_batch turns (ResId, payload_len) into packets;
//   2. each packet becomes a wire frame (encode_packet(to_packet(..)));
//   3. at every AS the frames go through batch_ingest and
//      BorderRouter::process_batch, and forwarded packets are re-emitted
//      as frames for the next AS;
//   4. the verdict of every packet is checked against the generator's
//      label after the batch.
// Time is simulated: the benchmark's SimClock advances a fixed step per
// batch at the workload's offered rate, so every verdict depends on the
// seed alone. The loop is closed with one batch in flight and there is no
// inter-AS queue, so batch latency is service time.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/proto/codec.hpp"

namespace perfbench {
namespace {

using namespace colibri;
using dataplane::BorderRouter;
using dataplane::DuplicateSuppression;
using dataplane::FastPacket;
using dataplane::Gateway;
using dataplane::OverUseFlowDetector;
using dataplane::PacketBatch;

constexpr std::size_t kBatch = PacketBatch::kCapacity;
constexpr UnixSec kStartSec = 1'000'000;
// Packet timestamps count 2^-22 s ticks back from ExpT in 32 bits, which
// spans 1024 s; every run stays well inside that horizon.
constexpr UnixSec kExpiry = kStartSec + 900;

struct DpParams {
  const char* name;
  std::size_t reservations;
  int hops;
  double offered_pps;  // simulated offered rate at the gateway
  BwKbps bw_kbps;      // reserved rate of every reservation
  bool attack;         // IMIX, pacing, forged/replayed frames, hooks on
};

// 2^20 reservations, uniform random ResIds, 4 ASes, empty payloads, no
// router hooks: the paper's Fig. 5/6 speedtest configuration.
constexpr DpParams kColdTable{"dp_cold_table", 1u << 20, 4, 1e6,
                              0xFFFF'FFFFu, false};
// 2^10 reservations, 16 ASes, simple IMIX, 25 % forged, ~6 % replays,
// dupsup and OFD on every router.
constexpr DpParams kAttack{"dp_attack_long_path", 1u << 10, 16, 5e4, 2'000,
                           true};

constexpr double kForgedShare = 0.25;
constexpr double kReplayShare = 0.06;

// Duplicate suppression sized for the offered rate: at 5e4 pkt/s and a
// 2 s window each router sees at most 1e5 identifiers per window; 2^24
// bits per filter (168 bits per identifier) and 8 hashes put the
// predicted false-positive rate per check near 2e-11, so a valid packet
// crossing 16 routers is practically never dropped as a replay. The
// default (2^22 bits, 4 hashes) is sized for 2^18 identifiers.
dataplane::DupSupConfig dupsup_config() {
  dataplane::DupSupConfig c;
  c.bits_per_filter = std::size_t{1} << 24;
  c.hashes = 8;
  c.window_ns = 2 * kNsPerSec;
  return c;
}

enum class Kind : std::uint8_t { kValid, kForged, kReplay };

// What the generator expects of one packet: delivery at the last AS with
// `payload` bytes (valid), a bad-HVF drop at router `hop` (forged), or a
// replay drop at router 0 (replay).
struct Label {
  Kind kind = Kind::kValid;
  std::uint8_t hop = 0;
  std::uint32_t payload = 0;
};

// One gateway plus one border router per on-path AS, all on one SimClock.
struct Path {
  SimClock clock{static_cast<TimeNs>(kStartSec) * kNsPerSec};
  std::vector<topology::Hop> hops;
  std::unique_ptr<Gateway> gateway;
  std::vector<std::unique_ptr<DuplicateSuppression>> dupsups;
  std::vector<std::unique_ptr<OverUseFlowDetector>> ofds;
  std::vector<std::unique_ptr<BorderRouter>> routers;
};

std::unique_ptr<Path> build_path(const DpParams& p, std::uint64_t seed) {
  auto path = std::make_unique<Path>();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<crypto::Aes128> ciphers;
  for (int i = 0; i < p.hops; ++i) {
    const AsId as{1, static_cast<std::uint64_t>(100 + i)};
    path->hops.push_back(
        topology::Hop{as, static_cast<IfId>(i == 0 ? 0 : 1),
                      static_cast<IfId>(i + 1 == p.hops ? 0 : 2)});
    drkey::Key128 key;
    rng.fill(key.bytes.data(), key.bytes.size());
    ciphers.emplace_back(key.bytes.data());
    path->routers.push_back(
        std::make_unique<BorderRouter>(as, key, path->clock));
    if (p.attack) {
      path->dupsups.push_back(
          std::make_unique<DuplicateSuppression>(dupsup_config()));
      path->ofds.push_back(std::make_unique<OverUseFlowDetector>());
      path->routers.back()->attach_dupsup(path->dupsups.back().get());
      path->routers.back()->attach_ofd(path->ofds.back().get());
    }
  }
  dataplane::GatewayConfig gcfg;
  gcfg.expected_reservations = p.reservations;
  path->gateway =
      std::make_unique<Gateway>(path->hops.front().as, path->clock, gcfg);

  // The gateway holds σ_i = CBC-MAC_{K_i}(ResInfo || EERInfo || In, Eg)
  // per hop (Eq. 4), exactly what a successful EER setup hands it.
  std::vector<dataplane::HopAuth> sigmas(path->hops.size());
  for (std::size_t r = 1; r <= p.reservations; ++r) {
    proto::ResInfo ri;
    ri.src_as = path->hops.front().as;
    ri.res_id = static_cast<ResId>(r);
    ri.bw_kbps = p.bw_kbps;
    ri.exp_time = kExpiry;
    ri.version = 0;
    proto::EerInfo ei;
    ei.src_host = HostAddr::from_u64(r);
    ei.dst_host = HostAddr::from_u64(r + 0x1'0000'0000ULL);
    for (std::size_t h = 0; h < path->hops.size(); ++h) {
      sigmas[h] = dataplane::compute_hopauth(ciphers[h], ri, ei,
                                             path->hops[h].ingress,
                                             path->hops[h].egress);
    }
    path->gateway->install(ri, ei, path->hops, sigmas);
  }
  return path;
}

// Per-layer accumulators, filled by traced batches only.
struct LayerTimes {
  double gw_ns = 0, emit_ns = 0, ingest_ns = 0, router_ns = 0;
  std::uint64_t gw_pkts = 0, emit_frames = 0, emit_bytes = 0,
                ingest_frames = 0, router_pkts = 0;
  std::uint64_t emit_allocs = 0, ingest_allocs = 0, router_allocs = 0;
  // Per-batch layer totals (µs), for the reconciliation.
  Samples gw, emit, ingest, router;
};

// Outcome counters over all batches.
struct Tally {
  std::uint64_t attempted = 0, failed = 0, false_drops = 0;
  std::uint64_t validations = 0, useful_validations = 0;
  bool correct = true;
};

// Drives one batch at a time through the path and checks it.
class PathRunner {
 public:
  explicit PathRunner(Path& path) : path_(path) {}

  // Fresh packets for the gateway: ResId, payload length, expectation,
  // and the hop whose HVF the adversary flips (-1 = untouched).
  void add_fresh(ResId id, std::uint32_t len, Label label, int flip_hop,
                 std::uint8_t flip_byte, std::uint8_t flip_mask) {
    ids_[n_fresh_] = id;
    lens_[n_fresh_] = len;
    flips_[n_fresh_] = Flip{flip_hop, flip_byte, flip_mask};
    labels_.push_back(label);
    ++n_fresh_;
  }
  // A frame the adversary injects at the first router.
  void add_injected(Bytes frame, Label label) {
    injected_.push_back(std::move(frame));
    injected_labels_.push_back(label);
  }

  // Runs the batch; returns its latency (gateway entry to last verdict)
  // in ns and checks every packet into `tally`.
  double run(bool traced, LayerTimes* lt, Tally& tally,
             std::uint64_t& delivered, std::uint64_t& payload_bytes);

  // Gateway output of fresh packet i from the last run (for replays).
  const FastPacket& gateway_out(std::size_t i) const { return gw_out_[i]; }
  std::size_t fresh_count() const { return n_fresh_; }
  const Label& label(std::size_t i) const { return labels_[i]; }
  void clear() {
    n_fresh_ = 0;
    labels_.clear();
    injected_.clear();
    injected_labels_.clear();
  }

 private:
  struct Flip {
    int hop = -1;
    std::uint8_t byte = 0;
    std::uint8_t mask = 0;
  };
  struct Fate {
    int hop = -1;  // router that gave the final verdict, -1 = gateway
    BorderRouter::Verdict verdict = BorderRouter::Verdict::kMalformed;
    std::uint32_t delivered_len = 0;
    bool gateway_drop = false;
  };

  void check(Tally& tally, std::uint64_t& delivered,
             std::uint64_t& payload_bytes);

  Path& path_;
  std::array<ResId, kBatch> ids_{};
  std::array<std::uint32_t, kBatch> lens_{};
  std::array<Flip, kBatch> flips_{};
  std::size_t n_fresh_ = 0;
  std::vector<Label> labels_;  // fresh packets, in gateway order
  std::vector<Bytes> injected_;
  std::vector<Label> injected_labels_;

  std::array<FastPacket, kBatch> gw_out_{};
  std::array<Gateway::Verdict, kBatch> gw_verdicts_{};
  std::array<BorderRouter::Verdict, kBatch> verdicts_{};
  PacketBatch batch_;
  std::vector<Bytes> frames_, next_;
  std::vector<std::uint32_t> origin_, next_origin_, slot_origin_;
  std::vector<Fate> fates_;
};

double PathRunner::run(bool traced, LayerTimes* lt, Tally& tally,
                       std::uint64_t& delivered,
                       std::uint64_t& payload_bytes) {
  fates_.assign(n_fresh_ + injected_.size(), Fate{});
  frames_.clear();
  origin_.clear();
  std::uint64_t a = 0;

  const std::int64_t t0 = now_ns();
  if (traced) a = alloc_count();
  path_.gateway->process_batch(ids_.data(), lens_.data(), n_fresh_,
                               gw_out_.data(), gw_verdicts_.data());
  std::int64_t t = traced ? now_ns() : 0;
  if (traced) {
    lt->gw_ns += static_cast<double>(t - t0);
    lt->gw_pkts += n_fresh_;
    lt->gw.add(static_cast<double>(t - t0) / 1e3);
  }
  double emit_batch = 0, ingest_batch = 0, router_batch = 0;

  for (std::size_t i = 0; i < n_fresh_; ++i) {
    if (gw_verdicts_[i] != Gateway::Verdict::kOk) {
      fates_[i].gateway_drop = true;
      continue;
    }
    const Flip& f = flips_[i];
    if (f.hop >= 0) {
      FastPacket forged = gw_out_[i];
      forged.hvfs[static_cast<std::size_t>(f.hop)][f.byte] ^= f.mask;
      frames_.push_back(proto::encode_packet(dataplane::to_packet(forged)));
    } else {
      frames_.push_back(proto::encode_packet(dataplane::to_packet(gw_out_[i])));
    }
    origin_.push_back(static_cast<std::uint32_t>(i));
  }
  if (traced) {
    const std::int64_t t2 = now_ns();
    const std::uint64_t a2 = alloc_count();
    emit_batch += static_cast<double>(t2 - t);
    lt->emit_allocs += a2 - a;
    lt->emit_frames += frames_.size();
    for (const Bytes& f : frames_) lt->emit_bytes += f.size();
    t = t2;
    a = a2;
  }
  for (std::size_t j = 0; j < injected_.size(); ++j) {
    frames_.push_back(std::move(injected_[j]));
    origin_.push_back(static_cast<std::uint32_t>(n_fresh_ + j));
  }
  injected_.clear();
  if (traced) t = now_ns();  // injection is the adversary's, not a layer's

  const std::size_t hops = path_.routers.size();
  for (std::size_t h = 0; h < hops && !frames_.empty(); ++h) {
    batch_.clear();
    slot_origin_.clear();
    for (std::size_t k = 0; k < frames_.size(); ++k) {
      if (dataplane::batch_ingest(frames_[k], batch_)) {
        slot_origin_.push_back(origin_[k]);
      } else {
        fates_[origin_[k]].hop = static_cast<int>(h);  // unparsable frame
      }
    }
    std::int64_t t2 = 0;
    if (traced) {
      t2 = now_ns();
      const std::uint64_t a2 = alloc_count();
      ingest_batch += static_cast<double>(t2 - t);
      lt->ingest_allocs += a2 - a;
      lt->ingest_frames += frames_.size();
      a = a2;
    }
    path_.routers[h]->process_batch(batch_, verdicts_.data());
    if (traced) {
      const std::int64_t t3 = now_ns();
      const std::uint64_t a3 = alloc_count();
      router_batch += static_cast<double>(t3 - t2);
      lt->router_allocs += a3 - a;
      lt->router_pkts += batch_.size;
      t2 = t3;
      a = a3;
    }
    next_.clear();
    next_origin_.clear();
    for (std::size_t i = 0; i < batch_.size; ++i) {
      const std::uint32_t o = slot_origin_[i];
      const BorderRouter::Verdict v = verdicts_[i];
      if (v == BorderRouter::Verdict::kForward) {
        next_.push_back(proto::encode_packet(dataplane::to_packet(batch_[i])));
        next_origin_.push_back(o);
        continue;
      }
      fates_[o].hop = static_cast<int>(h);
      fates_[o].verdict = v;
      if (v == BorderRouter::Verdict::kDeliver) {
        fates_[o].delivered_len = batch_[i].payload_bytes;
      }
    }
    if (traced) {
      t = now_ns();
      const std::uint64_t a4 = alloc_count();
      emit_batch += static_cast<double>(t - t2);
      lt->emit_allocs += a4 - a;
      lt->emit_frames += next_.size();
      for (const Bytes& f : next_) lt->emit_bytes += f.size();
      a = a4;
    }
    frames_.swap(next_);
    origin_.swap(next_origin_);
  }
  const std::int64_t t1 = now_ns();
  if (traced) {
    lt->emit_ns += emit_batch;
    lt->ingest_ns += ingest_batch;
    lt->router_ns += router_batch;
    lt->emit.add(emit_batch / 1e3);
    lt->ingest.add(ingest_batch / 1e3);
    lt->router.add(router_batch / 1e3);
  }
  check(tally, delivered, payload_bytes);
  return static_cast<double>(t1 - t0);
}

void PathRunner::check(Tally& tally, std::uint64_t& delivered,
                       std::uint64_t& payload_bytes) {
  const int last = static_cast<int>(path_.routers.size()) - 1;
  for (std::size_t o = 0; o < fates_.size(); ++o) {
    const Label& l =
        o < n_fresh_ ? labels_[o] : injected_labels_[o - n_fresh_];
    const Fate& f = fates_[o];
    ++tally.attempted;
    tally.validations += static_cast<std::uint64_t>(f.hop + 1);
    bool ok = false;
    switch (l.kind) {
      case Kind::kValid:
        ok = !f.gateway_drop && f.hop == last &&
             f.verdict == BorderRouter::Verdict::kDeliver &&
             f.delivered_len == l.payload;
        if (ok) {
          ++delivered;
          payload_bytes += l.payload;
          tally.useful_validations += static_cast<std::uint64_t>(last + 1);
        } else if (!f.gateway_drop &&
                   f.verdict == BorderRouter::Verdict::kReplay) {
          // A Bloom-filter false positive: a failure the workload reports,
          // not a wrong verdict of the system.
          ++tally.false_drops;
          ++tally.failed;
          continue;
        }
        break;
      case Kind::kForged:
        ok = !f.gateway_drop && f.hop == l.hop &&
             f.verdict == BorderRouter::Verdict::kBadHvf;
        break;
      case Kind::kReplay:
        ok = f.hop == 0 && f.verdict == BorderRouter::Verdict::kReplay;
        break;
    }
    if (!ok) {
      ++tally.failed;
      tally.correct = false;
    }
  }
}

// Seeded traffic for one workload. Replays copy hop-0 frames of valid
// packets from earlier batches, so they arrive within the dupsup window.
class Generator {
 public:
  Generator(const DpParams& p, std::uint64_t seed)
      : p_(p), rng_(seed), perm_(p.reservations) {
    for (std::size_t i = 0; i < perm_.size(); ++i) {
      perm_[i] = static_cast<ResId>(i + 1);
    }
  }

  void fill(PathRunner& r) {
    r.clear();
    if (!p_.attack) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const auto id = static_cast<ResId>(1 + rng_.below(p_.reservations));
        r.add_fresh(id, 0, Label{Kind::kValid, 0, 0}, -1, 0, 0);
      }
      return;
    }
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double u = rng_.uniform();
      if (u < kReplayShare && !ring_.empty()) {
        r.add_injected(ring_[rng_.below(ring_.size())],
                       Label{Kind::kReplay, 0, 0});
        continue;
      }
      // Paced: a reservation sends at most one packet per batch.
      const std::size_t k = fresh + rng_.below(perm_.size() - fresh);
      std::swap(perm_[fresh], perm_[k]);
      const ResId id = perm_[fresh++];
      const std::uint32_t len = imix();
      if (u < kReplayShare + kForgedShare) {
        const auto hop = static_cast<std::uint8_t>(rng_.below(
            static_cast<std::uint64_t>(p_.hops)));
        const auto byte = static_cast<std::uint8_t>(rng_.below(4));
        const auto mask =
            static_cast<std::uint8_t>(1u << rng_.below(8));
        r.add_fresh(id, len, Label{Kind::kForged, hop, len}, hop, byte, mask);
      } else {
        r.add_fresh(id, len, Label{Kind::kValid, 0, len}, -1, 0, 0);
      }
    }
  }

  // After a batch: keep a few valid hop-0 frames for later replays.
  void remember(const PathRunner& r) {
    if (!p_.attack) return;
    for (int n = 0; n < 8; ++n) {
      const std::size_t i = rng_.below(kBatch);
      if (i >= r.fresh_count() || r.label(i).kind != Kind::kValid) continue;
      Bytes frame =
          proto::encode_packet(dataplane::to_packet(r.gateway_out(i)));
      if (ring_.size() < kRing) {
        ring_.push_back(std::move(frame));
      } else {
        ring_[next_++ % kRing] = std::move(frame);
      }
    }
  }

 private:
  // Simple IMIX: 64, 576 and 1500 byte payloads at 7:4:1.
  std::uint32_t imix() {
    const std::uint64_t x = rng_.below(12);
    return x < 7 ? 64 : (x < 11 ? 576 : 1500);
  }

  static constexpr std::size_t kRing = 256;
  const DpParams& p_;
  Rng rng_;
  std::vector<ResId> perm_;
  std::vector<Bytes> ring_;
  std::size_t next_ = 0;
};

std::uint64_t sum_routers(const Path& path,
                          std::uint64_t dataplane::RouterStats::*field) {
  std::uint64_t s = 0;
  for (const auto& r : path.routers) s += r->snapshot().*field;
  return s;
}

Outcome run_path(const DpParams& p, const Options& opt) {
  Outcome out;

  // Set-up (building the path and installing every reservation) is
  // repeated and its median reported; the last build is measured.
  const int reps = p.reservations > 100'000 ? 5 : 25;
  Samples setup;
  std::unique_ptr<Path> path;
  for (int i = 0; i < reps; ++i) {
    path.reset();
    const std::int64_t s0 = now_ns();
    path = build_path(p, opt.seed);
    setup.add(static_cast<double>(now_ns() - s0) / 1e9);
  }

  PathRunner runner(*path);
  Generator gen(p, opt.seed);
  const auto step_ns = static_cast<TimeNs>(
      static_cast<double>(kBatch) / p.offered_pps * 1e9);

  Tally tally;
  LayerTimes lt;
  Samples lat_plain, lat_traced;
  Windows windows;
  std::uint64_t plain_delivered = 0, plain_payload = 0;

  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t b = 0; now_ns() < end; ++b) {
    path->clock.advance(step_ns);
    gen.fill(runner);
    // Traced runs alternate traced and plain batches, so the difference
    // between the two halves is the tracing overhead.
    const bool traced = opt.trace && (b % 2 == 1);
    std::uint64_t delivered = 0, payload = 0;
    const double ns =
        runner.run(traced, traced ? &lt : nullptr, tally, delivered, payload);
    gen.remember(runner);
    if (traced) {
      lat_traced.add(ns / 1e3);
    } else {
      lat_plain.add(ns / 1e3);
      windows.add_latency(ns / 1e3);
      windows.add_work(static_cast<double>(delivered), ns / 1e9);
      plain_delivered += delivered;
      plain_payload += payload;
    }
  }

  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.correct;
  const double fail_ratio =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 1.0;
  const double pps = windows.rate();
  const double p50 = windows.latency_p50();
  const double tail = lat_plain.tail().second;

  out.end_to_end["setup_s"] = {setup.median(), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.end_to_end["ok_ratio"] = {1.0 - fail_ratio, "ratio"};
  out.end_to_end["throughput_per_s"] = {pps, "1/s"};
  out.end_to_end["latency_p50_us"] = {p50, "us"};
  out.end_to_end["latency_tail_us"] = {tail, "us"};

  auto& L = out.per_layer;
  L["fail_ratio"] = {fail_ratio, "ratio"};
  L["dp.delivered_pps"] = {pps, "1/s"};
  // Delivered packets per second times the mean payload they carried.
  L["dp.goodput_mbps"] = {
      pps * ratio(static_cast<double>(plain_payload) * 8.0,
                  static_cast<double>(plain_delivered)) / 1e6,
      "Mbit/s"};
  L["dp.batch_p50_us"] = {p50, "us"};
  L["dp.batch_p99_us"] = {tail, "us"};
  L["e2e.samples"] = {static_cast<double>(lat_plain.count()), "count"};

  const dataplane::GatewayStats gs = path->gateway->snapshot();
  L["gateway.ns_per_pkt"] = {ratio(lt.gw_ns, static_cast<double>(lt.gw_pkts)),
                             "ns"};
  L["gateway.forwarded"] = {static_cast<double>(gs.forwarded), "count"};
  L["gateway.drop"] = {
      static_cast<double>(gs.no_reservation + gs.rate_limited + gs.expired),
      "count"};
  L["codec.emit_ns_per_frame"] = {
      ratio(lt.emit_ns, static_cast<double>(lt.emit_frames)), "ns"};
  L["codec.ingest_ns_per_frame"] = {
      ratio(lt.ingest_ns, static_cast<double>(lt.ingest_frames)), "ns"};
  L["codec.bytes_per_frame"] = {
      ratio(static_cast<double>(lt.emit_bytes),
          static_cast<double>(lt.emit_frames)),
      "B"};
  // One emit plus one ingest: the allocations a frame costs per hop.
  L["codec.allocs_per_frame"] = {
      ratio(static_cast<double>(lt.emit_allocs),
          static_cast<double>(lt.emit_frames)) +
          ratio(static_cast<double>(lt.ingest_allocs),
              static_cast<double>(lt.ingest_frames)),
      "count"};
  L["router.ns_per_pkt_hop"] = {
      ratio(lt.router_ns, static_cast<double>(lt.router_pkts)), "ns"};
  L["router.forwarded"] = {
      static_cast<double>(sum_routers(*path, &dataplane::RouterStats::forwarded)),
      "count"};
  L["router.delivered"] = {
      static_cast<double>(sum_routers(*path, &dataplane::RouterStats::delivered)),
      "count"};
  L["router.bad_hvf"] = {
      static_cast<double>(sum_routers(*path, &dataplane::RouterStats::bad_hvf)),
      "count"};
  L["router.replayed"] = {
      static_cast<double>(sum_routers(*path, &dataplane::RouterStats::replayed)),
      "count"};
  L["router.useful_hop_ratio"] = {
      ratio(static_cast<double>(tally.useful_validations),
          static_cast<double>(tally.validations)),
      "ratio"};
  L["router.allocs_per_pkt"] = {
      ratio(static_cast<double>(lt.router_allocs),
          static_cast<double>(lt.router_pkts)),
      "count"};
  std::uint64_t dups = 0, flagged = 0;
  for (const auto& d : path->dupsups) dups += d->snapshot().duplicates;
  for (const auto& o : path->ofds) flagged += o->snapshot().flagged;
  L["dupsup.duplicates"] = {static_cast<double>(dups), "count"};
  L["dupsup.false_drops"] = {static_cast<double>(tally.false_drops), "count"};
  L["ofd.flagged"] = {static_cast<double>(flagged), "count"};

  // Reconciliation: traced batch median minus the sum of the layers'
  // per-batch self-time medians. What remains is the benchmark's own
  // frame bookkeeping plus the non-additivity of medians.
  const double layers =
      lt.gw.median() + lt.emit.median() + lt.ingest.median() +
      lt.router.median();
  L["trace.residual_us"] = {lat_traced.median() - layers, "us"};
  L["trace.overhead_pct"] = {
      ratio(lat_traced.median() - lat_plain.median(), lat_plain.median()) *
          100.0,
      "%"};

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu reservations, %d ASes, offered %.0f pkt/s simulated "
                "(%.1f us/batch), %s",
                p.name, p.reservations, p.hops, p.offered_pps,
                static_cast<double>(step_ns) / 1e3,
                p.attack ? "IMIX 64/576/1500 at 7:4:1, 25% forged, ~6% "
                           "replayed, dupsup+OFD on"
                         : "0-byte payload, router hooks off");
  out.notes.push_back(buf);
  if (p.attack) {
    const dataplane::DupSupConfig dc = dupsup_config();
    const double ids = p.offered_pps * static_cast<double>(dc.window_ns) / 1e9;
    std::snprintf(buf, sizeof(buf),
                  "dupsup sizing: %zu bits/filter, %d hashes, %.1f s window, "
                  "<= %.0f ids/window, predicted FPR %.2e per check",
                  dc.bits_per_filter, dc.hashes,
                  static_cast<double>(dc.window_ns) / 1e9, ids,
                  dataplane::BloomFilter::predicted_fpr(
                      dc.bits_per_filter, dc.hashes,
                      static_cast<std::size_t>(ids)));
    out.notes.push_back(buf);
  }
  out.notes.push_back(describe("batch latency", lat_plain, "us"));
  out.notes.push_back(windows.describe());
  if (opt.trace) {
    out.notes.push_back(describe("traced batch latency", lat_traced, "us"));
    out.notes.push_back(describe("gateway per batch", lt.gw, "us"));
    out.notes.push_back(describe("codec emit per batch", lt.emit, "us"));
    out.notes.push_back(describe("codec ingest per batch", lt.ingest, "us"));
    out.notes.push_back(describe("router per batch", lt.router, "us"));
  }
  return out;
}

}  // namespace

Outcome run_dp_cold_table(const Options& opt) { return run_path(kColdTable, opt); }
Outcome run_dp_attack_long_path(const Options& opt) {
  return run_path(kAttack, opt);
}

bool dp_self_check() {
  // Four ASes, a handful of reservations; one packet is labelled valid
  // but its HVF for hop 1 is flipped, so hop 1 must drop it and the
  // check must count exactly that packet as a failure.
  constexpr DpParams kSmall{"self_check", 16, 4, 1e6, 0xFFFF'FFFFu, false};
  auto path = build_path(kSmall, 1);
  PathRunner runner(*path);
  path->clock.advance(kNsPerSec);
  for (ResId id = 1; id <= 8; ++id) {
    const int flip = id == 3 ? 1 : -1;
    runner.add_fresh(id, 100, Label{Kind::kValid, 0, 100}, flip, 0, 0x01);
  }
  Tally tally;
  std::uint64_t delivered = 0, payload = 0;
  (void)runner.run(false, nullptr, tally, delivered, payload);
  return tally.failed == 1 && !tally.correct && delivered == 7;
}

}  // namespace perfbench
