// Differential + edge-case harness for the data-plane pipeline.
//
// BorderRouter and Gateway run one staged batch pipeline; process() is a
// batch of one. These tests hold it to the per-packet reference router
// and gateway in tests/support (the oracle) the hard way: twin universes
// (identical clocks, hooks, keys, and installs) consume the same seeded
// mixed packet stream — one through the reference, one through the
// pipeline at several batch sizes — and every observable is compared
// packet-for-packet: verdicts, error codes, cursor, emitted headers,
// counters, hook state, and flight records.
// Also here: the token-bucket u64-overflow regression, SPSC ring and
// batch-ingest units, and the sharded-gateway routing/resize/runtime
// edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/hvf.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/dataplane/shard.hpp"
#include "colibri/dataplane/spscring.hpp"
#include "colibri/dataplane/tokenbucket.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "support/reference_dataplane.hpp"

namespace colibri::dataplane {
namespace {

using reference::ReferenceGateway;
using reference::ReferenceRouter;

const AsId kSrcAs{1, 10};
const AsId kRouterAs{1, 20};
const AsId kEvilAs{1, 66};
const AsId kBannedAs{1, 99};

constexpr TimeNs kStart = 100 * kNsPerSec;
constexpr UnixSec kExp = 200;

drkey::Key128 key_of(std::uint8_t seed) {
  drkey::Key128 k;
  k.bytes.fill(seed);
  return k;
}

// Clock that advances a fixed step on every reading. Any difference in
// the number or order of clock samples between the reference and the
// pipeline shows up immediately as diverging timestamps, token-bucket
// refills, or expiry decisions.
class TickClock final : public Clock {
 public:
  TickClock(TimeNs start, TimeNs step) : now_(start), step_(step) {}
  TimeNs now_ns() const override {
    const TimeNs t = now_;
    now_ += step_;
    return t;
  }

 private:
  mutable TimeNs now_;
  TimeNs step_;
};

// --- token bucket: u64 overflow regression ------------------------------

TEST(TokenBucketRegression, LongIdleRefillSaturatesInsteadOfOverflowing) {
  // elapsed * rate_kbps * 125 exceeds 2^64 after ~41 s of idle at the
  // maximum rate; the wrapped product used to refill a near-random token
  // count. The refill must saturate at the burst cap.
  TokenBucket tb(/*rate_kbps=*/0xFFFF'FFFF, /*burst_bytes=*/1'000'000,
                 /*now=*/0);
  EXPECT_TRUE(tb.allow(1'000'000, 0));  // drain the full burst
  EXPECT_EQ(0u, tb.available_bytes());

  const TimeNs later = 2 * 3600 * kNsPerSec;  // two idle hours
  EXPECT_TRUE(tb.allow(1'000'000, later));
  EXPECT_EQ(0u, tb.available_bytes());  // exactly cap was refilled
}

TEST(TokenBucketRegression, RepeatedLongGapsNeverExceedBurstCap) {
  TokenBucket tb(0xFFFF'FFFF, 1500, 0);
  EXPECT_TRUE(tb.allow(1500, 0));
  for (int i = 1; i <= 50; ++i) {
    // Each gap is another overflowing product with a different wrap
    // residue; saturation must hold for all of them.
    const TimeNs now = static_cast<TimeNs>(i) * 3601 * kNsPerSec;
    EXPECT_TRUE(tb.allow(1, now)) << "gap " << i;
    EXPECT_EQ(1499u, tb.available_bytes()) << "gap " << i;
  }
}

// --- packet construction helpers ----------------------------------------

FastPacket make_eer(AsId src, ResId id, BwKbps bw, UnixSec exp, ResVer version,
                    std::uint8_t hop, std::uint32_t payload, std::uint32_t ts) {
  FastPacket p;
  p.type = proto::PacketType::kData;
  p.is_eer = true;
  p.num_hops = 3;
  p.current_hop = hop;
  p.resinfo = {src, id, bw, exp, version};
  p.eerinfo = {HostAddr::from_u64(0xAAA), HostAddr::from_u64(0xBBB)};
  p.payload_bytes = payload;
  p.ifaces[0] = {0, 1};
  p.ifaces[1] = {2, 3};
  p.ifaces[2] = {4, 0};
  p.timestamp = ts;
  return p;
}

// Computes the correct HVF for the packet's current hop under `key` —
// what the gateway of the source AS would have stamped.
void sign_hop(const crypto::Aes128& key, FastPacket& p) {
  const IfPair hop = p.ifaces[p.current_hop];
  const HopAuth sigma =
      compute_hopauth(key, p.resinfo, p.eerinfo, hop.in, hop.eg);
  p.hvfs[p.current_hop] = compute_data_hvf(sigma, p.timestamp, p.wire_size());
}

// Generates the harness's mixed stream: valid mid-path and last-hop EER
// data, SegR control (valid and corrupted), corrupted HVFs, expired
// reservations, replays of earlier packets, an overusing flow, a
// blocklisted source AS, and malformed headers.
class RouterStream {
 public:
  explicit RouterStream(std::uint32_t seed)
      : rng_(seed), key_cipher_(key_of(1).bytes.data()) {}

  FastPacket next() {
    gen_now_ += 1000;  // 1 us per packet: unique per-packet timestamps
    const std::uint32_t kind = rng_() % 100;
    if (kind < 35) return valid(1);
    if (kind < 45) return valid(2);  // last hop: kDeliver
    if (kind < 53) {
      FastPacket p = valid(1);
      p.hvfs[1][0] ^= 0x5A;
      return p;
    }
    if (kind < 60) return expired();
    if (kind < 67) return malformed(kind % 3);
    if (kind < 74) return seg(kind % 2 == 0);
    if (kind < 82 && !history_.empty()) {
      return history_[rng_() % history_.size()];  // replay
    }
    if (kind < 91) return evil();
    return banned();
  }

 private:
  std::uint32_t ts() const {
    return PacketTimestamp::encode(gen_now_, kExp);
  }

  FastPacket valid(std::uint8_t hop) {
    FastPacket p = make_eer(kSrcAs, 100 + rng_() % 8, 100'000, kExp, 1, hop,
                            rng_() % 1200, ts());
    sign_hop(key_cipher_, p);
    history_.push_back(p);
    return p;
  }

  FastPacket expired() {
    // Expiry short-circuits before the HVF, so no signing needed.
    return make_eer(kSrcAs, 100, 100'000, /*exp=*/1, 1, 1, 64, 0);
  }

  FastPacket malformed(std::uint32_t variant) {
    FastPacket p = make_eer(kSrcAs, 100, 100'000, kExp, 1, 1, 64, ts());
    if (variant == 0) {
      p.num_hops = 0;
    } else if (variant == 1) {
      p.current_hop = p.num_hops;
    } else {
      p.num_hops = kMaxHops + 1;
    }
    return p;
  }

  FastPacket seg(bool valid_token) {
    FastPacket p = make_eer(kSrcAs, 300, 100'000, kExp, 1, 1, 0, ts());
    p.type = proto::PacketType::kSegRenewal;
    p.is_eer = false;
    p.hvfs[1] = compute_seg_hvf(key_cipher_, p.resinfo, p.ifaces[1].in,
                                p.ifaces[1].eg);
    if (!valid_token) p.hvfs[1][2] ^= 0xFF;
    return p;
  }

  FastPacket evil() {
    // An 8 kbps reservation hammered with kilobyte packets: the OFD
    // flags it, confirms overuse, and the blocklist then drops the whole
    // AS — cross-packet state the pipeline must apply in arrival order.
    FastPacket p = make_eer(kEvilAs, 666, 8, kExp, 1, 1, 1000, ts());
    sign_hop(key_cipher_, p);
    return p;
  }

  FastPacket banned() {
    // Blocked before the HVF is ever checked; no signing needed.
    return make_eer(kBannedAs, 900, 100'000, kExp, 1, 1, 64, ts());
  }

  std::mt19937 rng_;
  crypto::Aes128 key_cipher_;
  TimeNs gen_now_ = kStart;
  std::vector<FastPacket> history_;
};

// The router under test (BorderRouter) or the oracle (ReferenceRouter),
// keyed with K_1 at kRouterAs and registered nowhere.
template <typename R>
R make_router(const Clock& clock) {
  if constexpr (std::is_same_v<R, BorderRouter>) {
    return R(kRouterAs, key_of(1), clock, nullptr);
  } else {
    return R(kRouterAs, key_of(1), clock);
  }
}

// One complete router environment: its own clock and hook state, so two
// universes share nothing but the packet stream.
template <typename R>
struct RouterUniverse {
  explicit RouterUniverse(TimeNs clock_step)
      : clock(kStart, clock_step),
        blocklist(nullptr),
        dupsup(small_dupsup(), nullptr),
        ofd(OfdConfig{}, nullptr),
        router(make_router<R>(clock)) {
    router.attach_blocklist(&blocklist);
    router.attach_dupsup(&dupsup);
    router.attach_ofd(&ofd);
    blocklist.block(kBannedAs);
  }

  static DupSupConfig small_dupsup() {
    DupSupConfig cfg;
    cfg.bits_per_filter = 1 << 16;
    return cfg;
  }

  TickClock clock;
  Blocklist blocklist;
  DuplicateSuppression dupsup;
  OverUseFlowDetector ofd;
  R router;
};

using PipelineUniverse = RouterUniverse<BorderRouter>;
using ReferenceUniverse = RouterUniverse<ReferenceRouter>;

void expect_router_stats_eq(const RouterStats& a, const RouterStats& b) {
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.bad_hvf, b.bad_hvf);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.overuse_dropped, b.overuse_dropped);
}

void expect_record_eq(const telemetry::FlightRecord& a,
                      const telemetry::FlightRecord& b, size_t i) {
  EXPECT_EQ(a.seq, b.seq) << "record " << i;
  EXPECT_EQ(a.time_ns, b.time_ns) << "record " << i;
  EXPECT_EQ(a.component, b.component) << "record " << i;
  EXPECT_EQ(a.verdict, b.verdict) << "record " << i;
  EXPECT_EQ(a.errc, b.errc) << "record " << i;
  EXPECT_EQ(a.forced_by_drop, b.forced_by_drop) << "record " << i;
  EXPECT_EQ(a.src_as, b.src_as) << "record " << i;
  EXPECT_EQ(a.res_id, b.res_id) << "record " << i;
  EXPECT_EQ(a.version, b.version) << "record " << i;
  EXPECT_EQ(a.hop, b.hop) << "record " << i;
  EXPECT_EQ(a.if_in, b.if_in) << "record " << i;
  EXPECT_EQ(a.if_eg, b.if_eg) << "record " << i;
  EXPECT_EQ(a.timestamp, b.timestamp) << "record " << i;
  EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "record " << i;
  EXPECT_EQ(a.exp_time, b.exp_time) << "record " << i;
  EXPECT_EQ(a.hvf_got, b.hvf_got) << "record " << i;
  EXPECT_EQ(a.hvf_want, b.hvf_want) << "record " << i;
  EXPECT_EQ(a.hvf_checked, b.hvf_checked) << "record " << i;
  EXPECT_EQ(a.dupsup_verdict, b.dupsup_verdict) << "record " << i;
  EXPECT_EQ(a.ofd_verdict, b.ofd_verdict) << "record " << i;
  EXPECT_EQ(a.bucket_available_bytes, b.bucket_available_bytes)
      << "record " << i;
  EXPECT_EQ(a.bucket_checked, b.bucket_checked) << "record " << i;
}

// dupsup, OFD and blocklist state after the same stream.
template <typename A, typename B>
void expect_hooks_eq(const RouterUniverse<A>& a, const RouterUniverse<B>& b) {
  EXPECT_EQ(a.dupsup.snapshot().duplicates, b.dupsup.snapshot().duplicates);
  EXPECT_EQ(a.dupsup.snapshot().stale, b.dupsup.snapshot().stale);
  EXPECT_EQ(a.ofd.snapshot().flagged, b.ofd.snapshot().flagged);
  EXPECT_EQ(a.ofd.snapshot().confirmed, b.ofd.snapshot().confirmed);
  EXPECT_EQ(a.ofd.snapshot().watchlist, b.ofd.snapshot().watchlist);
  EXPECT_EQ(a.blocklist.snapshot().blocked_ases,
            b.blocklist.snapshot().blocked_ases);
  EXPECT_EQ(a.blocklist.snapshot().reports, b.blocklist.snapshot().reports);
}

void expect_records_eq(telemetry::FlightRecorder& a,
                       telemetry::FlightRecorder& b) {
  const auto ra = a.drain();
  const auto rb = b.drain();
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_GT(ra.size(), 0u);
  for (size_t i = 0; i < ra.size(); ++i) expect_record_eq(ra[i], rb[i], i);
}

// Runs the pipeline over `batch`: a batch of one goes through
// process(), anything larger through process_batch().
void pipeline_run(BorderRouter& router, PacketBatch& batch,
                  BorderRouter::Verdict* verdicts) {
  if (batch.size == 1) {
    verdicts[0] = router.process(batch[0]);
  } else {
    router.process_batch(batch, verdicts);
  }
}

// The canonical mixed stream through the oracle packet by packet and
// through the pipeline in batches of `batch_size`.
void run_router_differential(size_t batch_size, size_t total_packets,
                             bool with_recorder) {
  SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
               " recorder=" + std::to_string(with_recorder));
  ReferenceUniverse ref(1);
  PipelineUniverse pipe(1);
  telemetry::FlightRecorder rec_r({1 << 15, /*sample_every=*/3, true});
  telemetry::FlightRecorder rec_p({1 << 15, /*sample_every=*/3, true});
  if (with_recorder) {
    ref.router.attach_flight_recorder(&rec_r);
    pipe.router.attach_flight_recorder(&rec_p);
  }

  RouterStream stream(0xC011B1 + static_cast<std::uint32_t>(batch_size));
  std::array<bool, BorderRouter::kNumVerdicts> seen{};
  size_t done = 0;
  while (done < total_packets) {
    const size_t n = std::min(batch_size, total_packets - done);
    PacketBatch batch;
    std::array<FastPacket, PacketBatch::kCapacity> ref_pkts;
    for (size_t i = 0; i < n; ++i) {
      const FastPacket p = stream.next();
      batch.push(p);
      ref_pkts[i] = p;
    }
    std::array<BorderRouter::Verdict, PacketBatch::kCapacity> vr, vp;
    for (size_t i = 0; i < n; ++i) vr[i] = ref.router.process(ref_pkts[i]);
    pipeline_run(pipe.router, batch, vp.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vr[i], vp[i]) << "packet " << done + i;
      ASSERT_EQ(errc_from_verdict(vr[i]), errc_from_verdict(vp[i]));
      // The cursor advance is part of the observable contract.
      ASSERT_EQ(ref_pkts[i].current_hop, batch[i].current_hop)
          << "packet " << done + i;
      seen[static_cast<size_t>(vr[i])] = true;
    }
    done += n;
  }

  expect_router_stats_eq(ref.router.snapshot(), pipe.router.snapshot());
  expect_hooks_eq(ref, pipe);

  // The stream must actually have exercised every verdict class,
  // otherwise the parity claim is vacuous for the missing ones.
  for (size_t v = 0; v < BorderRouter::kNumVerdicts; ++v) {
    EXPECT_TRUE(seen[v]) << "verdict " << v << " never occurred";
  }
  if (with_recorder) expect_records_eq(rec_r, rec_p);
}

TEST(RouterDifferential, ParityAcrossBatchSizes) {
  for (size_t bs : {size_t{1}, size_t{3}, PacketBatch::kCapacity}) {
    run_router_differential(bs, 10'000, /*with_recorder=*/false);
    run_router_differential(bs, 6'000, /*with_recorder=*/true);
  }
}

TEST(RouterDifferential, FlightRecorderParity) {
  // process() per packet and process_batch() over 32-packet batches
  // commit the same records for the same stream.
  PipelineUniverse single(1);
  PipelineUniverse batched(1);
  telemetry::FlightRecorder rec_s({1 << 15, /*sample_every=*/3, true});
  telemetry::FlightRecorder rec_b({1 << 15, /*sample_every=*/3, true});
  single.router.attach_flight_recorder(&rec_s);
  batched.router.attach_flight_recorder(&rec_b);
  RouterStream stream(0xF11E);
  for (size_t done = 0; done < 6'000; done += 32) {
    PacketBatch batch;
    std::array<FastPacket, 32> pkts;
    for (auto& p : pkts) {
      p = stream.next();
      batch.push(p);
    }
    std::array<BorderRouter::Verdict, PacketBatch::kCapacity> vb;
    batched.router.process_batch(batch, vb.data());
    for (size_t i = 0; i < pkts.size(); ++i) {
      ASSERT_EQ(single.router.process(pkts[i]), vb[i]) << done + i;
    }
  }
  expect_router_stats_eq(single.router.snapshot(), batched.router.snapshot());
  expect_records_eq(rec_s, rec_b);
}

// Runs one batched universe over the canonical stream with the given
// recorder attached; `profile` additionally enables the stage profiler,
// which must be invisible to the recorder.
void run_batched_with_recorder(telemetry::FlightRecorder& rec, bool profile,
                               size_t total,
                               size_t* drops_out = nullptr) {
  PipelineUniverse u(1);
  u.router.attach_flight_recorder(&rec);
  u.router.profiler().set_enabled(profile);
  RouterStream stream(0xFEED5EED);
  size_t drops = 0;
  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(size_t{32}, total - done);
    PacketBatch batch;
    for (size_t i = 0; i < n; ++i) batch.push(stream.next());
    std::array<BorderRouter::Verdict, PacketBatch::kCapacity> v;
    u.router.process_batch(batch, v.data());
    for (size_t i = 0; i < n; ++i) {
      if (errc_from_verdict(v[i]) != Errc::kOk) ++drops;
    }
    done += n;
  }
  if (drops_out != nullptr) *drops_out = drops;
}

TEST(BatchedFlightRecorderTest, SamplingIsDeterministicAndProfilerInvisible) {
  // 1-in-7 sampling, drop capture off: the batched path must commit
  // exactly every 7th processed packet, reproducibly.
  telemetry::FlightRecorder plain({1 << 12, /*sample_every=*/7, false});
  telemetry::FlightRecorder profiled({1 << 12, /*sample_every=*/7, false});
  run_batched_with_recorder(plain, /*profile=*/false, 2'000);
  run_batched_with_recorder(profiled, /*profile=*/true, 2'000);

  const auto a = plain.drain();
  const auto b = profiled.drain();
  EXPECT_EQ(a.size(), 2'000u / 7u);
  ASSERT_EQ(a.size(), b.size());
  // Turning the profiler on must not perturb what gets recorded.
  for (size_t i = 0; i < a.size(); ++i) expect_record_eq(a[i], b[i], i);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].forced_by_drop) << "record " << i;
  }
  // And the profiler actually ran in the second universe's batches.
  // (Nothing to check on `plain`: its universe had profiling off.)
}

TEST(BatchedFlightRecorderTest, EveryDropIsRecordedWithoutSampling) {
  // Sampling off, record-on-drop on: the committed records are exactly
  // the dropped packets, in processing order.
  telemetry::FlightRecorder rec({1 << 12, /*sample_every=*/0, true});
  size_t drops = 0;
  run_batched_with_recorder(rec, /*profile=*/false, 2'000, &drops);
  const auto records = rec.drain();
  EXPECT_GT(drops, 0u);
  ASSERT_EQ(records.size(), drops);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].forced_by_drop) << "record " << i;
    EXPECT_NE(
        errc_from_verdict(static_cast<BorderRouter::Verdict>(
            records[i].verdict)),
        Errc::kOk)
        << "record " << i;
    if (i > 0) EXPECT_GT(records[i].seq, records[i - 1].seq);
  }
}

TEST(RouterDifferential, OveruseBlocksLaterPacketsWithinTheSameBatch) {
  // Deterministic cross-packet state inside one batch: the overusing
  // flow is flagged (forwarded), watched (forwarded), confirmed
  // (kOveruse + blocklist report), after which the rest of the batch
  // from that AS must be kBlocked — in the reference and the pipeline.
  ReferenceUniverse ref(1);
  PipelineUniverse batched(1);
  const crypto::Aes128 key(key_of(1).bytes.data());

  PacketBatch batch;
  std::vector<FastPacket> pkts;
  for (int i = 0; i < 8; ++i) {
    FastPacket p = make_eer(kEvilAs, 666, /*bw=*/8, kExp, 1, 1, 1000,
                            PacketTimestamp::encode(kStart + i * 1000, kExp));
    sign_hop(key, p);
    pkts.push_back(p);
    batch.push(p);
  }
  std::array<BorderRouter::Verdict, 8> vr, vb;
  for (size_t i = 0; i < pkts.size(); ++i) vr[i] = ref.router.process(pkts[i]);
  batched.router.process_batch(batch, vb.data());

  for (size_t i = 0; i < pkts.size(); ++i) EXPECT_EQ(vr[i], vb[i]) << i;
  EXPECT_EQ(BorderRouter::Verdict::kOveruse, vb[2]);
  for (size_t i = 3; i < pkts.size(); ++i) {
    EXPECT_EQ(BorderRouter::Verdict::kBlocked, vb[i]) << i;
  }
  EXPECT_TRUE(batched.blocklist.blocked(kEvilAs));
}

TEST(RouterDifferential, ReservationExpiringMidBatch) {
  // The clock crosses the reservation's expiry boundary inside a single
  // batch; the split between forwarded and expired packets must land on
  // the same index as in the reference (one clock reading per packet).
  const TimeNs boundary = static_cast<TimeNs>(kExp) * kNsPerSec;
  TickClock clk_r(boundary - 5, 1);
  TickClock clk_b(boundary - 5, 1);
  ReferenceRouter rr(kRouterAs, key_of(1), clk_r);
  BorderRouter rb(kRouterAs, key_of(1), clk_b, nullptr);
  const crypto::Aes128 key(key_of(1).bytes.data());

  PacketBatch batch;
  std::vector<FastPacket> pkts;
  for (int i = 0; i < 12; ++i) {
    FastPacket p =
        make_eer(kSrcAs, 50, 100'000, kExp, 1, 1, 100,
                 PacketTimestamp::encode(boundary - 1'000'000 + i, kExp));
    sign_hop(key, p);
    pkts.push_back(p);
    batch.push(p);
  }
  std::array<BorderRouter::Verdict, 12> vr, vb;
  for (size_t i = 0; i < pkts.size(); ++i) vr[i] = rr.process(pkts[i]);
  rb.process_batch(batch, vb.data());

  bool saw_forward = false, saw_expired = false;
  for (size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(vr[i], vb[i]) << i;
    saw_forward |= vb[i] == BorderRouter::Verdict::kForward;
    saw_expired |= vb[i] == BorderRouter::Verdict::kExpired;
  }
  // The boundary really did fall inside the batch.
  EXPECT_TRUE(saw_forward);
  EXPECT_TRUE(saw_expired);
}

TEST(RouterDifferential, VersionRolloverWithinBatch) {
  // A reservation version rolling over 255 -> 0 mid-batch changes the
  // MAC inputs per packet; the pipeline must key each packet by its own
  // version, as the reference does.
  TickClock clk_r(kStart, 1);
  TickClock clk_b(kStart, 1);
  ReferenceRouter rr(kRouterAs, key_of(1), clk_r);
  BorderRouter rb(kRouterAs, key_of(1), clk_b, nullptr);
  const crypto::Aes128 key(key_of(1).bytes.data());

  PacketBatch batch;
  std::vector<FastPacket> pkts;
  for (int i = 0; i < 16; ++i) {
    const ResVer version = i < 8 ? 255 : 0;
    FastPacket p = make_eer(kSrcAs, 70, 100'000, kExp, version, 1, 100,
                            PacketTimestamp::encode(kStart + i * 1000, kExp));
    sign_hop(key, p);
    pkts.push_back(p);
    batch.push(p);
  }
  std::array<BorderRouter::Verdict, 16> vr, vb;
  for (size_t i = 0; i < pkts.size(); ++i) vr[i] = rr.process(pkts[i]);
  rb.process_batch(batch, vb.data());
  for (size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(vr[i], vb[i]) << i;
    EXPECT_EQ(BorderRouter::Verdict::kForward, vb[i]) << i;
  }
}

// --- gateway differential ------------------------------------------------

std::vector<topology::Hop> test_path() {
  return {{kSrcAs, kNoInterface, 1}, {kRouterAs, 2, 3}, {AsId{1, 30}, 4, kNoInterface}};
}

std::vector<HopAuth> test_sigmas(const proto::ResInfo& ri,
                                 const proto::EerInfo& ei) {
  std::vector<HopAuth> sigmas;
  std::uint8_t seed = 1;
  for (const auto& hop : test_path()) {
    const crypto::Aes128 cipher(key_of(seed++).bytes.data());
    sigmas.push_back(compute_hopauth(cipher, ri, ei, hop.ingress, hop.egress));
  }
  return sigmas;
}

template <typename GW>
void install_one(GW& gw, ResId id, BwKbps bw, UnixSec exp, ResVer version = 1) {
  const proto::ResInfo ri{kSrcAs, id, bw, exp, version};
  const proto::EerInfo ei{HostAddr::from_u64(id), HostAddr::from_u64(id + 1)};
  ASSERT_TRUE(gw.install(ri, ei, test_path(), test_sigmas(ri, ei)));
}

// ids 1..20 healthy, 30 rate-limits after ~2 KB, 40 already expired.
template <typename GW>
void install_fixture(GW& gw) {
  for (ResId id = 1; id <= 20; ++id) install_one(gw, id, 100'000, kExp);
  install_one(gw, 30, 8, kExp);
  install_one(gw, 40, 100'000, 1);
}

void expect_fast_eq(const FastPacket& a, const FastPacket& b, size_t i) {
  ASSERT_EQ(a.type, b.type) << "packet " << i;
  ASSERT_EQ(a.is_eer, b.is_eer) << "packet " << i;
  ASSERT_EQ(a.num_hops, b.num_hops) << "packet " << i;
  ASSERT_EQ(a.current_hop, b.current_hop) << "packet " << i;
  ASSERT_EQ(a.resinfo, b.resinfo) << "packet " << i;
  ASSERT_EQ(a.eerinfo, b.eerinfo) << "packet " << i;
  ASSERT_EQ(a.timestamp, b.timestamp) << "packet " << i;
  ASSERT_EQ(a.payload_bytes, b.payload_bytes) << "packet " << i;
  for (std::uint8_t h = 0; h < a.num_hops; ++h) {
    ASSERT_EQ(a.ifaces[h].in, b.ifaces[h].in) << "packet " << i << " hop " << +h;
    ASSERT_EQ(a.ifaces[h].eg, b.ifaces[h].eg) << "packet " << i << " hop " << +h;
    ASSERT_EQ(a.hvfs[h], b.hvfs[h]) << "packet " << i << " hop " << +h;
  }
}

void expect_gateway_stats_eq(const GatewayStats& a, const GatewayStats& b) {
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.no_reservation, b.no_reservation);
  EXPECT_EQ(a.rate_limited, b.rate_limited);
  EXPECT_EQ(a.expired, b.expired);
}

// The canonical id stream through the oracle one packet at a time and
// through the pipeline in calls of `batch_size` (1 = process()).
void run_gateway_differential(size_t batch_size, size_t total) {
  SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
  TickClock clk_r(kStart, 1);
  TickClock clk_p(kStart, 1);
  ReferenceGateway gr(kSrcAs, clk_r);
  Gateway gp(kSrcAs, clk_p, {}, nullptr);
  telemetry::FlightRecorder rec_r({1 << 15, /*sample_every=*/5, true});
  telemetry::FlightRecorder rec_p({1 << 15, /*sample_every=*/5, true});
  gr.attach_flight_recorder(&rec_r);
  gp.attach_flight_recorder(&rec_p);
  install_fixture(gr);
  install_fixture(gp);

  // Mixed id stream: healthy, rate-limited, expired, unknown — with
  // repeats inside a batch so duplicate ids drain the bucket in order.
  std::mt19937 rng(777 + static_cast<std::uint32_t>(batch_size));
  std::vector<ResId> ids(total);
  std::vector<std::uint32_t> pls(total);
  for (size_t i = 0; i < total; ++i) {
    const std::uint32_t kind = rng() % 100;
    if (kind < 70) {
      ids[i] = 1 + rng() % 20;
    } else if (kind < 80) {
      ids[i] = 30;
    } else if (kind < 85) {
      ids[i] = 40;
    } else {
      ids[i] = 999 + rng() % 4;  // never installed
    }
    pls[i] = rng() % 1400;
  }

  std::vector<FastPacket> out_r(total), out_p(total);
  std::vector<Gateway::Verdict> vr(total), vp(total);
  size_t ok_r = 0;
  for (size_t i = 0; i < total; ++i) {
    vr[i] = gr.process(ids[i], pls[i], out_r[i]);
    if (vr[i] == Gateway::Verdict::kOk) ++ok_r;
  }
  size_t ok_p = 0;
  for (size_t off = 0; off < total; off += batch_size) {
    const size_t n = std::min(batch_size, total - off);
    if (n == 1) {
      vp[off] = gp.process(ids[off], pls[off], out_p[off]);
      ok_p += vp[off] == Gateway::Verdict::kOk;
    } else {
      ok_p += gp.process_batch(ids.data() + off, pls.data() + off, n,
                               out_p.data() + off, vp.data() + off);
    }
  }
  EXPECT_EQ(ok_r, ok_p);

  std::array<bool, Gateway::kNumVerdicts> seen{};
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(vr[i], vp[i]) << "packet " << i;
    if (vr[i] == Gateway::Verdict::kOk) expect_fast_eq(out_r[i], out_p[i], i);
    seen[static_cast<size_t>(vr[i])] = true;
  }
  for (size_t v = 0; v < Gateway::kNumVerdicts; ++v) {
    EXPECT_TRUE(seen[v]) << "verdict " << v << " never occurred";
  }

  expect_gateway_stats_eq(gr.snapshot(), gp.snapshot());
  expect_records_eq(rec_r, rec_p);
}

TEST(GatewayDifferential, ParityAcrossBatchSizes) {
  // 200 > 64 crosses the pipeline's internal chunking.
  for (size_t bs : {size_t{1}, size_t{3}, size_t{64}, size_t{200}}) {
    run_gateway_differential(bs, 4'000);
  }
}

// --- sharded gateway -----------------------------------------------------

TEST(ShardedGatewayTest, MatchesSingleGatewayByteForByte) {
  SimClock clock(kStart);
  Gateway single(kSrcAs, clock, {}, nullptr);
  ShardedGateway sharded(kSrcAs, clock, 4, {}, nullptr);
  install_fixture(single);
  install_fixture(sharded);
  EXPECT_EQ(single.reservation_count(), sharded.reservation_count());

  std::mt19937 rng(42);
  constexpr size_t kN = 2'000;
  std::vector<ResId> ids(kN);
  std::vector<std::uint32_t> pls(kN);
  for (size_t i = 0; i < kN; ++i) {
    ids[i] = (rng() % 100 < 85) ? 1 + rng() % 20 : 999;
    pls[i] = rng() % 800;
  }

  std::vector<FastPacket> out_s(kN), out_m(kN);
  std::vector<Gateway::Verdict> vs(kN), vm(kN);
  size_t ok_s = 0;
  for (size_t i = 0; i < kN; ++i) {
    vs[i] = single.process(ids[i], pls[i], out_s[i]);
    if (vs[i] == Gateway::Verdict::kOk) ++ok_s;
  }
  size_t ok_m = 0;
  constexpr size_t kStride = 96;  // crosses the internal 64-chunk boundary
  for (size_t off = 0; off < kN; off += kStride) {
    const size_t n = std::min(kStride, kN - off);
    ok_m += sharded.process_batch(ids.data() + off, pls.data() + off, n,
                                  out_m.data() + off, vm.data() + off);
  }
  EXPECT_EQ(ok_s, ok_m);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(vs[i], vm[i]) << i;
    if (vs[i] == Gateway::Verdict::kOk) expect_fast_eq(out_s[i], out_m[i], i);
  }
  expect_gateway_stats_eq(single.snapshot(), sharded.snapshot());
}

TEST(ShardedGatewayTest, ShardRoutingIsStableAndCoversAllShards) {
  // Routing depends only on (id, count): recomputing yields the same
  // shard, and a healthy spread uses every shard.
  std::vector<size_t> hits(4, 0);
  for (ResId id = 1; id <= 256; ++id) {
    const size_t s = ShardedGateway::shard_of(id, 4);
    ASSERT_LT(s, 4u);
    ASSERT_EQ(s, ShardedGateway::shard_of(id, 4));
    ++hits[s];
  }
  for (size_t s = 0; s < 4; ++s) EXPECT_GT(hits[s], 0u) << "shard " << s;
}

std::map<ResId, std::uint64_t> bucket_fills(const ShardedGateway& gw) {
  std::map<ResId, std::uint64_t> fills;
  for (size_t s = 0; s < gw.shard_count(); ++s) {
    gw.shard(s).for_each_entry([&](ResId id, const GatewayEntry& e) {
      fills[id] = e.bucket.available_bytes();
    });
  }
  return fills;
}

TEST(ShardedGatewayTest, ResizePreservesEntriesAndBucketFill) {
  SimClock clock(kStart);
  ShardedGateway gw(kSrcAs, clock, 4, {}, nullptr);
  for (ResId id = 1; id <= 32; ++id) install_one(gw, id, 100'000, kExp);

  // Drain some tokens so the fill levels are distinguishable.
  FastPacket out;
  for (ResId id = 1; id <= 32; ++id) {
    for (ResId k = 0; k < id % 5; ++k) {
      ASSERT_EQ(ShardedGateway::Verdict::kOk, gw.process(id, 500, out));
    }
  }
  const auto before = bucket_fills(gw);
  ASSERT_EQ(32u, before.size());

  // Record where each id lives at the original count.
  std::vector<size_t> placement4(33);
  for (ResId id = 1; id <= 32; ++id) placement4[id] = gw.shard_of(id);

  gw.resize(8);
  EXPECT_EQ(8u, gw.shard_count());
  EXPECT_EQ(32u, gw.reservation_count());
  EXPECT_EQ(bucket_fills(gw), before);  // token-bucket fill survives
  // Counters restart from zero after a resize.
  EXPECT_EQ(0u, gw.snapshot().forwarded);
  // Every entry sits in the shard the stable hash names.
  for (size_t s = 0; s < 8; ++s) {
    gw.shard(s).for_each_entry([&](ResId id, const GatewayEntry&) {
      EXPECT_EQ(s, ShardedGateway::shard_of(id, 8)) << "id " << id;
    });
  }

  gw.resize(4);
  EXPECT_EQ(32u, gw.reservation_count());
  EXPECT_EQ(bucket_fills(gw), before);
  // Same count -> identical placement as before the round-trip.
  for (ResId id = 1; id <= 32; ++id) {
    EXPECT_EQ(placement4[id], gw.shard_of(id)) << "id " << id;
  }
  // Still fully operational.
  EXPECT_EQ(ShardedGateway::Verdict::kOk, gw.process(1, 100, out));
}

TEST(ShardedRuntimeTest, DrainsEverySubmittedRequest) {
  SimClock clock(kStart);
  ShardedGateway gw(kSrcAs, clock, 4, {}, nullptr);
  for (ResId id = 1; id <= 64; ++id) install_one(gw, id, 4'000'000, kExp);

  ShardedGatewayRuntime rt(gw, /*ring_capacity=*/256);
  EXPECT_EQ(4u, rt.shard_count());
  rt.start();
  EXPECT_TRUE(rt.running());

  constexpr size_t kN = 20'000;
  std::mt19937 rng(5);
  for (size_t i = 0; i < kN; ++i) {
    const ResId id = 1 + rng() % 80;  // ids 65..80 are never installed
    while (!rt.submit(id, 100)) std::this_thread::yield();
  }
  rt.drain();
  EXPECT_TRUE(rt.idle());

  std::uint64_t processed = 0, ok = 0;
  for (size_t s = 0; s < rt.shard_count(); ++s) {
    const auto ws = rt.worker_stats(s);
    processed += ws.processed;
    ok += ws.ok;
    EXPECT_GT(ws.batches, 0u) << "shard " << s;
  }
  EXPECT_EQ(kN, processed);
  const GatewayStats stats = gw.snapshot();
  EXPECT_EQ(ok, stats.forwarded);
  EXPECT_EQ(kN, stats.forwarded + stats.no_reservation + stats.rate_limited +
                    stats.expired);

  rt.stop();
  EXPECT_FALSE(rt.running());
  rt.stop();  // idempotent
}

TEST(ShardedRuntimeTest, HealthSurfaceCountsSubmissionsAndRejections) {
  SimClock clock(kStart);
  telemetry::MetricsRegistry registry;
  ShardedGateway gw(kSrcAs, clock, 2, {}, nullptr);
  for (ResId id = 1; id <= 16; ++id) install_one(gw, id, 4'000'000, kExp);

  ShardedGatewayRuntime rt(gw, /*ring_capacity=*/8, &registry);
  rt.start();
  constexpr size_t kN = 5'000;
  std::uint64_t accepted = 0, bounced = 0;
  std::mt19937 rng(7);
  for (size_t i = 0; i < kN; ++i) {
    const ResId id = 1 + rng() % 20;  // ids 17..20 are never installed
    if (rt.submit(id, 100)) {
      ++accepted;
    } else {
      ++bounced;  // tiny ring: backpressure is expected
      std::this_thread::yield();
    }
  }
  rt.drain();

  std::uint64_t submitted = 0, processed = 0, rejected = 0;
  for (size_t s = 0; s < rt.shard_count(); ++s) {
    const auto h = rt.shard_health(s);
    submitted += h.submitted;
    processed += h.processed;
    rejected += h.rejected;
    EXPECT_EQ(h.ring_depth, 0u) << "shard " << s;  // drained
    EXPECT_LE(h.high_watermark, 8u) << "shard " << s;
    EXPECT_GT(h.heartbeats, 0u) << "shard " << s;
  }
  EXPECT_EQ(submitted, accepted);
  EXPECT_EQ(processed, accepted);
  EXPECT_EQ(rejected, bounced);

  // Live workers are never reported stalled: the first call only
  // baselines the heartbeats, later calls see them advancing.
  (void)rt.check_stalls();
  EXPECT_TRUE(rt.check_stalls().empty());

  // The registry export carries the per-shard health series.
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("gateway_runtime.shard.count"), 2);
  EXPECT_EQ(snap.counters.at("gateway_runtime.shard.0.submitted") +
                snap.counters.at("gateway_runtime.shard.1.submitted"),
            accepted);
  EXPECT_EQ(snap.counters.at("gateway_runtime.shard.0.rejected") +
                snap.counters.at("gateway_runtime.shard.1.rejected"),
            bounced);
  EXPECT_EQ(snap.gauges.at("gateway_runtime.shard.0.ring_depth"), 0);
  EXPECT_GT(snap.counters.at("gateway_runtime.shard.0.heartbeats"), 0u);
  rt.stop();
}

TEST(ShardedRuntimeTest, StallDetectorFlagsBackloggedShardWithFrozenWorker) {
  SimClock clock(kStart);
  ShardedGateway gw(kSrcAs, clock, 2, {}, nullptr);
  install_one(gw, 1, 4'000'000, kExp);

  ShardedGatewayRuntime rt(gw, /*ring_capacity=*/16);
  // Workers never started: submissions queue up and heartbeats stay
  // frozen — indistinguishable from a wedged worker, which is exactly
  // what the detector must flag.
  const size_t target = ShardedGateway::shard_of(1, 2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(rt.submit(1, 100));
  EXPECT_EQ(rt.shard_health(target).ring_depth, 4u);

  EXPECT_TRUE(rt.check_stalls().empty());  // first call: baseline only
  const std::vector<size_t> stalled = rt.check_stalls();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], target);

  // Once the workers run and clear the backlog, the verdict clears too.
  rt.start();
  rt.drain();
  (void)rt.check_stalls();
  EXPECT_TRUE(rt.check_stalls().empty());
  rt.stop();
}

// --- SPSC ring -----------------------------------------------------------

TEST(SpscRingTest, FifoOrderAndWraparound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(4u, ring.capacity());
  EXPECT_TRUE(ring.empty());

  // Fill, overflow is rejected.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(4u, ring.size());

  // Partial drain, refill across the wrap point, drain in order.
  int v = -1;
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(0, v);
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(1, v);
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_TRUE(ring.try_push(5));
  for (int want = 2; want <= 5; ++want) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(want, v);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(0u, ring.size());
}

TEST(SpscRingTest, BurstsRoundTrip) {
  SpscRing<int> ring(8);
  int in[6] = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(6u, ring.push_burst(in, 6));
  EXPECT_EQ(2u, ring.push_burst(in, 6));  // only 2 slots left
  int out[8] = {};
  EXPECT_EQ(8u, ring.pop_burst(out, 8));
  EXPECT_EQ(10, out[0]);
  EXPECT_EQ(15, out[5]);
  EXPECT_EQ(10, out[6]);  // wrapped refill came from the same source
  EXPECT_EQ(0u, ring.pop_burst(out, 8));
}

TEST(SpscRingTest, TwoThreadStressKeepsOrderAndLosesNothing) {
  SpscRing<std::uint32_t> ring(64);
  constexpr std::uint32_t kN = 200'000;
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kN; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint32_t expect_next = 0;
  std::uint32_t buf[32];
  while (expect_next < kN) {
    const size_t m = ring.pop_burst(buf, 32);
    if (m == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(expect_next, buf[i]);
      ++expect_next;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- batch ingest --------------------------------------------------------

proto::Packet sample_wire_packet(size_t hops) {
  proto::Packet pkt;
  pkt.type = proto::PacketType::kData;
  pkt.is_eer = true;
  pkt.current_hop = 1;
  pkt.resinfo = {kSrcAs, 77, 100'000, kExp, 3};
  pkt.eerinfo = {HostAddr::from_u64(0x1111), HostAddr::from_u64(0x2222)};
  pkt.timestamp = 0xDEADBEEF;
  pkt.path.resize(hops);
  pkt.hvfs.resize(hops);
  for (size_t i = 0; i < hops; ++i) {
    pkt.path[i] = {AsId{1, 10 + i}, static_cast<IfId>(i),
                   static_cast<IfId>(i + 1)};
    pkt.hvfs[i] = {static_cast<std::uint8_t>(i), 2, 3, 4};
  }
  pkt.payload.assign(48, 0xAB);
  return pkt;
}

TEST(BatchIngestTest, RoundTripsDecodableFrames) {
  const proto::Packet pkt = sample_wire_packet(3);
  const Bytes frame = proto::encode_packet(pkt);
  PacketBatch batch;
  ASSERT_TRUE(batch_ingest(frame, batch));
  ASSERT_EQ(1u, batch.size);
  expect_fast_eq(batch[0], to_fast(pkt), 0);
}

TEST(BatchIngestTest, RejectsTruncatedOversizedAndFullBatch) {
  const Bytes frame = proto::encode_packet(sample_wire_packet(3));
  PacketBatch batch;

  // Truncation anywhere must leave the batch unchanged.
  for (size_t cut : {size_t{1}, size_t{8}, frame.size() - 1}) {
    EXPECT_FALSE(batch_ingest(BytesView(frame.data(), frame.size() - cut),
                              batch));
    EXPECT_EQ(0u, batch.size);
  }
  EXPECT_FALSE(batch_ingest(BytesView(frame.data(), 0), batch));

  // More hops than FastPacket can hold: parseable but not ingestable.
  const Bytes big = proto::encode_packet(sample_wire_packet(kMaxHops + 1));
  EXPECT_FALSE(batch_ingest(big, batch));
  EXPECT_EQ(0u, batch.size);

  // A full batch rejects even a valid frame.
  while (!batch.full()) ASSERT_TRUE(batch_ingest(frame, batch));
  EXPECT_FALSE(batch_ingest(frame, batch));
  EXPECT_EQ(PacketBatch::kCapacity, batch.size);
}

// --- telemetry re-export -------------------------------------------------

struct CaptureSink final : telemetry::MetricSink {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  void counter(std::string_view name, std::uint64_t value) override {
    counters[std::string(name)] = value;
  }
  void gauge(std::string_view name, std::int64_t value) override {
    gauges[std::string(name)] = value;
  }
  void histogram(std::string_view,
                 const telemetry::HistogramSnapshot&) override {}
};

TEST(ShardedGatewayTest, ExportsPerShardMetricsUnderPrefixedNames) {
  SimClock clock(kStart);
  ShardedGateway gw(kSrcAs, clock, 2, {}, nullptr);
  install_one(gw, 7, 100'000, kExp);
  FastPacket out;
  ASSERT_EQ(ShardedGateway::Verdict::kOk, gw.process(7, 100, out));

  CaptureSink sink;
  gw.collect_metrics(sink);
  EXPECT_EQ(2, sink.gauges.at("gateway_shard.count"));
  const std::string fwd =
      "gateway_shard." + std::to_string(gw.shard_of(7)) + ".forwarded";
  EXPECT_EQ(1u, sink.counters.at(fwd));
  // Both shards report, including the idle one.
  EXPECT_EQ(1u, sink.counters.count("gateway_shard.0.forwarded"));
  EXPECT_EQ(1u, sink.counters.count("gateway_shard.1.forwarded"));
}

}  // namespace
}  // namespace colibri::dataplane
