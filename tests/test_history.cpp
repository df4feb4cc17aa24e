// Post-mortem forensics (ISSUE 10): the HistoryStore frame codec and
// segment store (rotation, retention, reopen-append), crash-recovery
// property tests over torn tails / bit flips / mid-rotation kills, the
// IncidentRecorder black-box capture (debounce, bundle content,
// same-seed byte-identity), the offline bundle helpers behind
// `colibri_obs incident`, and a concurrent append/query/capture stress
// test meant for the TSan lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/faults.hpp"
#include "colibri/sim/faults.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/history.hpp"
#include "colibri/telemetry/incident.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"
#include "seed_util.hpp"

namespace colibri {
namespace {

using telemetry::AlertCmp;
using telemetry::AlertEngine;
using telemetry::AlertRule;
using telemetry::AlertSignal;
using telemetry::DirectoryHistoryBackend;
using telemetry::EventLog;
using telemetry::HistogramSnapshot;
using telemetry::HistoryCodecState;
using telemetry::HistoryConfig;
using telemetry::HistoryStats;
using telemetry::HistoryStore;
using telemetry::IncidentConfig;
using telemetry::IncidentRecorder;
using telemetry::MemoryHistoryBackend;
using telemetry::MetricsRegistry;
using telemetry::SampleWindow;
using telemetry::WindowedSampler;
using telemetry::WindowedSamplerConfig;

constexpr TimeNs kSec = kNsPerSec;

// A deterministic synthetic window: a handful of series with
// index-derived values, including negative gauge swings (zigzag path)
// and an occasional histogram.
SampleWindow make_window(int i) {
  SampleWindow w;
  w.start_ns = 1'000 * kSec + static_cast<TimeNs>(i) * kSec;
  w.end_ns = w.start_ns + kSec;
  w.counter_deltas["cserv.setup.ok"] = static_cast<std::uint64_t>(3 * i + 1);
  w.counter_deltas["router.forwarded"] = static_cast<std::uint64_t>(i % 7);
  if (i % 3 == 0) w.counter_deltas["rare.series"] = 1;
  w.gauges["db.size"] = 100 - 5 * i;  // goes negative past i = 20
  w.gauges["failover.active"] = i % 2;
  if (i % 4 == 0) {
    HistogramSnapshot h;
    h.count = static_cast<std::uint64_t>(i + 2);
    h.sum = static_cast<std::uint64_t>(1000 * i);
    h.buckets[3] = 1;
    h.buckets[10] = static_cast<std::uint64_t>(i + 1);
    w.histogram_deltas["lat.ns"] = h;
  }
  return w;
}

void expect_window_eq(const SampleWindow& a, const SampleWindow& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.counter_deltas, b.counter_deltas);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histogram_deltas.size(), b.histogram_deltas.size());
  for (const auto& [name, h] : a.histogram_deltas) {
    const auto it = b.histogram_deltas.find(name);
    ASSERT_NE(it, b.histogram_deltas.end()) << name;
    EXPECT_EQ(h.count, it->second.count) << name;
    EXPECT_EQ(h.sum, it->second.sum) << name;
    EXPECT_EQ(h.buckets, it->second.buckets) << name;
  }
}

// --- frame codec -----------------------------------------------------------

TEST(HistoryCodecTest, RoundTripsWindowsAndShrinksDictionaryFrames) {
  HistoryCodecState enc;
  std::vector<Bytes> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(encode_history_frame(make_window(i), enc));

  // First frame carries every series name; later ones only ids.
  EXPECT_LT(frames[1].size(), frames[0].size());

  Bytes log;
  for (const Bytes& f : frames) append_bytes(log, f);
  HistoryCodecState dec;
  std::size_t off = 0;
  for (int i = 0; i < 5; ++i) {
    auto w = decode_history_frame(log, off, dec);
    ASSERT_TRUE(w.has_value()) << "frame " << i;
    expect_window_eq(make_window(i), *w);
  }
  EXPECT_EQ(off, log.size());
}

TEST(HistoryCodecTest, DecodeRejectsTruncationAndBitFlipsWithoutAdvancing) {
  HistoryCodecState enc;
  const Bytes frame = encode_history_frame(make_window(7), enc);

  // Every possible truncation is torn, not misdecoded.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Bytes torn(frame.begin(), frame.begin() + static_cast<long>(cut));
    HistoryCodecState dec;
    std::size_t off = 0;
    EXPECT_FALSE(decode_history_frame(torn, off, dec).has_value()) << cut;
    EXPECT_EQ(off, 0u);
  }
  // A single flipped bit anywhere fails the CRC (or the header checks).
  for (std::size_t byte = 0; byte < frame.size(); byte += 3) {
    Bytes bad = frame;
    bad[byte] ^= 0x10;
    HistoryCodecState dec;
    std::size_t off = 0;
    EXPECT_FALSE(decode_history_frame(bad, off, dec).has_value()) << byte;
    EXPECT_EQ(off, 0u);
  }
}

TEST(HistoryCodecTest, EncodingIsDeterministic) {
  HistoryCodecState a, b;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(encode_history_frame(make_window(i), a),
              encode_history_frame(make_window(i), b));
  }
}

// --- store: append, queries, rotation, retention, reopen -------------------

TEST(HistoryStoreTest, QueriesAgreeWithLiveSampler) {
  SimClock clock(1'000 * kSec);
  MetricsRegistry registry;
  auto& req = registry.counter("svc.requests");
  auto& depth = registry.gauge("svc.depth");
  auto& lat = registry.histogram("svc.lat_ns");

  WindowedSamplerConfig scfg;
  scfg.period_ns = kSec;
  WindowedSampler sampler(registry, clock, scfg);
  MemoryHistoryBackend backend;
  HistoryStore store(backend);

  clock.advance(kSec);
  sampler.poll();  // baseline
  for (int i = 1; i <= 20; ++i) {
    req.inc(static_cast<std::uint64_t>(10 * i));
    depth.set(i);
    lat.record(static_cast<std::uint64_t>(100 * i));
    clock.advance(kSec);
    ASSERT_TRUE(sampler.poll());
    EXPECT_TRUE(store.append_latest(sampler));
    EXPECT_FALSE(store.append_latest(sampler));  // dedupe: same window
  }

  EXPECT_EQ(store.window_count(), 20u);
  EXPECT_EQ(store.counter_delta("svc.requests", 0, HistoryStore::kUntilEnd),
            sampler.counter_delta("svc.requests", WindowedSampler::kSpanAll));
  EXPECT_DOUBLE_EQ(store.rate("svc.requests", 0, HistoryStore::kUntilEnd),
                   sampler.rate("svc.requests", WindowedSampler::kSpanAll));
  EXPECT_EQ(store.gauge_level("svc.depth", 0, HistoryStore::kUntilEnd),
            sampler.gauge_level("svc.depth"));
  const auto p99 = store.percentile("svc.lat_ns", 0.99, 0,
                                    HistoryStore::kUntilEnd);
  ASSERT_TRUE(p99.has_value());
  const auto live_p99 = sampler.windowed_percentile(
      "svc.lat_ns", 0.99, WindowedSampler::kSpanAll);
  ASSERT_TRUE(live_p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, *live_p99);

  // Absolute sub-spans: only the overlapping windows contribute.
  const TimeNs t0 = 1'001 * kSec;
  EXPECT_EQ(store.counter_delta("svc.requests", t0, t0 + 5 * kSec),
            10u + 20u + 30u + 40u + 50u);
}

// Every span query reads the same half-open [since, until): a window
// ending at `since` or starting at `until` is outside the span, gauges
// included.
TEST(HistoryStoreTest, GaugeLevelUsesTheHalfOpenSpanOfEveryQuery) {
  MemoryHistoryBackend backend;
  HistoryStore store(backend);
  SampleWindow a, b;
  a.start_ns = 0;
  a.end_ns = 10;
  a.gauges["g"] = 1;
  a.counter_deltas["c"] = 3;
  b.start_ns = 10;
  b.end_ns = 20;
  b.gauges["g"] = 2;
  b.counter_deltas["c"] = 4;
  store.append(a);
  store.append(b);

  EXPECT_EQ(store.gauge_level("g", 0, 10), 1);
  EXPECT_EQ(store.gauge_level("g", 10, 20), 2);
  EXPECT_EQ(store.gauge_level("g", 0, 20), 2);
  EXPECT_EQ(store.gauge_level("g", 20, 30), std::nullopt);
  EXPECT_EQ(store.counter_delta("c", 0, 10), 3u);
  EXPECT_EQ(store.counter_delta("c", 10, 20), 4u);
  EXPECT_EQ(store.counter_delta("c", 0, 10) + store.counter_delta("c", 10, 20),
            store.counter_delta("c", 0, 20));
}

TEST(HistoryStoreTest, RotatesBySizeAndCompactsByCount) {
  MemoryHistoryBackend backend;
  HistoryConfig cfg;
  cfg.max_segment_bytes = 256;  // a handful of frames per segment
  cfg.max_segments = 3;
  HistoryStore store(backend, cfg);
  for (int i = 0; i < 60; ++i) store.append(make_window(i));

  const HistoryStats st = store.stats();
  EXPECT_GT(st.rotations, 0u);
  EXPECT_GT(st.segments_dropped, 0u);
  EXPECT_LE(store.segment_count(), 3u);
  EXPECT_LE(backend.segments().size(), 3u);
  // The newest windows survive compaction and stay queryable.
  const auto ws = store.windows();
  ASSERT_FALSE(ws.empty());
  EXPECT_EQ(ws.back().end_ns, make_window(59).end_ns);
  EXPECT_EQ(store.counter_delta("cserv.setup.ok", ws.back().start_ns,
                                HistoryStore::kUntilEnd),
            3u * 59 + 1);
}

TEST(HistoryStoreTest, RotatesByAgeAndAppliesTimeRetention) {
  MemoryHistoryBackend backend;
  HistoryConfig cfg;
  cfg.max_segment_age_ns = 4 * kSec;  // 1 s windows: ~4 per segment
  cfg.max_segments = 0;
  cfg.retention_ns = 10 * kSec;
  HistoryStore store(backend, cfg);
  for (int i = 0; i < 30; ++i) store.append(make_window(i));

  EXPECT_GT(store.stats().rotations, 2u);
  EXPECT_GT(store.stats().segments_dropped, 0u);
  // Nothing older than retention_ns before the newest window remains.
  const TimeNs newest = make_window(29).end_ns;
  const auto ws = store.windows();
  ASSERT_FALSE(ws.empty());
  for (const auto& w : ws) EXPECT_GE(w.end_ns, newest - 20 * kSec);
}

TEST(HistoryStoreTest, ReopenRecoversSealsAndAppendsFreshSegment) {
  MemoryHistoryBackend backend;
  HistoryConfig cfg;
  cfg.max_segment_bytes = 512;
  {
    HistoryStore store(backend, cfg);
    for (int i = 0; i < 10; ++i) store.append(make_window(i));
  }
  const std::size_t segments_before = backend.segments().size();

  HistoryStore reopened(backend, cfg);
  EXPECT_EQ(reopened.stats().frames_recovered, 10u);
  EXPECT_EQ(reopened.stats().corrupt_segments, 0u);
  EXPECT_EQ(reopened.window_count(), 10u);

  // Appends land in a *new* segment — never in a possibly-torn tail.
  reopened.append(make_window(10));
  EXPECT_EQ(backend.segments().size(), segments_before + 1);
  EXPECT_EQ(reopened.window_count(), 11u);
  // append_latest-style dedupe also spans the reopen: stale windows
  // (end <= newest recovered end) are the caller's to skip, but the
  // queries must see one continuous series.
  EXPECT_EQ(reopened.counter_delta("cserv.setup.ok", 0,
                                   HistoryStore::kUntilEnd),
            [&] {
              std::uint64_t sum = 0;
              for (int i = 0; i <= 10; ++i) sum += 3u * i + 1;
              return sum;
            }());

  // A second reopen recovers the same state (recovery is idempotent).
  HistoryStore again(backend, cfg);
  EXPECT_EQ(again.window_count(), 11u);
}

TEST(HistoryStoreTest, SameWindowsProduceByteIdenticalSegments) {
  MemoryHistoryBackend a, b;
  HistoryConfig cfg;
  cfg.max_segment_bytes = 300;
  {
    HistoryStore sa(a, cfg), sb(b, cfg);
    for (int i = 0; i < 25; ++i) {
      sa.append(make_window(i));
      sb.append(make_window(i));
    }
  }
  const auto names = a.segments();
  ASSERT_EQ(names, b.segments());
  for (const auto& n : names) {
    EXPECT_EQ(a.segment(n)->raw(), b.segment(n)->raw()) << n;
  }
}

// --- crash-recovery property tests -----------------------------------------

// Frame end-offsets of one segment, decoded with a fresh codec state —
// the "records_before" ruler the WAL property tests use.
std::vector<std::size_t> frame_ends(const Bytes& raw) {
  std::vector<std::size_t> ends;
  HistoryCodecState st;
  std::size_t off = 0;
  while (decode_history_frame(raw, off, st).has_value()) ends.push_back(off);
  return ends;
}

TEST(HistoryRecoveryPropertyTest, TornTailsBitFlipsAndKilledSegments) {
  const std::uint64_t seed = testing::test_seed(0x4157041AULL);
  COLIBRI_SEED_TRACE(seed);
  std::mt19937_64 rng(seed);

  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    MemoryHistoryBackend backend;
    HistoryConfig cfg;
    cfg.max_segment_bytes = 64 + rng() % 1024;  // force mid-run rotations
    cfg.max_segments = 0;
    const int n = 4 + static_cast<int>(rng() % 50);
    std::vector<SampleWindow> appended;
    {
      HistoryStore store(backend, cfg);
      for (int i = 0; i < n; ++i) {
        appended.push_back(make_window(i));
        store.append(appended.back());
      }
    }

    const auto segs = backend.segments();
    ASSERT_FALSE(segs.empty());
    const std::string victim = segs.back();  // the segment a crash tears
    Bytes& raw = backend.segment(victim)->raw();
    const std::vector<std::size_t> ends = frame_ends(raw);
    const std::size_t victim_frames = ends.size();

    std::size_t damage_off = raw.size();
    switch (rng() % 3) {
      case 0: {  // torn tail: crash mid-append
        damage_off = rng() % raw.size();
        raw.resize(damage_off);
        break;
      }
      case 1: {  // flipped bit: media corruption
        damage_off = rng() % raw.size();
        raw[damage_off] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      }
      case 2: {  // killed mid-rotation: the fresh segment never made it
        damage_off = 0;
        raw.clear();
        break;
      }
    }
    // Every frame fully written before the damage point must survive.
    const std::size_t must_survive = static_cast<std::size_t>(
        std::count_if(ends.begin(), ends.end(),
                      [&](std::size_t e) { return e <= damage_off; }));

    HistoryStore recovered(backend, cfg);
    const std::size_t total = recovered.window_count();
    const std::size_t earlier = appended.size() - victim_frames;
    ASSERT_GE(total, earlier + must_survive);
    ASSERT_LE(total, appended.size());
    // ...and what survives is a *prefix* of what was appended, intact.
    const auto ws = recovered.windows();
    ASSERT_EQ(ws.size(), total);
    for (std::size_t i = 0; i < total; ++i) expect_window_eq(appended[i], ws[i]);

    // The recovered store accepts appends and folds them into queries.
    HistoryStore* store = &recovered;
    store->append(make_window(n));
    EXPECT_EQ(store->window_count(), total + 1);
    EXPECT_EQ(store->windows().back().end_ns, make_window(n).end_ns);
  }
}

// The same tears driven through the reservation WAL's fault machinery:
// a backend whose storages are wrapped in sim::FaultyStorage, with the
// injector arming the fault — the exact decorator the chaos harness
// uses on the reservation WAL.
class FaultyHistoryBackend : public MemoryHistoryBackend {
 public:
  explicit FaultyHistoryBackend(FaultInjector& inj) : inj_(&inj) {}

  reservation::LogStorage& open(const std::string& name) override {
    reservation::LogStorage& inner = MemoryHistoryBackend::open(name);
    auto it = wrapped_.find(name);
    if (it == wrapped_.end()) {
      it = wrapped_
               .emplace(name,
                        std::make_unique<sim::FaultyStorage>(inner, *inj_))
               .first;
    }
    return *it->second;
  }

  std::uint64_t faulted() const {
    std::uint64_t n = 0;
    for (const auto& [_, s] : wrapped_) n += s->faulted();
    return n;
  }

 private:
  FaultInjector* inj_;
  std::map<std::string, std::unique_ptr<sim::FaultyStorage>> wrapped_;
};

TEST(HistoryRecoveryPropertyTest, InjectedAppendFaultsLoseOnlyTheTail) {
  const std::uint64_t seed = testing::test_seed(0xFA17C0DEULL);
  COLIBRI_SEED_TRACE(seed);
  std::mt19937_64 rng(seed);

  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SimClock clock;
    FaultInjector inj(clock, seed ^ static_cast<std::uint64_t>(trial));
    FaultyHistoryBackend backend(inj);
    HistoryConfig cfg;
    cfg.max_segments = 0;  // single segment: the fault defines the tail
    cfg.max_segment_bytes = 1 << 20;

    const int n = 6 + static_cast<int>(rng() % 20);
    const int victim = 1 + static_cast<int>(rng() % (n - 1));
    const bool tear = (rng() % 2) == 0;
    {
      HistoryStore store(backend, cfg);
      for (int i = 0; i < n; ++i) {
        if (i == victim) {
          inj.arm_wal_fault(tear ? WalFaultKind::kTear
                                 : WalFaultKind::kDropAppend,
                            rng());
        }
        store.append(make_window(i));
      }
    }
    EXPECT_EQ(backend.faulted(), 1u);

    // A dropped append leaves later frames intact; a tear poisons the
    // byte stream, so recovery stops at the damage. Either way every
    // frame before the faulted one survives bit-exact.
    HistoryStore recovered(backend, cfg);
    const auto ws = recovered.windows();
    ASSERT_GE(ws.size(), static_cast<std::size_t>(victim));
    for (int i = 0; i < victim; ++i) {
      expect_window_eq(make_window(i), ws[static_cast<std::size_t>(i)]);
    }
    if (tear) {
      EXPECT_EQ(ws.size(), static_cast<std::size_t>(victim));
      EXPECT_EQ(recovered.stats().corrupt_segments, 1u);
      EXPECT_GT(recovered.stats().discarded_bytes, 0u);
    }
  }
}

// --- incident recorder -----------------------------------------------------

struct IncidentRig {
  SimClock clock{100 * kSec};
  MetricsRegistry registry;
  EventLog events{clock};
  WindowedSampler sampler;
  AlertEngine engine;

  explicit IncidentRig()
      : sampler(registry, clock,
                [] {
                  WindowedSamplerConfig cfg;
                  cfg.period_ns = kSec;
                  return cfg;
                }()),
        engine(sampler, clock, &events) {
    AlertRule r;
    r.name = "test.gauge-high";
    r.series = "test.level";
    r.signal = AlertSignal::kGauge;
    r.cmp = AlertCmp::kAbove;
    r.threshold = 0;
    r.severity = telemetry::Severity::kError;
    engine.add_rule(r);
  }

  void step() {
    clock.advance(kSec);
    sampler.poll();
    engine.evaluate();
  }
};

TEST(IncidentRecorderTest, FiringEdgeCapturesABundleNamingTheRule) {
  IncidentRig rig;
  IncidentRecorder rec(rig.engine);
  rec.set_event_log(&rig.events);
  rec.set_sampler(&rig.sampler);
  rec.add_section("note", [] { return std::string("\"hello\""); });

  auto& g = rig.registry.gauge("test.level");
  rig.step();  // baseline
  rig.step();  // first window, gauge 0: inactive
  EXPECT_EQ(rec.bundle_count(), 0u);

  rig.events.emit(telemetry::Severity::kInfo, "test", "something.happened")
      .u64("k", 42);
  g.set(5);
  rig.step();  // gauge 5 sampled -> rule fires -> bundle
  ASSERT_EQ(rec.bundle_count(), 1u);
  const auto bundles = rec.bundles();
  EXPECT_EQ(bundles[0].rule, "test.gauge-high");
  EXPECT_EQ(bundles[0].time_ns, rig.clock.now_ns());
  const std::string& json = bundles[0].json;
  EXPECT_NE(json.find("\"rule\":\"test.gauge-high\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"colibri.incident.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("something.happened"), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"note\""), std::string::npos);
  // Events are serialized without their process-global seq.
  EXPECT_EQ(json.find("\"seq\""), std::string::npos);

  // The resolved edge is recorded but opens no bundle.
  g.set(0);
  rig.step();
  EXPECT_EQ(rec.bundle_count(), 1u);
}

// An incident window exports an overflow-bucket percentile as the
// bucket bound saturated at INT64_MAX (the field is i64).
TEST(IncidentRecorderTest, OverflowBucketPercentileSaturatesInTheWindow) {
  IncidentRig rig;
  IncidentRecorder rec(rig.engine);
  rec.set_sampler(&rig.sampler);
  auto& h = rig.registry.histogram("test.huge_ns");
  rig.step();  // baseline
  h.record(UINT64_MAX);
  rig.registry.gauge("test.level").set(5);
  rig.step();  // the rule fires on the first window
  ASSERT_EQ(rec.bundle_count(), 1u);
  EXPECT_NE(rec.bundles()[0].json.find(
                R"("test.huge_ns":{"count":1,"sum":18446744073709551615,)"
                R"("p50":9223372036854775807,"p99":9223372036854775807})"),
            std::string::npos)
      << rec.bundles()[0].json;
}

TEST(IncidentRecorderTest, DebounceFoldsAStormIntoOneBundle) {
  IncidentRig rig;
  // A second rule on the same gauge: both fire on the same evaluate.
  AlertRule r2;
  r2.name = "test.gauge-high-too";
  r2.series = "test.level";
  r2.signal = AlertSignal::kGauge;
  r2.cmp = AlertCmp::kAbove;
  r2.threshold = 1;
  rig.engine.add_rule(r2);

  IncidentConfig icfg;
  icfg.debounce_ns = 30 * kSec;
  IncidentRecorder rec(rig.engine, icfg);

  auto& g = rig.registry.gauge("test.level");
  rig.step();
  rig.step();
  g.set(5);
  rig.step();  // both rules fire: one bundle, one suppressed
  EXPECT_EQ(rec.bundle_count(), 1u);
  EXPECT_EQ(rec.suppressed_total(), 1u);

  // Re-fire inside the window: still suppressed.
  g.set(0);
  rig.step();
  g.set(5);
  rig.step();
  EXPECT_EQ(rec.bundle_count(), 1u);
  EXPECT_EQ(rec.suppressed_total(), 3u);  // both rules again

  // Past the window the next edge opens a bundle that lists them.
  g.set(0);
  rig.step();
  for (int i = 0; i < 30; ++i) rig.step();
  g.set(5);
  rig.step();
  ASSERT_EQ(rec.bundle_count(), 2u);
  const std::string json = rec.bundles()[1].json;
  EXPECT_NE(json.find("\"suppressed\": [{"), std::string::npos);
  EXPECT_NE(json.find("test.gauge-high-too"), std::string::npos);
}

TEST(IncidentRecorderTest, SameSeedRunsProduceByteIdenticalBundles) {
  const auto run_once = [] {
    IncidentRig rig;
    IncidentRecorder rec(rig.engine);
    rec.set_event_log(&rig.events);
    rec.set_sampler(&rig.sampler);
    auto& g = rig.registry.gauge("test.level");
    auto& c = rig.registry.counter("test.work");
    rig.step();
    for (int i = 0; i < 5; ++i) {
      c.inc(static_cast<std::uint64_t>(7 * i));
      rig.events.emit(telemetry::Severity::kInfo, "test", "tick")
          .u64("i", static_cast<std::uint64_t>(i));
      rig.step();
    }
    g.set(3);
    rig.step();
    std::vector<std::string> out;
    for (const auto& b : rec.bundles()) out.push_back(b.json);
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();  // same process: event seqs differ, bundles not
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a, b);
}

// --- offline helpers (colibri_obs incident) --------------------------------

TEST(IncidentOfflineTest, MissingDirectoryListsEmptyAndDiffIsLineBased) {
  EXPECT_TRUE(
      telemetry::list_incident_bundles("/nonexistent/colibri-forensics")
          .empty());
  EXPECT_EQ(telemetry::diff_incident_bundles("a\nb\n", "a\nb\n"), "");
  const std::string d = telemetry::diff_incident_bundles("a\nb\n", "a\nc\n");
  EXPECT_NE(d.find("- b"), std::string::npos);
  EXPECT_NE(d.find("+ c"), std::string::npos);
}

TEST(IncidentOfflineTest, WrittenBundlesRoundTripThroughTheListing) {
  const std::string dir =
      ::testing::TempDir() + "colibri_incident_offline_test";
  std::filesystem::remove_all(dir);

  IncidentRig rig;
  IncidentRecorder rec(rig.engine);
  rec.set_directory(dir);
  auto& g = rig.registry.gauge("test.level");
  rig.step();
  rig.step();
  g.set(2);
  rig.step();
  ASSERT_EQ(rec.bundle_count(), 1u);

  const auto infos = telemetry::list_incident_bundles(dir);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].id, 0u);
  EXPECT_EQ(infos[0].rule, "test.gauge-high");
  EXPECT_EQ(infos[0].time_ns, rec.bundles()[0].time_ns);
  std::filesystem::remove_all(dir);
}

TEST(IncidentOfflineTest, ListingUnescapesTheTriggerRule) {
  const std::string dir =
      ::testing::TempDir() + "colibri_incident_rule_escape_test";
  std::filesystem::remove_all(dir);

  IncidentRig rig;
  AlertRule r;
  r.name = "a\"b\\c";
  r.series = "test.other";
  r.signal = AlertSignal::kGauge;
  r.cmp = AlertCmp::kAbove;
  r.threshold = 0;
  rig.engine.add_rule(r);
  IncidentRecorder rec(rig.engine);
  rec.set_directory(dir);
  auto& g = rig.registry.gauge("test.other");
  rig.step();
  rig.step();
  g.set(1);
  rig.step();
  ASSERT_EQ(rec.bundle_count(), 1u);

  const auto infos = telemetry::list_incident_bundles(dir);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].rule, "a\"b\\c");
  EXPECT_EQ(infos[0].id, 0u);
  EXPECT_EQ(infos[0].time_ns, rec.bundles()[0].time_ns);
  std::filesystem::remove_all(dir);
}

TEST(IncidentOfflineTest, UnparsableBundleListsWithZeroIdAndEmptyRule) {
  const std::string dir =
      ::testing::TempDir() + "colibri_incident_unparsable_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const char* name, const std::string& text) {
    std::ofstream(std::filesystem::path(dir) / name, std::ios::binary)
        << text;
  };
  write("incident-000001.json", "not json {\"");
  write("incident-000002.json", "");
  write("incident-000003.json", "{\n\"schema\": \"colibri.incident.v1\",\n");

  const auto infos = telemetry::list_incident_bundles(dir);
  ASSERT_EQ(infos.size(), 3u);
  for (const auto& info : infos) {
    EXPECT_EQ(info.id, 0u) << info.path;
    EXPECT_EQ(info.time_ns, 0) << info.path;
    EXPECT_EQ(info.rule, "") << info.path;
  }
  EXPECT_NE(infos[2].path.find("incident-000003.json"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- concurrent stress (TSan lane) -----------------------------------------

TEST(HistoryIncidentStressTest, ConcurrentAppendQueryAndCapture) {
  MemoryHistoryBackend backend;
  HistoryConfig cfg;
  cfg.max_segment_bytes = 2048;
  cfg.max_segments = 8;
  HistoryStore store(backend, cfg);

  IncidentRig rig;
  IncidentRecorder rec(rig.engine);
  rec.set_sampler(&rig.sampler);
  auto& g = rig.registry.gauge("test.level");
  auto& c = rig.registry.counter("test.work");

  constexpr int kWindows = 400;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kWindows; ++i) store.append(make_window(i));
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::uint64_t sink = 0;
      while (!done.load(std::memory_order_acquire)) {
        sink += store.counter_delta("cserv.setup.ok", 0,
                                    HistoryStore::kUntilEnd);
        sink += store.window_count() + store.segment_count();
        sink += store.stats().frames_appended;
        (void)store.windows(1'000 * kSec, 1'010 * kSec);
      }
      EXPECT_GE(sink, 0u);
    });
  }
  // Main thread drives the monitoring loop: windows, evaluations, and
  // alert edges (each one a capture) race the store traffic above.
  for (int i = 0; i < 60; ++i) {
    c.inc(3);
    g.set(i % 10 == 0 ? 1 : 0);
    rig.step();
  }
  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(store.stats().frames_appended, static_cast<std::uint64_t>(kWindows));
  EXPECT_GT(rec.bundle_count(), 0u);
}

}  // namespace
}  // namespace colibri
