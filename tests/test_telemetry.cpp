// Telemetry layer: counter/gauge/histogram semantics, concurrent
// increments, source aggregation, JSON snapshot round-trip, the JSON
// writer and strict reader, span tracing, the stage profiler, the
// Perfetto trace export, and the verdict→Errc mapping used for counter
// names. Ends with a concurrent stress test meant to run under the TSan
// preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/json.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/openmetrics.hpp"
#include "colibri/telemetry/profiler.hpp"
#include "colibri/telemetry/trace.hpp"
#include "colibri/telemetry/trace_assembler.hpp"
#include "colibri/telemetry/trace_export.hpp"

namespace colibri {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::HistogramSnapshot;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;

TEST(CounterTest, IncAndBump) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.bump(8);
  EXPECT_EQ(c.value(), 50u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsFromManyThreads) {
  Counter c;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record_shared(static_cast<std::uint64_t>(t * 1000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, BucketsByPowerOfTwoAndPercentiles) {
  Histogram h;
  h.record(0);      // bucket 0
  h.record(1);      // bucket 1: [1,1]
  h.record(3);      // bucket 2: [2,3]
  h.record(1000);   // bucket 10: [512,1023]
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1004u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  // p100 upper bound covers the largest sample, p0 the smallest bucket.
  EXPECT_GE(s.percentile(1.0), 1000.0);
  EXPECT_EQ(s.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1004.0 / 4.0);
}

TEST(HistogramTest, OverflowLandsInLastBucket) {
  Histogram h;
  h.record(~std::uint64_t{0});
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[telemetry::kHistogramBuckets - 1], 1u);
}

TEST(HistogramTest, MergeIsBucketwise) {
  Histogram a, b;
  a.record(3);
  b.record(3);
  b.record(1000);
  auto sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 3u);
  EXPECT_EQ(sa.buckets[2], 2u);
  EXPECT_EQ(sa.buckets[10], 1u);
}

TEST(RegistryTest, OwnedMetricsAreGetOrCreate) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("x.count");
  Counter& c2 = reg.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.inc(5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("x.count"), 5u);
}

class FakeSource final : public telemetry::MetricsSource {
 public:
  explicit FakeSource(std::uint64_t v) : v_(v) {}
  void collect_metrics(telemetry::MetricSink& sink) const override {
    sink.counter("fake.count", v_);
    sink.gauge("fake.gauge", static_cast<std::int64_t>(v_));
    HistogramSnapshot h;
    h.count = 1;
    h.sum = v_;
    h.buckets[3] = 1;
    sink.histogram("fake.hist", h);
  }

 private:
  std::uint64_t v_;
};

TEST(RegistryTest, SourcesAggregateBySummation) {
  MetricsRegistry reg;
  FakeSource a(10), b(32);
  {
    telemetry::ScopedSource sa(&reg, &a);
    telemetry::ScopedSource sb(&reg, &b);
    EXPECT_EQ(reg.source_count(), 2u);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("fake.count"), 42u);
    EXPECT_EQ(snap.gauges.at("fake.gauge"), 42);
    EXPECT_EQ(snap.histograms.at("fake.hist").count, 2u);
    EXPECT_EQ(snap.histograms.at("fake.hist").buckets[3], 2u);
  }
  EXPECT_EQ(reg.source_count(), 0u);  // ScopedSource detached both
}

// Full strict parse through the telemetry JSON reader: exactly one
// document (plus the one trailing newline the Perfetto export writes).
bool json_parses(std::string_view s) {
  if (!s.empty() && s.back() == '\n') s.remove_suffix(1);
  telemetry::JsonReader r(s);
  r.skip();
  return r.done();
}

TEST(RegistryTest, JsonSnapshotRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.gauge").set(-7);
  reg.histogram("a.lat_ns").record_shared(100);
  reg.histogram("a.lat_ns").record_shared(200);
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.gauge\":-7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.lat_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":300"), std::string::npos) << json;

  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 0u);
  EXPECT_EQ(snap.histograms.at("a.lat_ns").count, 0u);
}

TEST(RegistryTest, JsonEscapesSpecialCharacters) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\nstuff").inc();
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"), std::string::npos)
      << json;
}

// --- JSON writer / reader ---------------------------------------------------

TEST(JsonWriterTest, PlacesCommasAndLayoutWhitespace) {
  telemetry::JsonWriter w;
  w.begin_object().key("a").u64(1).key("b").begin_array();
  w.i64(-2).boolean(true).null().str("x").raw("1.5");
  w.begin_object().end_object().end_array();
  w.layout("\n").key("c").layout(" ").begin_object().key("d").u64(0);
  w.end_object().layout("\n").end_object().layout("\n");
  EXPECT_EQ(w.take(),
            "{\"a\":1,\"b\":[-2,true,null,\"x\",1.5,{}],\n"
            "\"c\": {\"d\":0}\n}\n");

  // Top-level values follow each other without separators (JSON lines).
  telemetry::JsonWriter lines;
  for (int i = 0; i < 2; ++i) {
    lines.begin_array().u64(static_cast<std::uint64_t>(i)).end_array();
    lines.layout("\n");
  }
  EXPECT_EQ(lines.take(), "[0]\n[1]\n");
}

TEST(JsonWriterTest, EveryByteRoundTripsThroughTheReader) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  all += "\xC2\xB5\xE2\x9C\x93\xF0\x9F\x9A\x80";  // 2-, 3- and 4-byte UTF-8
  telemetry::JsonWriter w;
  w.str(all);
  const std::string json = w.take();
  EXPECT_NE(json.find("\\u001f"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u0000"), std::string::npos) << json;
  telemetry::JsonReader r(json);
  EXPECT_EQ(r.str(), all);
  EXPECT_TRUE(r.done());
}

TEST(JsonReaderTest, IntegersCoverTheFullRangeAndNothingBeyond) {
  const auto u = [](std::string_view s) {
    telemetry::JsonReader r(s);
    const std::uint64_t v = r.u64();
    return r.done() ? std::optional<std::uint64_t>(v) : std::nullopt;
  };
  const auto i = [](std::string_view s) {
    telemetry::JsonReader r(s);
    const std::int64_t v = r.i64();
    return r.done() ? std::optional<std::int64_t>(v) : std::nullopt;
  };
  EXPECT_EQ(u("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(u("0"), 0u);
  EXPECT_EQ(u("007"), 7u);  // leading zeros: accepted, as always
  EXPECT_EQ(u("18446744073709551616"), std::nullopt);
  EXPECT_EQ(u("-1"), std::nullopt);
  EXPECT_EQ(u(""), std::nullopt);
  EXPECT_EQ(u("1.5"), std::nullopt);
  EXPECT_EQ(i("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(i("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(i("-0"), 0);
  EXPECT_EQ(i("-9223372036854775809"), std::nullopt);
  EXPECT_EQ(i("9223372036854775808"), std::nullopt);
  EXPECT_EQ(i("-"), std::nullopt);
  EXPECT_EQ(i("- 1"), std::nullopt);
}

TEST(JsonReaderTest, RejectsTrailingBytesTrailingCommasAndDuplicateKeys) {
  const auto parses = [](std::string_view s) {
    telemetry::JsonReader r(s);
    r.skip();
    return r.done();
  };
  EXPECT_TRUE(parses("{\"a\":[1,{\"b\":null}],\"c\":\"d\"}"));
  EXPECT_TRUE(parses(" {\n\"a\": 1 ,\t\"b\" :[ ] }"));
  EXPECT_FALSE(parses("{\"a\":1} "));
  EXPECT_FALSE(parses("{\"a\":1}\n"));
  EXPECT_FALSE(parses("{\"a\":1}{}"));
  EXPECT_FALSE(parses("{\"a\":1,}"));
  EXPECT_FALSE(parses("[1,]"));
  EXPECT_FALSE(parses("[,1]"));
  EXPECT_FALSE(parses("{,}"));
  EXPECT_FALSE(parses("{\"a\":}"));  // balanced, but no value
  EXPECT_FALSE(parses("{\"a\" 1}"));
  EXPECT_FALSE(parses("{\"a\":1,\"a\":2}"));
  EXPECT_FALSE(parses("{\"\\u0061\":1,\"a\":2}"));  // same key, escaped
  EXPECT_FALSE(parses("{1:2}"));
  EXPECT_FALSE(parses("[1 2]"));
  EXPECT_FALSE(parses("tru"));
  EXPECT_FALSE(parses("nul"));
  EXPECT_FALSE(parses(""));
  // Duplicate keys are per object, not per document.
  EXPECT_TRUE(parses("{\"a\":{\"a\":1},\"b\":{\"a\":2}}"));
}

TEST(JsonReaderTest, SkipsUnknownValuesOfEveryType) {
  telemetry::JsonReader r(
      "{\"f\":-1.25e+3,\"g\":1E9,\"big\":123456789012345678901234567890,"
      "\"t\":true,\"n\":null,\"o\":{\"x\":[false,\"s\"]},\"want\":7}");
  r.begin_object();
  std::string key;
  std::uint64_t want = 0;
  while (r.next_key(key)) {
    if (key == "want") {
      want = r.u64();
    } else {
      r.skip();
    }
  }
  EXPECT_TRUE(r.done());
  EXPECT_EQ(want, 7u);

  for (const char* bad : {"1.", "1e", "-", ".5", "1e+"}) {
    telemetry::JsonReader b(bad);
    b.skip();
    EXPECT_FALSE(b.done()) << bad;
  }
}

TEST(JsonReaderTest, StringsDecodeEscapesAndRejectInvalidUtf8) {
  const auto str = [](std::string_view s) {
    telemetry::JsonReader r(s);
    std::string v = r.str();
    return r.done() ? std::optional<std::string>(v) : std::nullopt;
  };
  EXPECT_EQ(str("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\""),
            std::string("a\"b\\c/d\b\f\n\r\t"));
  EXPECT_EQ(str("\"\\u00b5\\u2713\\u0041\""),
            std::string("\xC2\xB5\xE2\x9C\x93" "A"));
  EXPECT_EQ(str("\"\\ud83d\""), std::nullopt);  // surrogate half
  EXPECT_EQ(str("\"\\u12\""), std::nullopt);
  EXPECT_EQ(str("\"\\x\""), std::nullopt);
  EXPECT_EQ(str("\"\xC3\""), std::nullopt);      // truncated sequence
  EXPECT_EQ(str("\"\xC0\xAF\""), std::nullopt);  // overlong '/'
  EXPECT_EQ(str("\"abc"), std::nullopt);
  EXPECT_EQ(str("\"abc\\"), std::nullopt);
}

TEST(JsonReaderTest, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const std::string at_limit = nested(64);
  telemetry::JsonReader ok(at_limit);
  ok.skip();
  EXPECT_TRUE(ok.done());
  const std::string too_deep = nested(100000);
  telemetry::JsonReader deep(too_deep);
  deep.skip();
  EXPECT_FALSE(deep.done());
}

TEST(ErrcFromVerdictTest, RouterMappingIsExhaustiveAndDistinct) {
  using V = dataplane::BorderRouter::Verdict;
  // Success verdicts map to kOk.
  EXPECT_EQ(dataplane::errc_from_verdict(V::kForward), Errc::kOk);
  EXPECT_EQ(dataplane::errc_from_verdict(V::kDeliver), Errc::kOk);
  // Every drop verdict maps to a distinct, non-kOk error whose name
  // telemetry uses as the counter label.
  const std::vector<V> drops = {V::kBadHvf,  V::kExpired, V::kMalformed,
                                V::kBlocked, V::kReplay,  V::kOveruse};
  std::set<Errc> seen;
  for (const V v : drops) {
    const Errc e = dataplane::errc_from_verdict(v);
    EXPECT_NE(e, Errc::kOk);
    EXPECT_STRNE(errc_name(e), "unknown");
    seen.insert(e);
  }
  EXPECT_EQ(seen.size(), drops.size());
  EXPECT_EQ(dataplane::errc_from_verdict(V::kBadHvf), Errc::kAuthFailed);
  EXPECT_EQ(dataplane::errc_from_verdict(V::kOveruse), Errc::kOveruse);
}

TEST(ErrcFromVerdictTest, GatewayMappingIsExhaustiveAndDistinct) {
  using V = dataplane::Gateway::Verdict;
  EXPECT_EQ(dataplane::errc_from_verdict(V::kOk), Errc::kOk);
  const std::vector<V> drops = {V::kNoReservation, V::kRateLimited,
                                V::kExpired};
  std::set<Errc> seen;
  for (const V v : drops) {
    const Errc e = dataplane::errc_from_verdict(v);
    EXPECT_NE(e, Errc::kOk);
    seen.insert(e);
  }
  EXPECT_EQ(seen.size(), drops.size());
}

TEST(SpanTraceTest, NestedSpansAndSelfTime) {
  telemetry::SpanCollector col;
  EXPECT_FALSE(col.enabled());
  col.enable();
  // Simulated 3-hop chain: A calls B calls C (times in ns).
  const auto a = col.open("1-110", 0, 100);
  const auto b = col.open("1-100", 100, 80);
  const auto c = col.open("2-200", 150, 60);
  col.close(c, 250);  // C took 100
  col.close(b, 400);  // B subtree took 300
  col.close(a, 500);  // A subtree took 500
  const auto trace = col.take();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.spans[1].parent, 0);
  EXPECT_EQ(trace.spans[2].parent, 1);
  EXPECT_EQ(trace.spans[0].depth, 0);
  EXPECT_EQ(trace.spans[2].depth, 2);
  EXPECT_EQ(trace.spans[0].duration_ns, 500);
  EXPECT_EQ(trace.spans[1].duration_ns, 300);
  EXPECT_EQ(trace.spans[2].duration_ns, 100);
  // Self time excludes direct children: A = 500-300, B = 300-100, C = 100.
  EXPECT_EQ(trace.self_time_ns(0), 200);
  EXPECT_EQ(trace.self_time_ns(1), 200);
  EXPECT_EQ(trace.self_time_ns(2), 100);
  EXPECT_TRUE(json_parses(trace.to_json()));
  // take() drained the collector.
  EXPECT_TRUE(col.trace().spans.empty());
}

// --- SpanCollector edge cases (drain/re-enable with open spans) --------------

TEST(SpanCollectorTest, TakeClosesOpenSpansAsTruncated) {
  telemetry::SpanCollector col;
  col.enable();
  const auto a = col.open("1-110", 0, 10);
  const auto b = col.open("1-100", 50, 5);
  col.close(b, 80);
  const auto c = col.open("2-200", 90, 7);
  // a and c are still open when the trace is drained.
  const auto trace = col.take();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_TRUE(trace.spans[0].truncated);
  EXPECT_EQ(trace.spans[0].duration_ns, -1);
  EXPECT_FALSE(trace.spans[1].truncated);
  EXPECT_EQ(trace.spans[1].duration_ns, 30);
  EXPECT_TRUE(trace.spans[2].truncated);
  EXPECT_EQ(trace.spans[2].duration_ns, -1);

  // Tokens from before the drain are stale: closing them is a no-op
  // and must not corrupt the next trace.
  col.close(a, 1'000);
  col.close(c, 1'000);
  EXPECT_TRUE(col.trace().spans.empty());
  const auto d = col.open("3-300", 0, 1);
  col.close(d, 10);
  const auto next = col.take();
  ASSERT_EQ(next.spans.size(), 1u);
  EXPECT_EQ(next.spans[0].name, "3-300");
  EXPECT_EQ(next.spans[0].duration_ns, 10);
  EXPECT_FALSE(next.spans[0].truncated);
}

TEST(SpanCollectorTest, ReenableInvalidatesOutstandingTokens) {
  telemetry::SpanCollector col;
  col.enable();
  const auto a = col.open("1-110", 0, 10);
  col.enable();  // clears the trace and bumps the epoch
  EXPECT_FALSE(col.in_span());
  const auto b = col.open("1-100", 5, 1);
  col.close(a, 50);  // stale epoch: must not close b
  EXPECT_TRUE(col.in_span());
  col.close(b, 60);
  const auto trace = col.take();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].name, "1-100");
  EXPECT_EQ(trace.spans[0].duration_ns, 55);
}

TEST(SpanCollectorTest, AnnotateAttachesToInnermostOpenSpan) {
  telemetry::SpanCollector col;
  col.annotate("ignored", "collector disabled");  // no-op, no crash
  col.enable();
  col.annotate("ignored", "no span open");  // no-op, no crash
  EXPECT_FALSE(col.in_span());
  const auto a = col.open("1-110", 0, 1);
  col.annotate("outer", "x");
  const auto b = col.open("1-100", 1, 1);
  col.annotate("res_id", "42");
  col.close(b, 2);
  col.annotate("verdict", "admitted");  // b closed: attaches to a again
  col.close(a, 3);
  const auto trace = col.take();
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.spans[0].args.size(), 2u);
  EXPECT_EQ(trace.spans[0].args[0].first, "outer");
  EXPECT_EQ(trace.spans[0].args[1].first, "verdict");
  EXPECT_EQ(trace.spans[0].args[1].second, "admitted");
  ASSERT_EQ(trace.spans[1].args.size(), 1u);
  EXPECT_EQ(trace.spans[1].args[0].first, "res_id");
  EXPECT_EQ(trace.spans[1].args[0].second, "42");
}

TEST(SpanCollectorTest, SpanIdsNeverReusedAcrossDrains) {
  telemetry::SpanCollector col;
  col.enable();
  col.close(col.open("x", 0, 0), 1);
  const auto t1 = col.take();
  col.close(col.open("y", 0, 0), 1);
  const auto t2 = col.take();
  ASSERT_EQ(t1.spans.size(), 1u);
  ASSERT_EQ(t2.spans.size(), 1u);
  EXPECT_NE(t1.spans[0].id, t2.spans[0].id);
}

// --- StageProfiler -----------------------------------------------------------

// MetricSink that captures everything emitted, for name/value asserts.
struct CaptureSink final : telemetry::MetricSink {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> hists;
  void counter(std::string_view name, std::uint64_t value) override {
    counters[std::string(name)] += value;
  }
  void gauge(std::string_view name, std::int64_t value) override {
    gauges[std::string(name)] = value;
  }
  void histogram(std::string_view name,
                 const HistogramSnapshot& h) override {
    hists[std::string(name)] = h;
  }
};

TEST(StageProfilerTest, DisabledProfilerEmitsNothing) {
  telemetry::StageProfiler prof{"alpha", "beta"};
  EXPECT_FALSE(prof.enabled());
  EXPECT_EQ(prof.begin(), 0);  // disabled begin() never reads the clock
  EXPECT_EQ(prof.stage_count(), 2u);
  EXPECT_EQ(prof.stage_name(0), "alpha");
  CaptureSink sink;
  prof.collect_metrics(sink);
  EXPECT_TRUE(sink.hists.empty());  // never-run stages are elided
}

TEST(StageProfilerTest, PerStageHistogramsAndOccupancy) {
  telemetry::StageProfiler prof{"alpha", "beta"};
  prof.set_enabled(true);
  prof.record(0, 100, 228);  // 128 ns
  prof.record(0, 0, 100);
  prof.record(1, 0, 5'000);
  prof.record(1, 10, 5);    // clock went backwards: clamped to 0, counted
  prof.record(7, 0, 1);     // out-of-range stage index: ignored
  prof.count_batch(32);
  prof.count_batch(64);
  EXPECT_EQ(prof.batches(), 2u);

  EXPECT_EQ(prof.stage_snapshot(0).count, 2u);
  EXPECT_EQ(prof.stage_snapshot(0).sum, 228u);
  EXPECT_EQ(prof.stage_snapshot(1).count, 2u);
  EXPECT_EQ(prof.stage_snapshot(1).sum, 5'000u);
  const HistogramSnapshot occ = prof.occupancy_snapshot();
  EXPECT_EQ(occ.count, 2u);
  EXPECT_EQ(occ.sum, 96u);

  CaptureSink sink;
  prof.collect_metrics(sink);
  ASSERT_EQ(sink.hists.count("stage.alpha_ns"), 1u);
  ASSERT_EQ(sink.hists.count("stage.beta_ns"), 1u);
  ASSERT_EQ(sink.hists.count("batch_occupancy"), 1u);
  EXPECT_EQ(sink.hists.at("stage.alpha_ns").sum, 228u);

  prof.reset();
  EXPECT_EQ(prof.batches(), 0u);
  CaptureSink after;
  prof.collect_metrics(after);
  EXPECT_TRUE(after.hists.empty());
}

TEST(StageProfilerTest, SpanCaptureKeepsMostRecentWindowOldestFirst) {
  telemetry::StageProfiler prof{"stage"};
  prof.set_enabled(true);
  EXPECT_FALSE(prof.capturing());
  EXPECT_TRUE(prof.spans().empty());
  prof.set_span_capture(4);
  EXPECT_TRUE(prof.capturing());
  for (int i = 0; i < 6; ++i) {
    prof.record(0, i * 10, i * 10 + 5);
    prof.count_batch(1);
  }
  const auto spans = prof.spans();
  ASSERT_EQ(spans.size(), 4u);  // window of the most recent 4 of 6
  EXPECT_EQ(spans.front().t0_ns, 20);
  EXPECT_EQ(spans.front().batch, 2u);
  EXPECT_EQ(spans.back().t0_ns, 50);
  EXPECT_EQ(spans.back().batch, 5u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].t0_ns, spans[i].t0_ns);  // oldest-first
  }
  prof.clear_spans();
  EXPECT_TRUE(prof.spans().empty());
}

// --- Perfetto trace export ---------------------------------------------------

TEST(PerfettoExportTest, TracksAreStableAndMetadataEmitted) {
  telemetry::PerfettoTraceBuilder builder;
  const auto t1 = builder.track("control-plane", "1-110");
  const auto t2 = builder.track("control-plane", "1-100");
  const auto t3 = builder.track("data-plane", "1-110");
  const auto t1again = builder.track("control-plane", "1-110");
  EXPECT_EQ(t1.pid, t1again.pid);
  EXPECT_EQ(t1.tid, t1again.tid);
  EXPECT_EQ(t1.pid, t2.pid);   // same process
  EXPECT_NE(t1.tid, t2.tid);   // distinct thread per track
  EXPECT_NE(t1.pid, t3.pid);   // distinct process
  EXPECT_EQ(builder.track_count(), 3u);

  builder.add_complete(t1, "work", "bus", 1'000, 500, {{"res_id", "7"}});
  builder.add_instant(t2, "mark", "lifecycle", 2'000);
  EXPECT_EQ(builder.event_count(), 2u);
  const std::string json = builder.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"res_id\":\"7\""), std::string::npos);
}

TEST(PerfettoExportTest, SpanTraceGetsOneTrackPerAsAndTruncatedInstants) {
  telemetry::SpanCollector col;
  col.enable();
  const auto a = col.open("1-110", 0, 10);
  const auto b = col.open("1-100", 100, 5);
  col.close(b, 300);
  (void)a;  // left open: drained as truncated
  const auto trace = col.take();

  telemetry::PerfettoTraceBuilder builder;
  builder.add_span_trace(trace, "control-plane", "setup");
  EXPECT_EQ(builder.track_count(), 2u);  // one per AS
  EXPECT_EQ(builder.event_count(), 2u);  // one complete + one instant
  const std::string json = builder.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("truncated"), std::string::npos) << json;
  EXPECT_NE(json.find("setup: "), std::string::npos) << json;
}

TEST(PerfettoExportTest, EventsGroupByAsFieldThenComponent) {
  SimClock clock(1'000);
  telemetry::EventLog log(clock);
  log.emit(telemetry::Severity::kInfo, "cserv", "eer.admitted")
      .str("as", "1-110")
      .u64("res_id", 7);
  clock.advance(10);
  log.emit(telemetry::Severity::kInfo, "cserv", "segr.expired")
      .str("as", "1-100");
  clock.advance(10);
  log.emit(telemetry::Severity::kWarn, "renewal", "segr.failed");  // no AS

  telemetry::PerfettoTraceBuilder builder;
  builder.add_events(log.events(), "lifecycle");
  EXPECT_EQ(builder.track_count(), 3u);  // 1-110, 1-100, renewal
  EXPECT_EQ(builder.event_count(), 3u);
  EXPECT_TRUE(json_parses(builder.to_json()));
}

TEST(PerfettoExportTest, StageSpansRenderOnOneTrack) {
  telemetry::StageProfiler prof{"alpha", "beta"};
  prof.set_enabled(true);
  prof.set_span_capture(8);
  prof.record(0, 1'000, 1'500);
  prof.record(1, 1'500, 1'800);
  prof.count_batch(64);

  telemetry::PerfettoTraceBuilder builder;
  builder.add_stage_spans(prof, prof.spans(), "data-plane", "gateway 1-110");
  EXPECT_EQ(builder.track_count(), 1u);
  EXPECT_EQ(builder.event_count(), 2u);
  const std::string json = builder.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("alpha"), std::string::npos);
  EXPECT_NE(json.find("beta"), std::string::npos);
}

// --- Cross-AS trace assembly -------------------------------------------------

// A span as the bus would record it: wire ids stamped, duration known.
telemetry::Span traced_span(std::string name, std::uint64_t span_id,
                            std::uint64_t parent_id, std::int64_t start_ns,
                            std::int64_t duration_ns) {
  telemetry::Span s;
  s.name = std::move(name);
  s.category = "bus";
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  s.trace_hi = 0xABCD;
  s.trace_lo = 0x1234;
  s.ctx_span = span_id;
  s.ctx_parent = parent_id;
  return s;
}

TEST(TraceAssemblerTest, StitchesSpansAcrossIndependentCaptures) {
  // The root hop in one capture, its two downstream hops in another —
  // the wire ids alone must reconstruct the tree.
  telemetry::SpanTrace cap_a;
  cap_a.spans.push_back(traced_span("1-100", /*span=*/10, /*parent=*/0,
                                    /*start=*/0, /*dur=*/1'000));
  telemetry::SpanTrace cap_b;
  cap_b.spans.push_back(traced_span("1-110", 11, 10, 100, 400));
  cap_b.spans.push_back(traced_span("1-120", 12, 11, 150, 250));

  telemetry::TraceAssembler assembler;
  assembler.add_capture(cap_b);  // order of captures must not matter
  assembler.add_capture(cap_a);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);
  const auto& t = traces[0];
  ASSERT_EQ(t.hops.size(), 3u);
  // DFS order = path traversal order for a linear chain.
  EXPECT_EQ(t.hops[0].as, "1-100");
  EXPECT_EQ(t.hops[1].as, "1-110");
  EXPECT_EQ(t.hops[2].as, "1-120");
  EXPECT_EQ(t.hops[0].depth, 0);
  EXPECT_EQ(t.hops[1].depth, 1);
  EXPECT_EQ(t.hops[2].depth, 2);
  EXPECT_EQ(t.hops[1].parent_span_id, t.hops[0].span_id);
  EXPECT_EQ(t.hops[2].parent_span_id, t.hops[1].span_id);
  // Latency attribution: self = subtree minus direct children.
  EXPECT_EQ(t.total_ns(), 1'000);
  EXPECT_EQ(t.hops[0].self_ns, 600);
  EXPECT_EQ(t.hops[1].self_ns, 150);
  EXPECT_EQ(t.hops[2].self_ns, 250);
  EXPECT_EQ(t.bottleneck(), 0u);
  EXPECT_FALSE(t.hops[0].orphan);
  EXPECT_EQ(t.trace_id_hex(),
            "000000000000abcd0000000000001234");
}

TEST(TraceAssemblerTest, SeparateTraceIdsYieldSeparateTrees) {
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-100", 1, 0, 0, 100));
  telemetry::Span other = traced_span("2-200", 2, 0, 50, 80);
  other.trace_lo = 0x9999;  // different trace id
  cap.spans.push_back(other);

  telemetry::TraceAssembler assembler;
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].hops.size(), 1u);
  EXPECT_EQ(traces[1].hops.size(), 1u);
}

TEST(TraceAssemblerTest, MissingParentBecomesCountedOrphanRoot) {
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-100", 10, 0, 0, 500));
  cap.spans.push_back(traced_span("1-999", 20, /*parent=*/77, 100, 50));
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].hops.size(), 2u);
  // The orphan is kept as a second root at depth 0, flagged.
  EXPECT_FALSE(traces[0].hops[0].orphan);
  EXPECT_TRUE(traces[0].hops[1].orphan);
  EXPECT_EQ(traces[0].hops[1].depth, 0);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("cserv.trace.orphan_spans"), 1u);
  EXPECT_EQ(snap.counters.at("cserv.trace.assembled"), 1u);
}

TEST(TraceAssemblerTest, UntracedAndTruncatedSpansAreCounted) {
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  telemetry::SpanTrace cap;
  telemetry::Span plain;  // no trace ids: pre-extension span
  plain.name = "1-100";
  plain.duration_ns = 10;
  cap.spans.push_back(plain);
  telemetry::Span cut = traced_span("1-110", 5, 0, 0, -1);
  cut.truncated = true;
  cap.spans.push_back(cut);
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);  // only the traced span forms a tree
  EXPECT_TRUE(traces[0].hops[0].truncated);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("cserv.trace.untraced_spans"), 1u);
  EXPECT_EQ(snap.counters.at("cserv.trace.truncated_spans"), 1u);
}

TEST(TraceAssemblerTest, MetricsIncludePerHopLatencyHistograms) {
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  telemetry::SpanTrace cap;
  telemetry::Span root = traced_span("1-100", 1, 0, 0, 1'000);
  root.args.emplace_back("admission_ns", "250");
  cap.spans.push_back(root);
  assembler.add_capture(cap);
  (void)assembler.assemble();

  const auto snap = registry.snapshot();
  ASSERT_TRUE(snap.histograms.count("cserv.trace.hop_total_ns"));
  ASSERT_TRUE(snap.histograms.count("cserv.trace.hop_self_ns"));
  ASSERT_TRUE(snap.histograms.count("cserv.trace.admission_ns"));
  EXPECT_EQ(snap.histograms.at("cserv.trace.hop_total_ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("cserv.trace.admission_ns").sum, 250u);
}

TEST(TraceAssemblerTest, FindByResIdAndWaterfall) {
  telemetry::SpanTrace cap;
  telemetry::Span root = traced_span("1-100", 1, 0, 0, 1'000);
  root.args.emplace_back("res_id", "42");
  root.args.emplace_back("verdict", "segr.admitted");
  cap.spans.push_back(root);
  cap.spans.push_back(traced_span("1-110", 2, 1, 100, 800));

  telemetry::TraceAssembler assembler;
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].res_id(), 42);
  EXPECT_EQ(telemetry::TraceAssembler::find_by_res_id(traces, 42),
            &traces[0]);
  EXPECT_EQ(telemetry::TraceAssembler::find_by_res_id(traces, 7), nullptr);

  const std::string w = traces[0].waterfall();
  EXPECT_NE(w.find("res_id=42"), std::string::npos) << w;
  EXPECT_NE(w.find("1-100"), std::string::npos);
  EXPECT_NE(w.find("1-110"), std::string::npos);
  EXPECT_NE(w.find("<-- bottleneck"), std::string::npos);
  EXPECT_NE(w.find("[segr.admitted]"), std::string::npos);
  // The downstream hop holds the larger self time, so it is the
  // bottleneck row (marked with '*').
  EXPECT_EQ(traces[0].bottleneck(), 1u);
  EXPECT_NE(w.find("* [1] 1-110"), std::string::npos) << w;
}

TEST(TraceAssemblerTest, ChildBeforeParentInOneCaptureStillLinks) {
  // Causal order violated inside a single capture: both children appear
  // before the root span. Linking goes through the wire ids over the
  // whole member set, so arrival order must not create orphans.
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-120", 12, 11, 150, 250));
  cap.spans.push_back(traced_span("1-110", 11, 10, 100, 400));
  cap.spans.push_back(traced_span("1-100", 10, 0, 0, 1'000));
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].hops.size(), 3u);
  EXPECT_EQ(traces[0].hops[0].as, "1-100");
  EXPECT_EQ(traces[0].hops[1].as, "1-110");
  EXPECT_EQ(traces[0].hops[2].as, "1-120");
  for (const auto& h : traces[0].hops) EXPECT_FALSE(h.orphan);
  EXPECT_EQ(registry.snapshot().counters.at("cserv.trace.orphan_spans"), 0u);
}

TEST(TraceAssemblerTest, DuplicateSpanIdsLinkToTheFirstOccurrence) {
  // Two spans claim wire id 11 (a buggy or adversarial reporter). The
  // first occurrence wins the id table: the child links to it, and the
  // impostor survives as a plain sibling — never a crash, never a cycle.
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-100", 10, 0, 0, 1'000));
  cap.spans.push_back(traced_span("1-110", 11, 10, 100, 400));
  telemetry::Span impostor = traced_span("9-999", 11, 10, 600, 50);
  cap.spans.push_back(impostor);
  cap.spans.push_back(traced_span("1-120", 12, 11, 150, 250));

  telemetry::TraceAssembler assembler;
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].hops.size(), 4u);
  // DFS: root -> first 11 -> its child 12, then the impostor sibling.
  EXPECT_EQ(traces[0].hops[0].as, "1-100");
  EXPECT_EQ(traces[0].hops[1].as, "1-110");
  EXPECT_EQ(traces[0].hops[2].as, "1-120");
  EXPECT_EQ(traces[0].hops[2].depth, 2);
  EXPECT_EQ(traces[0].hops[3].as, "9-999");
  EXPECT_EQ(traces[0].hops[3].depth, 1);
  EXPECT_FALSE(traces[0].hops[3].orphan);  // its parent id resolves fine
}

TEST(TraceAssemblerTest, SelfParentedSpanBecomesCountedOrphanRoot) {
  // ctx_parent == ctx_span would be a cycle; the assembler must break
  // it into an orphan root rather than recurse.
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-100", 7, 7, 0, 100));
  assembler.add_capture(cap);
  const auto traces = assembler.assemble();

  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].hops.size(), 1u);
  EXPECT_TRUE(traces[0].hops[0].orphan);
  EXPECT_EQ(traces[0].hops[0].depth, 0);
  EXPECT_EQ(registry.snapshot().counters.at("cserv.trace.orphan_spans"), 1u);
}

TEST(TraceAssemblerTest, IrregularityCountersAccumulateAcrossRounds) {
  // assemble() consumes pending spans but the cserv.trace.* counters
  // are cumulative — a monitoring plane reads them as rates.
  MetricsRegistry registry;
  telemetry::TraceAssembler assembler(&registry);
  for (int round = 0; round < 3; ++round) {
    telemetry::SpanTrace cap;
    // Orphan: parent 99 exists in no capture of this round.
    telemetry::Span lost = traced_span("1-110", 20 + round, 99, 0, 50);
    // Truncated child of it would stay orphaned too; keep one truncated
    // root alongside.
    telemetry::Span cut = traced_span("1-100", 40 + round, 0, 0, -1);
    cut.truncated = true;
    cap.spans.push_back(lost);
    cap.spans.push_back(cut);
    telemetry::Span plain;  // untraced
    plain.name = "1-120";
    cap.spans.push_back(plain);
    assembler.add_capture(cap);
    const auto traces = assembler.assemble();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_TRUE(assembler.assemble().empty());  // pending was consumed
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("cserv.trace.assembled"), 3u);
  EXPECT_EQ(snap.counters.at("cserv.trace.orphan_spans"), 3u);
  EXPECT_EQ(snap.counters.at("cserv.trace.truncated_spans"), 3u);
  EXPECT_EQ(snap.counters.at("cserv.trace.untraced_spans"), 3u);
}

TEST(PerfettoExportTest, FlowArrowsLinkParentAndChildTracks) {
  telemetry::SpanTrace cap;
  cap.spans.push_back(traced_span("1-100", 10, 0, 0, 1'000));
  cap.spans.push_back(traced_span("1-110", 11, 10, 100, 400));

  telemetry::PerfettoTraceBuilder builder;
  builder.add_span_trace(cap, "control-plane", "setup");
  const std::string json = builder.to_json();
  EXPECT_TRUE(json_parses(json)) << json;
  // One hop boundary: a flow start on the parent's track, the finish on
  // the child's, bound by the child's wire span id.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":11"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"id\":10"), std::string::npos) << json;  // root: none
}

TEST(PerfettoExportTest, NoFlowArrowsWithoutWireIds) {
  telemetry::SpanCollector col;
  col.enable();
  const auto a = col.open("1-100", 0, 10);
  col.close(a, 500);
  telemetry::PerfettoTraceBuilder builder;
  builder.add_span_trace(col.take(), "control-plane", "setup");
  const std::string json = builder.to_json();
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos) << json;
}

// --- Concurrent stress (run under the tsan preset) ---------------------------

// Writer threads hammer the shared-safe surfaces (Counter, Histogram::
// record_shared, EventLog) plus thread-owned single-writer facilities
// (StageProfiler, FlightRecorder — one instance per thread, per their
// documented contracts) while a reader concurrently snapshots the
// registry and renders both exports. TSan proves the synchronization;
// the final counts prove nothing was lost.
TEST(TelemetryStressTest, ConcurrentWritersWhileReaderSnapshots) {
  SystemClock clock;
  MetricsRegistry registry;
  telemetry::EventLog events(clock, 1024);
  Counter& ops = registry.counter("stress.ops");
  Histogram& lat = registry.histogram("stress.lat_ns");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_written{0};
  constexpr int kWriters = 3;
  std::vector<std::thread> writers;
  writers.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      telemetry::FlightRecorder recorder({.capacity = 64, .sample_every = 1,
                                          .record_drops = true});
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ops.inc();
        lat.record_shared(n % 4'096);
        events.emit(telemetry::Severity::kInfo, "stress", "tick")
            .u64("n", n)
            .u64("writer", static_cast<std::uint64_t>(w));
        if (recorder.sample_tick()) {
          telemetry::FlightRecord r;
          r.res_id = n;
          recorder.commit(r);
        }
        ++n;
      }
      EXPECT_EQ(recorder.committed(), n);  // ring stayed thread-local
      total_written.fetch_add(n, std::memory_order_relaxed);
    });
  }
  // Single-writer profiler on its own thread (span capture off: the
  // span ring is part of the single-writer surface, not the shared one).
  writers.emplace_back([&] {
    telemetry::StageProfiler prof{"hot", "cold"};
    prof.set_enabled(true);
    std::int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      prof.record(0, t, t + 10);
      prof.record(1, t + 10, t + 30);
      prof.count_batch(32);
      t += 30;
    }
    EXPECT_EQ(prof.stage_snapshot(0).count, prof.batches());
  });

  // Reader: concurrent snapshots + both text exports must be torn-free
  // (every counter monotone, every histogram internally consistent).
  std::uint64_t last_ops = 0;
  for (int i = 0; i < 25; ++i) {
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_GE(snap.counters.at("stress.ops"), last_ops);
    last_ops = snap.counters.at("stress.ops");
    EXPECT_TRUE(json_parses(snap.to_json()));
    const std::string om = telemetry::to_openmetrics(snap);
    EXPECT_NE(om.find("# EOF"), std::string::npos);
    (void)events.size();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();

  EXPECT_EQ(ops.value(), total_written.load());
  EXPECT_EQ(lat.snapshot().count, total_written.load());
  EXPECT_EQ(events.size() + events.dropped(), total_written.load());
}

}  // namespace
}  // namespace colibri
