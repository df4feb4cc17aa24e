// Byte-exact golden outputs of every telemetry JSON export: the metrics
// snapshot, one event line, flight records (with and without the
// optional decision-state fields), a span trace, a Perfetto trace and
// a SimClock incident bundle. Each fixture builds its input by hand, so
// the expected bytes pin the wire format itself — escaping, integer
// formatting, key order and layout — independent of any scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/common/faults.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/incident.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"
#include "colibri/telemetry/trace.hpp"
#include "colibri/telemetry/trace_export.hpp"

namespace colibri {
namespace {

using telemetry::Event;
using telemetry::EventField;
using telemetry::FlightRecord;
using telemetry::FlightRecorder;
using telemetry::HistogramSnapshot;
using telemetry::MetricsSnapshot;
using telemetry::Severity;
using telemetry::Span;
using telemetry::SpanTrace;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

std::string golden_metrics(bool with_collisions) {
  MetricsSnapshot s;
  s.counters["a.count"] = 3;
  s.counters["weird\"name\\with\nctl\x1f"] = kU64Max;
  s.gauges["g.level"] = 12;
  s.gauges["g.negative"] = -7;
  s.gauges["g.min"] = kI64Min;
  HistogramSnapshot h;  // sparse: only non-empty buckets are exported
  h.buckets[0] = 1;
  h.buckets[4] = 2;
  h.buckets[10] = 1;
  h.count = 4;
  h.sum = 1000;
  s.histograms["lat_ns"] = h;
  s.histograms["empty"] = HistogramSnapshot{};
  if (with_collisions) s.collisions = {"dup.name", "q\"uote"};
  return s.to_json();
}

Event golden_event() {
  Event ev;
  ev.time_ns = 1'234'567'890;
  ev.seq = 77;
  ev.severity = Severity::kWarn;
  ev.component = "cserv";
  ev.name = "request.\"denied\"";
  const auto str = [&](const char* k, std::string v) {
    ev.fields.push_back({k, EventField::Kind::kStr, 0, 0, std::move(v)});
  };
  ev.fields.push_back({"res_id", EventField::Kind::kU64, kU64Max, 0, {}});
  ev.fields.push_back({"delta", EventField::Kind::kI64, 0, -7, {}});
  ev.fields.push_back({"floor", EventField::Kind::kI64, 0, kI64Min, {}});
  str("quote", "a \"b\" c");
  str("backslash", "C:\\path\\");
  str("control", "unit\x1fsep\ttab\r\n");
  str("utf8", "\xC2\xB5s \xE2\x9C\x93 \xF0\x9F\x9A\x80");
  str("k\"ey", "");
  return ev;
}

FlightRecord golden_record(bool optional_fields) {
  FlightRecord r;
  r.seq = 5;
  r.time_ns = 9'000'000'001;
  r.component = FlightRecorder::kRouter;
  r.verdict = 3;
  r.errc = static_cast<std::uint8_t>(Errc::kAuthFailed);
  r.forced_by_drop = true;
  r.src_as = 0x0001'0000'0000'006eULL;
  r.res_id = 4242;
  r.version = 2;
  r.hop = 1;
  r.if_in = 3;
  r.if_eg = 4;
  r.timestamp = 4'000'000'000u;
  r.wire_bytes = 1500;
  r.exp_time = 1'700'000'000;
  if (optional_fields) {
    r.hvf_got = {0xde, 0xad, 0x00, 0x0f};
    r.hvf_want = {0xbe, 0xef, 0x10, 0xff};
    r.hvf_checked = true;
    r.dupsup_verdict = 1;
    r.ofd_verdict = 0;
    r.bucket_available_bytes = kU64Max;
    r.bucket_checked = true;
  }
  return r;
}

SpanTrace golden_span_trace() {
  SpanTrace t;
  t.origin_ns = 1000;
  Span root;
  root.name = "1-110";
  root.category = "bus";
  root.id = 1;
  root.start_ns = 0;
  root.duration_ns = 5000;
  root.bytes = 96;
  root.trace_hi = kU64Max;
  root.trace_lo = 1;
  root.ctx_span = 11;
  root.ctx_parent = 0;
  root.args = {{"res_id", "42"}, {"verdict", "\"ok\"\\"}};
  Span child;
  child.name = "1-111";
  child.category = "bus";
  child.id = 2;
  child.parent = 0;
  child.depth = 1;
  child.start_ns = 1000;
  child.duration_ns = 2500;
  child.bytes = 64;
  child.trace_hi = kU64Max;
  child.trace_lo = 1;
  child.ctx_span = 12;
  child.ctx_parent = 11;
  Span cut;
  cut.name = "1-112";
  cut.category = "";
  cut.id = 3;
  cut.parent = 1;
  cut.depth = 2;
  cut.start_ns = 2000;
  cut.duration_ns = -1;
  cut.truncated = true;
  t.spans = {root, child, cut};
  return t;
}

std::string golden_perfetto() {
  telemetry::PerfettoTraceBuilder b;
  const auto t = b.track("proc \"A\"", "thread\\1");
  b.add_complete(t, "slice", "", -1500, 2500,
                 {{"k", "v\"q"}, {"n", "\x01"}});
  b.add_complete(t, "negative-dur", "cat", 0, -5);
  b.add_instant(b.track("proc \"A\"", "other"), "tick", "evt", 1'234'567);
  b.add_instant(b.track("proc \"A\"", "other"), "early", "evt", -500);
  b.add_flow_start(t, 7, 100);
  b.add_flow_finish(b.track("proc B", "t"), kU64Max, 300);
  b.add_span_trace(golden_span_trace(), "bus", "setup: 1-110");
  Event ev = golden_event();
  ev.fields.push_back({"as", EventField::Kind::kStr, 0, 0, "1-110"});
  Event bare;
  bare.time_ns = 50;
  bare.component = "renewal";
  bare.name = "eer.renewed";
  b.add_events({ev, bare}, "events");
  return b.to_json();
}

// A deterministic SimClock monitoring stack with one of every bundle
// source attached. Returns both bundles of a debounced alert storm: the
// first names the trigger, the second also lists the suppressed edges.
std::vector<std::string> golden_incident_bundles() {
  SimClock clock(100 * kNsPerSec);
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events(clock);
  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = kNsPerSec;
  telemetry::WindowedSampler sampler(registry, clock, scfg);
  telemetry::AlertEngine engine(sampler, clock, &events);
  for (const char* name : {"test.gauge-high", "test.gauge-\"higher\""}) {
    telemetry::AlertRule r;
    r.name = name;
    r.series = "test.level";
    r.signal = telemetry::AlertSignal::kGauge;
    r.cmp = telemetry::AlertCmp::kAbove;
    r.threshold = 0;
    r.severity = Severity::kError;
    engine.add_rule(r);
  }
  telemetry::Slo slo;
  slo.name = "latency";
  slo.series = "test.lat_ns";
  slo.latency_threshold_ns = 100;
  engine.add_slo(slo);

  telemetry::IncidentConfig icfg;
  icfg.max_events = 4;
  icfg.max_windows = 2;
  telemetry::IncidentRecorder rec(engine, icfg);
  rec.set_event_log(&events);
  rec.set_sampler(&sampler);
  FaultInjector faults(clock, 7);
  rec.set_fault_injector(&faults);
  telemetry::SpanCollector spans;
  spans.enable();
  const std::size_t outer = spans.open("1-110", 0, 96);
  spans.annotate("res_id", "42");
  const std::size_t inner = spans.open("1-111", 10, 64);
  spans.close(inner, 40);
  spans.close(outer, 50);
  spans.open("1-112", 60, 8);  // left open
  rec.set_span_collector(&spans);
  FlightRecorder recorder;
  recorder.commit(golden_record(true));
  recorder.commit(golden_record(false));
  rec.add_flight_recorder("router \"1\"", &recorder);
  FlightRecorder empty_recorder;
  rec.add_flight_recorder("gateway", &empty_recorder);
  rec.add_section("note", [] { return std::string("{\"hello\":[1,2]}"); });

  auto& level = registry.gauge("test.level");
  auto& work = registry.counter("test.work");
  auto& lat = registry.histogram("test.lat_ns");
  const auto step = [&] {
    clock.advance(kNsPerSec);
    sampler.poll();
    engine.evaluate();
  };
  step();
  for (int i = 0; i < 3; ++i) {
    work.inc(static_cast<std::uint64_t>(5 * i + 1));
    lat.record(static_cast<std::uint64_t>(50 + 100 * i));
    level.set(-i);
    events.emit(Severity::kInfo, "test", "tick")
        .u64("i", static_cast<std::uint64_t>(i))
        .i64("neg", -i)
        .str("s", "x\"y");
    step();
  }
  level.set(5);
  step();  // both rules fire: one bundle, one suppressed edge
  level.set(-1);
  step();
  for (int i = 0; i < 30; ++i) step();
  level.set(3);
  step();  // past the debounce window: second bundle lists the storm
  std::vector<std::string> out;
  for (const auto& b : rec.bundles()) out.push_back(b.json);
  return out;
}

TEST(JsonGoldenTest, MetricsSnapshot) {
  EXPECT_EQ(golden_metrics(true),
            R"js({"counters":{"a.count":3,"weird\"name\\with\nctl\u001f":1844674407)js"
            R"js(3709551615},"gauges":{"g.level":12,"g.min":-9223372036854775808,"g)js"
            R"js(.negative":-7},"histograms":{"empty":{"count":0,"sum":0,"p50":0,"p)js"
            R"js(99":0,"buckets":[]},"lat_ns":{"count":4,"sum":1000,"p50":15,"p99":)js"
            R"js(1023,"buckets":[[0,1],[15,2],[1023,1]]}},"collisions":["dup.name",)js"
            R"js("q\"uote"]})js");
  // No collisions: the key is left out, not written empty.
  EXPECT_EQ(golden_metrics(false),
            R"js({"counters":{"a.count":3,"weird\"name\\with\nctl\u001f":1844674407)js"
            R"js(3709551615},"gauges":{"g.level":12,"g.min":-9223372036854775808,"g)js"
            R"js(.negative":-7},"histograms":{"empty":{"count":0,"sum":0,"p50":0,"p)js"
            R"js(99":0,"buckets":[]},"lat_ns":{"count":4,"sum":1000,"p50":15,"p99":)js"
            R"js(1023,"buckets":[[0,1],[15,2],[1023,1]]}}})js");
}

TEST(JsonGoldenTest, EventLine) {
  EXPECT_EQ(golden_event().to_json(),
            R"js({"time_ns":1234567890,"seq":77,"severity":"warn","component":"cser)js"
            R"js(v","name":"request.\"denied\"","fields":{"res_id":1844674407370955)js"
            R"js(1615,"delta":-7,"floor":-9223372036854775808,"quote":"a \"b\" c",")js"
            R"js(backslash":"C:\\path\\","control":"unit\u001fsep\ttab\r\n","utf8":)js"
            R"js("µs ✓ 🚀","k\"ey":""}})js");
}

TEST(JsonGoldenTest, FlightRecordWithAndWithoutDecisionState) {
  const std::string full =
      R"js({"seq":5,"time_ns":9000000001,"component":"router","verdict":3,"re)js"
      R"js(ason":"auth-failed","forced_by_drop":true,"src_as":281474976710766)js"
      R"js(,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg":4,"timestamp")js"
      R"js(:4000000000,"wire_bytes":1500,"exp_time":1700000000,"hvf_got":"dea)js"
      R"js(d000f","hvf_want":"beef10ff","dupsup_verdict":1,"ofd_verdict":0,"b)js"
      R"js(ucket_available_bytes":18446744073709551615})js";
  const std::string bare =
      R"js({"seq":5,"time_ns":9000000001,"component":"router","verdict":3,"re)js"
      R"js(ason":"auth-failed","forced_by_drop":true,"src_as":281474976710766)js"
      R"js(,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg":4,"timestamp")js"
      R"js(:4000000000,"wire_bytes":1500,"exp_time":1700000000})js";
  EXPECT_EQ(golden_record(true).to_json(), full);
  EXPECT_EQ(golden_record(false).to_json(), bare);

  // JSONL: one record per line, seq restamped by the recorder.
  FlightRecorder recorder;
  recorder.commit(golden_record(true));
  recorder.commit(golden_record(false));
  EXPECT_EQ(recorder.to_jsonl(),
            R"js({"seq":0,"time_ns":9000000001,"component":"router","verdict":3,"re)js"
            R"js(ason":"auth-failed","forced_by_drop":true,"src_as":281474976710766)js"
            R"js(,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg":4,"timestamp")js"
            R"js(:4000000000,"wire_bytes":1500,"exp_time":1700000000,"hvf_got":"dea)js"
            R"js(d000f","hvf_want":"beef10ff","dupsup_verdict":1,"ofd_verdict":0,"b)js"
            R"js(ucket_available_bytes":18446744073709551615})js" "\n"
            R"js({"seq":1,"time_ns":9000000001,"component":"router","verdict":3,"re)js"
            R"js(ason":"auth-failed","forced_by_drop":true,"src_as":281474976710766)js"
            R"js(,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg":4,"timestamp")js"
            R"js(:4000000000,"wire_bytes":1500,"exp_time":1700000000})js" "\n");
}

TEST(JsonGoldenTest, SpanTraceWithTraceIdsArgsAndTruncation) {
  EXPECT_EQ(golden_span_trace().to_json(),
            R"js([{"name":"1-110","category":"bus","id":1,"parent":-1,"depth":0,"st)js"
            R"js(art_ns":0,"duration_ns":5000,"bytes":96,"trace_hi":184467440737095)js"
            R"js(51615,"trace_lo":1,"ctx_span":11,"ctx_parent":0,"args":{"res_id":")js"
            R"js(42","verdict":"\"ok\"\\"}},{"name":"1-111","category":"bus","id":2)js"
            R"js(,"parent":0,"depth":1,"start_ns":1000,"duration_ns":2500,"bytes":6)js"
            R"js(4,"trace_hi":18446744073709551615,"trace_lo":1,"ctx_span":12,"ctx_)js"
            R"js(parent":11},{"name":"1-112","category":"","id":3,"parent":1,"depth)js"
            R"js(":2,"start_ns":2000,"duration_ns":-1,"bytes":0,"truncated":true}])js");
}

TEST(JsonGoldenTest, PerfettoMetadataAndEveryPhase) {
  EXPECT_EQ(golden_perfetto(),
            R"js({"displayTimeUnit":"ns","traceEvents":[)js" "\n"
            R"js({"name":"process_name","ph":"M","pid":1,"args":{"name":"proc \"A\")js"
            R"js("}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"thr)js"
            R"js(ead\\1"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"oth)js"
            R"js(er"}},)js" "\n"
            R"js({"name":"process_name","ph":"M","pid":2,"args":{"name":"proc B"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":2,"tid":3,"args":{"name":"t"})js"
            R"js(},)js" "\n"
            R"js({"name":"process_name","ph":"M","pid":3,"args":{"name":"bus"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":3,"tid":4,"args":{"name":"1-1)js"
            R"js(10"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":3,"tid":5,"args":{"name":"1-1)js"
            R"js(11"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":3,"tid":6,"args":{"name":"1-1)js"
            R"js(12"}},)js" "\n"
            R"js({"name":"process_name","ph":"M","pid":4,"args":{"name":"events"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":4,"tid":7,"args":{"name":"1-1)js"
            R"js(10"}},)js" "\n"
            R"js({"name":"thread_name","ph":"M","pid":4,"tid":8,"args":{"name":"ren)js"
            R"js(ewal"}},)js" "\n"
            R"js({"name":"slice","cat":"colibri","pid":1,"tid":1,"ts":-1.500,"ph":")js"
            R"js(X","dur":2.500,"args":{"k":"v\"q","n":"\u0001"}},)js" "\n"
            R"js({"name":"negative-dur","cat":"cat","pid":1,"tid":1,"ts":0.000,"ph")js"
            R"js(:"X","dur":0.000,"args":{}},)js" "\n"
            R"js({"name":"tick","cat":"evt","pid":1,"tid":2,"ts":1234.567,"ph":"i",)js"
            R"js("s":"t","args":{}},)js" "\n"
            R"js({"name":"early","cat":"evt","pid":1,"tid":2,"ts":-0.500,"ph":"i",")js"
            R"js(s":"t","args":{}},)js" "\n"
            R"js({"name":"hop","cat":"trace","pid":1,"tid":1,"ts":0.100,"ph":"s","i)js"
            R"js(d":7},)js" "\n"
            R"js({"name":"hop","cat":"trace","pid":2,"tid":3,"ts":0.300,"ph":"f","b)js"
            R"js(p":"e","id":18446744073709551615},)js" "\n"
            R"js({"name":"setup: 1-110: 1-110","cat":"bus","pid":3,"tid":4,"ts":0.0)js"
            R"js(00,"ph":"X","dur":5.000,"args":{"res_id":"42","verdict":"\"ok\"\\")js"
            R"js(,"span_id":"1","depth":"0","bytes":"96","self_time_ns":"2500"}},)js" "\n"
            R"js({"name":"setup: 1-110: 1-111","cat":"bus","pid":3,"tid":5,"ts":1.0)js"
            R"js(00,"ph":"X","dur":2.500,"args":{"span_id":"2","depth":"1","bytes":)js"
            R"js("64","self_time_ns":"2501"}},)js" "\n"
            R"js({"name":"setup: 1-110: 1-112 (truncated)","cat":"colibri","pid":3,)js"
            R"js("tid":6,"ts":2.000,"ph":"i","s":"t","args":{"span_id":"3","depth":)js"
            R"js("2","bytes":"0","self_time_ns":"-1"}},)js" "\n"
            R"js({"name":"hop","cat":"trace","pid":3,"tid":4,"ts":1.000,"ph":"s","i)js"
            R"js(d":12},)js" "\n"
            R"js({"name":"hop","cat":"trace","pid":3,"tid":5,"ts":1.000,"ph":"f","b)js"
            R"js(p":"e","id":12},)js" "\n"
            R"js({"name":"request.\"denied\"","cat":"cserv","pid":4,"tid":7,"ts":12)js"
            R"js(34622.840,"ph":"i","s":"t","args":{"severity":"warn","component":")js"
            R"js(cserv","res_id":"18446744073709551615","delta":"-7","floor":"-9223)js"
            R"js(372036854775808","quote":"a \"b\" c","backslash":"C:\\path\\","con)js"
            R"js(trol":"unit\u001fsep\ttab\r\n","utf8":"µs ✓ 🚀","k\"ey":"","as":"1-)js"
            R"js(110"}},)js" "\n"
            R"js({"name":"eer.renewed","cat":"renewal","pid":4,"tid":8,"ts":55.000,)js"
            R"js("ph":"i","s":"t","args":{"severity":"info","component":"renewal"}})js" "\n"
            R"js(]})js" "\n");
}

TEST(JsonGoldenTest, SimClockIncidentBundles) {
  const std::vector<std::string> bundles = golden_incident_bundles();
  ASSERT_EQ(bundles.size(), 2u);
  EXPECT_EQ(bundles[0],
            R"js({)js" "\n"
            R"js("schema": "colibri.incident.v1",)js" "\n"
            R"js("id": 0,)js" "\n"
            R"js("time_ns": 103000000000,)js" "\n"
            R"js("trigger": {"edge":"firing","time_ns":103000000000,"rule":"slo.lat)js"
            R"js(ency.burn","series":"test.lat_ns","severity":"warn","value_milli":)js"
            R"js(500000,"for_ns":0},)js" "\n"
            R"js("suppressed": [],)js" "\n"
            R"js("alerts": [{"name":"test.gauge-high","state":"inactive","severity")js"
            R"js(:"error","value_milli":-1000,"has_value":true,"since_ns":0,"times_)js"
            R"js(fired":0},{"name":"test.gauge-\"higher\"","state":"inactive","seve)js"
            R"js(rity":"error","value_milli":-1000,"has_value":true,"since_ns":0,"t)js"
            R"js(imes_fired":0}],)js" "\n"
            R"js("slos": [{"name":"latency","state":"firing","burn_rate_milli":5000)js"
            R"js(00,"budget_remaining_milli":0,"bad":1,"total":2}],)js" "\n"
            R"js("recent_transitions": [{"edge":"firing","time_ns":103000000000,"ru)js"
            R"js(le":"slo.latency.burn","series":"test.lat_ns","severity":"warn","v)js"
            R"js(alue_milli":500000,"for_ns":0}],)js" "\n"
            R"js("events": [{"time_ns":101000000000,"severity":"info","component":")js"
            R"js(test","name":"tick","fields":{"i":0,"neg":0,"s":"x\"y"}},{"time_ns)js"
            R"js(":102000000000,"severity":"info","component":"test","name":"tick",)js"
            R"js("fields":{"i":1,"neg":-1,"s":"x\"y"}},{"time_ns":103000000000,"sev)js"
            R"js(erity":"warn","component":"telemetry","name":"alert.firing","field)js"
            R"js(s":{"rule":"slo.latency.burn","series":"test.lat_ns","value_milli")js"
            R"js(:500000,"for_ns":0}}],)js" "\n"
            R"js("windows": [{"start_ns":101000000000,"end_ns":102000000000,"counte)js"
            R"js(rs":{"test.work":1},"gauges":{"test.level":0},"histograms":{"test.)js"
            R"js(lat_ns":{"count":1,"sum":50,"p50":63,"p99":63}}},{"start_ns":10200)js"
            R"js(0000000,"end_ns":103000000000,"counters":{"test.work":6},"gauges":)js"
            R"js({"test.level":-1},"histograms":{"test.lat_ns":{"count":1,"sum":150)js"
            R"js(,"p50":255,"p99":255}}}],)js" "\n"
            R"js("flight_records": {"router \"1\"":[{"seq":0,"time_ns":9000000001,")js"
            R"js(component":"router","verdict":3,"reason":"auth-failed","forced_by_)js"
            R"js(drop":true,"src_as":281474976710766,"res_id":4242,"version":2,"hop)js"
            R"js(":1,"if_in":3,"if_eg":4,"timestamp":4000000000,"wire_bytes":1500,")js"
            R"js(exp_time":1700000000,"hvf_got":"dead000f","hvf_want":"beef10ff","d)js"
            R"js(upsup_verdict":1,"ofd_verdict":0,"bucket_available_bytes":18446744)js"
            R"js(073709551615},{"seq":1,"time_ns":9000000001,"component":"router",")js"
            R"js(verdict":3,"reason":"auth-failed","forced_by_drop":true,"src_as":2)js"
            R"js(81474976710766,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg")js"
            R"js(:4,"timestamp":4000000000,"wire_bytes":1500,"exp_time":1700000000})js"
            R"js(],"gateway":[]},)js" "\n"
            R"js("faults": {"msg_delivered":0,"msg_dropped":0,"msg_duplicated":0,"m)js"
            R"js(sg_delayed":0,"link_drops":0,"wal_faults":0},)js" "\n"
            R"js("spans": [{"name":"1-110","category":"bus","id":1,"parent":-1,"dep)js"
            R"js(th":0,"start_ns":0,"duration_ns":50,"bytes":96,"args":{"res_id":"4)js"
            R"js(2"}},{"name":"1-111","category":"bus","id":2,"parent":0,"depth":1,)js"
            R"js("start_ns":10,"duration_ns":30,"bytes":64},{"name":"1-112","catego)js"
            R"js(ry":"bus","id":3,"parent":-1,"depth":0,"start_ns":60,"duration_ns")js"
            R"js(:0,"bytes":8}],)js" "\n"
            R"js("sections": {"note":{"hello":[1,2]}})js" "\n"
            R"js(})js" "\n");
  EXPECT_EQ(bundles[1],
            R"js({)js" "\n"
            R"js("schema": "colibri.incident.v1",)js" "\n"
            R"js("id": 1,)js" "\n"
            R"js("time_ns": 137000000000,)js" "\n"
            R"js("trigger": {"edge":"firing","time_ns":137000000000,"rule":"test.ga)js"
            R"js(uge-high","series":"test.level","severity":"error","value_milli":3)js"
            R"js(000,"for_ns":0},)js" "\n"
            R"js("suppressed": [{"time_ns":105000000000,"rule":"test.gauge-high"},{)js"
            R"js("time_ns":105000000000,"rule":"test.gauge-\"higher\""}],)js" "\n"
            R"js("alerts": [{"name":"test.gauge-high","state":"firing","severity":")js"
            R"js(error","value_milli":3000,"has_value":true,"since_ns":137000000000)js"
            R"js(,"times_fired":2},{"name":"test.gauge-\"higher\"","state":"firing")js"
            R"js(,"severity":"error","value_milli":3000,"has_value":true,"since_ns")js"
            R"js(:137000000000,"times_fired":2}],)js" "\n"
            R"js("slos": [{"name":"latency","state":"inactive","burn_rate_milli":0,)js"
            R"js("budget_remaining_milli":0,"bad":0,"total":0}],)js" "\n"
            R"js("recent_transitions": [{"edge":"firing","time_ns":103000000000,"ru)js"
            R"js(le":"slo.latency.burn","series":"test.lat_ns","severity":"warn","v)js"
            R"js(alue_milli":500000,"for_ns":0},{"edge":"firing","time_ns":10500000)js"
            R"js(0000,"rule":"test.gauge-high","series":"test.level","severity":"er)js"
            R"js(ror","value_milli":5000,"for_ns":0},{"edge":"firing","time_ns":105)js"
            R"js(000000000,"rule":"test.gauge-\"higher\"","series":"test.level","se)js"
            R"js(verity":"error","value_milli":5000,"for_ns":0},{"edge":"resolved",)js"
            R"js("time_ns":106000000000,"rule":"test.gauge-high","series":"test.lev)js"
            R"js(el","severity":"info","value_milli":-1000,"for_ns":0},{"edge":"res)js"
            R"js(olved","time_ns":106000000000,"rule":"test.gauge-\"higher\"","seri)js"
            R"js(es":"test.level","severity":"info","value_milli":-1000,"for_ns":0})js"
            R"js(,{"edge":"resolved","time_ns":114000000000,"rule":"slo.latency.bur)js"
            R"js(n","series":"test.lat_ns","severity":"info","value_milli":0,"for_n)js"
            R"js(s":0},{"edge":"firing","time_ns":137000000000,"rule":"test.gauge-h)js"
            R"js(igh","series":"test.level","severity":"error","value_milli":3000,")js"
            R"js(for_ns":0}],)js" "\n"
            R"js("events": [{"time_ns":106000000000,"severity":"info","component":")js"
            R"js(telemetry","name":"alert.resolved","fields":{"rule":"test.gauge-\")js"
            R"js(higher\"","series":"test.level","value_milli":-1000}},{"time_ns":1)js"
            R"js(14000000000,"severity":"info","component":"telemetry","name":"aler)js"
            R"js(t.resolved","fields":{"rule":"slo.latency.burn","series":"test.lat)js"
            R"js(_ns","value_milli":0}},{"time_ns":137000000000,"severity":"error",)js"
            R"js("component":"telemetry","name":"alert.firing","fields":{"rule":"te)js"
            R"js(st.gauge-high","series":"test.level","value_milli":3000,"for_ns":0)js"
            R"js(}},{"time_ns":137000000000,"severity":"error","component":"telemet)js"
            R"js(ry","name":"alert.firing","fields":{"rule":"test.gauge-\"higher\"")js"
            R"js(,"series":"test.level","value_milli":3000,"for_ns":0}}],)js" "\n"
            R"js("windows": [{"start_ns":135000000000,"end_ns":136000000000,"counte)js"
            R"js(rs":{"test.work":0},"gauges":{"test.level":-1},"histograms":{"test)js"
            R"js(.lat_ns":{"count":0,"sum":0,"p50":0,"p99":0}}},{"start_ns":1360000)js"
            R"js(00000,"end_ns":137000000000,"counters":{"test.work":0},"gauges":{")js"
            R"js(test.level":3},"histograms":{"test.lat_ns":{"count":0,"sum":0,"p50)js"
            R"js(":0,"p99":0}}}],)js" "\n"
            R"js("flight_records": {"router \"1\"":[{"seq":0,"time_ns":9000000001,")js"
            R"js(component":"router","verdict":3,"reason":"auth-failed","forced_by_)js"
            R"js(drop":true,"src_as":281474976710766,"res_id":4242,"version":2,"hop)js"
            R"js(":1,"if_in":3,"if_eg":4,"timestamp":4000000000,"wire_bytes":1500,")js"
            R"js(exp_time":1700000000,"hvf_got":"dead000f","hvf_want":"beef10ff","d)js"
            R"js(upsup_verdict":1,"ofd_verdict":0,"bucket_available_bytes":18446744)js"
            R"js(073709551615},{"seq":1,"time_ns":9000000001,"component":"router",")js"
            R"js(verdict":3,"reason":"auth-failed","forced_by_drop":true,"src_as":2)js"
            R"js(81474976710766,"res_id":4242,"version":2,"hop":1,"if_in":3,"if_eg")js"
            R"js(:4,"timestamp":4000000000,"wire_bytes":1500,"exp_time":1700000000})js"
            R"js(],"gateway":[]},)js" "\n"
            R"js("faults": {"msg_delivered":0,"msg_dropped":0,"msg_duplicated":0,"m)js"
            R"js(sg_delayed":0,"link_drops":0,"wal_faults":0},)js" "\n"
            R"js("spans": [{"name":"1-110","category":"bus","id":1,"parent":-1,"dep)js"
            R"js(th":0,"start_ns":0,"duration_ns":50,"bytes":96,"args":{"res_id":"4)js"
            R"js(2"}},{"name":"1-111","category":"bus","id":2,"parent":0,"depth":1,)js"
            R"js("start_ns":10,"duration_ns":30,"bytes":64},{"name":"1-112","catego)js"
            R"js(ry":"bus","id":3,"parent":-1,"depth":0,"start_ns":60,"duration_ns")js"
            R"js(:0,"bytes":8}],)js" "\n"
            R"js("sections": {"note":{"hello":[1,2]}})js" "\n"
            R"js(})js" "\n");
}

}  // namespace
}  // namespace colibri
