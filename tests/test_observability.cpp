// Observability layer: packet flight recorder (ring semantics,
// deterministic sampling, record-on-drop, per-verdict forensics),
// structured event log (schema round-trip, bounding, severity filter),
// OpenMetrics exposition (strict parse + agreement with the JSON
// snapshot), multi-source snapshot/reset interleaving, cross-kind name
// collisions, and the end-to-end audit trail of the obs scenario.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "colibri/app/obs.hpp"
#include "colibri/app/obs_cli.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/ofd.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/openmetrics.hpp"

namespace colibri {
namespace {

using dataplane::BorderRouter;
using dataplane::FastPacket;
using dataplane::Gateway;
using telemetry::Event;
using telemetry::EventLog;
using telemetry::FlightRecord;
using telemetry::FlightRecorder;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::Severity;

// --- FlightRecorder ring semantics ------------------------------------------

FlightRecord make_record(std::uint64_t res_id) {
  FlightRecord r;
  r.res_id = static_cast<ResId>(res_id);
  return r;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder r5(FlightRecorder::Config{.capacity = 5});
  EXPECT_EQ(r5.capacity(), 8u);
  FlightRecorder r8(FlightRecorder::Config{.capacity = 8});
  EXPECT_EQ(r8.capacity(), 8u);
}

TEST(FlightRecorderTest, WrapAroundKeepsNewestOldestFirst) {
  FlightRecorder rec(FlightRecorder::Config{.capacity = 8});
  for (std::uint64_t i = 0; i < 20; ++i) rec.commit(make_record(i));

  EXPECT_EQ(rec.committed(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  EXPECT_EQ(rec.size(), 8u);

  const auto records = rec.records();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 12 + i);           // oldest survivor first
    EXPECT_EQ(records[i].res_id, 12 + i);        // payload matches seq
  }
}

TEST(FlightRecorderTest, DrainClearsButKeepsRecording) {
  FlightRecorder rec(FlightRecorder::Config{.capacity = 4});
  rec.commit(make_record(1));
  rec.commit(make_record(2));
  EXPECT_EQ(rec.drain().size(), 2u);
  EXPECT_EQ(rec.size(), 0u);
  rec.commit(make_record(3));
  EXPECT_EQ(rec.size(), 1u);
}

TEST(FlightRecorderTest, SamplingIsDeterministic) {
  const auto pattern = [](FlightRecorder& r, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += r.sample_tick() ? '1' : '0';
    return out;
  };
  FlightRecorder a(FlightRecorder::Config{.sample_every = 4});
  FlightRecorder b(FlightRecorder::Config{.sample_every = 4});
  // Same stream, same recorder config -> identical keep decisions, with
  // exactly one keep per period.
  EXPECT_EQ(pattern(a, 16), "0001000100010001");
  EXPECT_EQ(pattern(b, 16), "0001000100010001");

  FlightRecorder every(FlightRecorder::Config{.sample_every = 1});
  EXPECT_EQ(pattern(every, 4), "1111");
  FlightRecorder never(FlightRecorder::Config{.sample_every = 0});
  EXPECT_EQ(pattern(never, 4), "0000");
}

TEST(FlightRecorderTest, DrainPreservesSamplingPhase) {
  FlightRecorder rec(FlightRecorder::Config{.sample_every = 4});
  EXPECT_FALSE(rec.sample_tick());
  EXPECT_FALSE(rec.sample_tick());
  rec.drain();
  EXPECT_FALSE(rec.sample_tick());
  EXPECT_TRUE(rec.sample_tick());  // 4th tick overall
}

TEST(FlightRecorderTest, ArmedReflectsCaptureModes) {
  FlightRecorder rec(
      FlightRecorder::Config{.sample_every = 0, .record_drops = false});
  EXPECT_FALSE(rec.armed());
  rec.set_sampling(2);
  EXPECT_TRUE(rec.armed());
  rec.set_sampling(0);
  rec.set_record_drops(true);
  EXPECT_TRUE(rec.armed());
}

// --- Recorder wired into the data path --------------------------------------

const AsId kSrcAs{1, 10};
const AsId kMidAs{1, 20};
const AsId kDstAs{1, 30};

drkey::Key128 key_of(std::uint8_t seed) {
  drkey::Key128 k;
  k.bytes.fill(seed);
  return k;
}

// The DataPathTest topology from test_dataplane, with a private metrics
// registry so counters can be asserted in isolation.
class RecordedPathTest : public ::testing::Test {
 protected:
  RecordedPathTest()
      : gateway_(kSrcAs, clock_, dataplane::GatewayConfig{}, &registry_),
        router_src_(kSrcAs, key_of(1), clock_, &registry_),
        router_mid_(kMidAs, key_of(2), clock_, &registry_) {
    clock_.set(100 * kNsPerSec);
    resinfo_.src_as = kSrcAs;
    resinfo_.res_id = 42;
    resinfo_.bw_kbps = 100'000;
    resinfo_.exp_time = 200;
    resinfo_.version = 1;
    eerinfo_.src_host = HostAddr::from_u64(0xAAA);
    eerinfo_.dst_host = HostAddr::from_u64(0xBBB);
    path_ = {topology::Hop{kSrcAs, kNoInterface, 1},
             topology::Hop{kMidAs, 2, 3},
             topology::Hop{kDstAs, 4, kNoInterface}};
    std::vector<dataplane::HopAuth> sigmas;
    const drkey::Key128 keys[] = {key_of(1), key_of(2), key_of(3)};
    for (size_t i = 0; i < path_.size(); ++i) {
      crypto::Aes128 cipher(keys[i].bytes.data());
      sigmas.push_back(dataplane::compute_hopauth(
          cipher, resinfo_, eerinfo_, path_[i].ingress, path_[i].egress));
    }
    EXPECT_TRUE(gateway_.install(resinfo_, eerinfo_, path_, sigmas));
  }

  FastPacket fresh_packet() {
    FastPacket pkt;
    EXPECT_EQ(gateway_.process(42, 500, pkt), Gateway::Verdict::kOk);
    return pkt;
  }

  SimClock clock_;
  MetricsRegistry registry_;
  Gateway gateway_;
  BorderRouter router_src_;
  BorderRouter router_mid_;
  proto::ResInfo resinfo_;
  proto::EerInfo eerinfo_;
  std::vector<topology::Hop> path_;
};

TEST_F(RecordedPathTest, CleanTrafficNotRecordedWithoutSampling) {
  FlightRecorder rec;  // sample_every = 0, record_drops = true
  router_src_.attach_flight_recorder(&rec);
  for (int i = 0; i < 10; ++i) {
    FastPacket pkt = fresh_packet();
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
  }
  EXPECT_EQ(rec.committed(), 0u);
  EXPECT_EQ(router_src_.snapshot().forwarded, 10u);
}

TEST_F(RecordedPathTest, SampledCleanPacketsCaptureHvfMatch) {
  FlightRecorder rec(FlightRecorder::Config{.sample_every = 2});
  router_src_.attach_flight_recorder(&rec);
  for (int i = 0; i < 10; ++i) {
    FastPacket pkt = fresh_packet();
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
  }
  const auto records = rec.records();
  ASSERT_EQ(records.size(), 5u);  // every 2nd of 10
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.component, FlightRecorder::kRouter);
    EXPECT_EQ(r.verdict,
              static_cast<std::uint8_t>(BorderRouter::Verdict::kForward));
    EXPECT_FALSE(r.forced_by_drop);
    EXPECT_EQ(r.res_id, 42u);
    EXPECT_EQ(r.src_as, kSrcAs.raw());
    EXPECT_TRUE(r.hvf_checked);
    EXPECT_EQ(r.hvf_got, r.hvf_want);  // valid packet: prefixes agree
  }
}

TEST_F(RecordedPathTest, EachRouterDropClassRecordsMatchingReason) {
  FlightRecorder rec;  // drops only
  router_src_.attach_flight_recorder(&rec);
  router_mid_.attach_flight_recorder(&rec);

  // kBadHvf: tampered bandwidth field.
  {
    FastPacket pkt = fresh_packet();
    pkt.resinfo.bw_kbps *= 2;
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kBadHvf);
  }
  // kMalformed: empty hop list.
  {
    FastPacket pkt;
    pkt.num_hops = 0;
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kMalformed);
  }
  // kExpired: validity passed between stamping and validation.
  {
    FastPacket pkt = fresh_packet();
    clock_.set(static_cast<TimeNs>(resinfo_.exp_time) * kNsPerSec + 1);
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kExpired);
    clock_.set(100 * kNsPerSec);
  }
  // kBlocked: source AS on the blocklist.
  dataplane::Blocklist blocklist(&registry_);
  {
    router_mid_.attach_blocklist(&blocklist);
    blocklist.block(kSrcAs);
    FastPacket pkt = fresh_packet();
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
    ASSERT_EQ(router_mid_.process(pkt), BorderRouter::Verdict::kBlocked);
    router_mid_.attach_blocklist(nullptr);
  }
  // kReplay: the same packet processed twice.
  dataplane::DuplicateSuppression dupsup;
  {
    router_mid_.attach_dupsup(&dupsup);
    FastPacket pkt = fresh_packet();
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kForward);
    FastPacket replay = pkt;
    ASSERT_EQ(router_mid_.process(pkt), BorderRouter::Verdict::kForward);
    ASSERT_EQ(router_mid_.process(replay), BorderRouter::Verdict::kReplay);
    router_mid_.attach_dupsup(nullptr);
  }
  // kOveruse: OFD pre-warmed to a confirmed overuser of this flow.
  dataplane::OverUseFlowDetector ofd(dataplane::OfdConfig{}, &registry_);
  {
    router_src_.attach_ofd(&ofd);
    auto v = dataplane::OverUseFlowDetector::Verdict::kOk;
    TimeNs t = clock_.now_ns();
    for (int i = 0;
         i < 100'000 && v != dataplane::OverUseFlowDetector::Verdict::kOveruse;
         ++i) {
      t += 1'000'000;
      v = ofd.update(kSrcAs, 42, 1'000'000, resinfo_.bw_kbps, t);
    }
    ASSERT_EQ(v, dataplane::OverUseFlowDetector::Verdict::kOveruse);
    // Drain the watchlist bucket below the routed packet's wire size so
    // the next on-path packet is a certain overuse, not kWatched.
    for (int i = 0; i < 1'000'000 &&
                    ofd.update(kSrcAs, 42, 100, resinfo_.bw_kbps, t) !=
                        dataplane::OverUseFlowDetector::Verdict::kOveruse;
         ++i) {
    }
    clock_.set(t);  // keep the router's clock at the pre-warm time
    FastPacket pkt = fresh_packet();
    ASSERT_EQ(router_src_.process(pkt), BorderRouter::Verdict::kOveruse);
    router_src_.attach_ofd(nullptr);
  }
  router_src_.attach_flight_recorder(nullptr);
  router_mid_.attach_flight_recorder(nullptr);

  const auto records = rec.records();
  ASSERT_EQ(records.size(), 6u);
  const BorderRouter::Verdict expected[] = {
      BorderRouter::Verdict::kBadHvf,  BorderRouter::Verdict::kMalformed,
      BorderRouter::Verdict::kExpired, BorderRouter::Verdict::kBlocked,
      BorderRouter::Verdict::kReplay,  BorderRouter::Verdict::kOveruse,
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].verdict, static_cast<std::uint8_t>(expected[i]))
        << "record " << i;
    // The recorded reason is the single source of truth: it must agree
    // with errc_from_verdict for the recorded verdict.
    EXPECT_EQ(records[i].errc, static_cast<std::uint8_t>(
                                   errc_from_verdict(expected[i])))
        << "record " << i;
    EXPECT_TRUE(records[i].forced_by_drop);
  }
  // Forensic detail per class: the HVF mismatch kept both prefixes; the
  // replay kept the dupsup verdict; the overuse kept the OFD verdict.
  EXPECT_TRUE(records[0].hvf_checked);
  EXPECT_NE(records[0].hvf_got, records[0].hvf_want);
  EXPECT_EQ(records[4].dupsup_verdict,
            static_cast<std::uint8_t>(
                dataplane::DuplicateSuppression::Verdict::kDuplicate));
  EXPECT_EQ(records[5].ofd_verdict,
            static_cast<std::uint8_t>(
                dataplane::OverUseFlowDetector::Verdict::kOveruse));
}

TEST_F(RecordedPathTest, GatewayDropClassesRecordMatchingReason) {
  FlightRecorder rec;  // drops only
  gateway_.attach_flight_recorder(&rec);

  FastPacket out;
  ASSERT_EQ(gateway_.process(7, 500, out), Gateway::Verdict::kNoReservation);
  // Rate-limit: flood far beyond the reserved 100 Mbps without letting
  // the bucket refill.
  Gateway::Verdict v = Gateway::Verdict::kOk;
  for (int i = 0; i < 100'000 && v != Gateway::Verdict::kRateLimited; ++i) {
    v = gateway_.process(42, 1400, out);
  }
  ASSERT_EQ(v, Gateway::Verdict::kRateLimited);
  clock_.set(static_cast<TimeNs>(resinfo_.exp_time) * kNsPerSec + 1);
  ASSERT_EQ(gateway_.process(42, 500, out), Gateway::Verdict::kExpired);
  gateway_.attach_flight_recorder(nullptr);

  const auto records = rec.records();
  ASSERT_EQ(records.size(), 3u);
  const Gateway::Verdict expected[] = {Gateway::Verdict::kNoReservation,
                                       Gateway::Verdict::kRateLimited,
                                       Gateway::Verdict::kExpired};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].component, FlightRecorder::kGateway);
    EXPECT_EQ(records[i].verdict, static_cast<std::uint8_t>(expected[i]));
    EXPECT_EQ(records[i].errc, static_cast<std::uint8_t>(
                                   errc_from_verdict(expected[i])));
    EXPECT_TRUE(records[i].forced_by_drop);
  }
  // The rate-limit record captured the bucket state at decision time.
  EXPECT_TRUE(records[1].bucket_checked);
  EXPECT_LT(records[1].bucket_available_bytes, 1400u);
}

TEST_F(RecordedPathTest, AttachedButDisarmedRecordsNothing) {
  FlightRecorder rec(
      FlightRecorder::Config{.sample_every = 0, .record_drops = false});
  router_src_.attach_flight_recorder(&rec);
  FastPacket good = fresh_packet();
  ASSERT_EQ(router_src_.process(good), BorderRouter::Verdict::kForward);
  FastPacket bad = fresh_packet();
  bad.resinfo.bw_kbps *= 2;
  ASSERT_EQ(router_src_.process(bad), BorderRouter::Verdict::kBadHvf);
  EXPECT_EQ(rec.committed(), 0u);
  // Counters still advance: the recorder only adds detail, never
  // replaces accounting.
  EXPECT_EQ(router_src_.snapshot().forwarded, 1u);
  EXPECT_EQ(router_src_.snapshot().bad_hvf, 1u);
}

TEST_F(RecordedPathTest, RecorderJsonlHasOneObjectPerRecord) {
  FlightRecorder rec;
  router_src_.attach_flight_recorder(&rec);
  FastPacket bad = fresh_packet();
  bad.resinfo.bw_kbps *= 2;
  ASSERT_EQ(router_src_.process(bad), BorderRouter::Verdict::kBadHvf);

  const std::string jsonl = rec.to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"component\":\"router\""), std::string::npos);
    EXPECT_NE(line.find("\"reason\":\"auth-failed\""), std::string::npos);
    EXPECT_NE(line.find("\"hvf_got\":"), std::string::npos);
  }
  EXPECT_EQ(n, rec.size());
}

// --- Structured event log ----------------------------------------------------

TEST(EventLogTest, SchemaRoundTripsThroughJson) {
  SimClock clock(1'234'567'890);
  EventLog log(clock);
  log.emit(Severity::kWarn, "cserv", "request.denied")
      .u64("res_id", 42)
      .i64("delta", -7)
      .str("reason", "bandwidth-unavailable")
      .str("quoted", "a \"b\" \\ c")
      .u64("max", UINT64_MAX);

  const auto events = log.events();
  ASSERT_EQ(events.size(), 1u);
  const std::string json = events[0].to_json();

  const auto parsed = Event::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->time_ns, 1'234'567'890);
  EXPECT_EQ(parsed->severity, Severity::kWarn);
  EXPECT_EQ(parsed->component, "cserv");
  EXPECT_EQ(parsed->name, "request.denied");
  ASSERT_EQ(parsed->fields.size(), 5u);
  EXPECT_EQ(parsed->u64("res_id"), 42u);
  ASSERT_NE(parsed->field("delta"), nullptr);
  EXPECT_EQ(parsed->field("delta")->i, -7);
  EXPECT_EQ(parsed->str("reason"), "bandwidth-unavailable");
  EXPECT_EQ(parsed->str("quoted"), "a \"b\" \\ c");
  EXPECT_EQ(parsed->u64("max"), UINT64_MAX);  // full range, not clamped
  // The round-trip is exact: re-serializing gives the same line.
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(EventLogTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(Event::from_json("").has_value());
  EXPECT_FALSE(Event::from_json("not json").has_value());
  EXPECT_FALSE(Event::from_json("{\"time_ns\":1}").has_value());
}

TEST(EventLogTest, FromJsonRejectsMalformedInputTable) {
  // A line the exporter actually emits; every mutation of it below must
  // be rejected, and the pristine line must keep parsing.
  const std::string ok =
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"cserv\","
      "\"name\":\"denied\",\"fields\":{\"res_id\":42,\"reason\":\"full\"}}";
  ASSERT_TRUE(Event::from_json(ok).has_value());

  const std::string cases[] = {
      // Trailing garbage after the closing brace.
      ok + " ",
      ok + "x",
      ok + "}",
      ok + "\n",
      ok + ok,
      // Duplicate keys, both in fields and at the top level.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{\"k\":1,\"k\":2}}",
      "{\"time_ns\":1,\"time_ns\":1,\"seq\":2,\"severity\":\"warn\","
      "\"component\":\"c\",\"name\":\"n\",\"fields\":{}}",
      // Trailing commas.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{\"k\":1,}}",
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{},}",
      // Invalid UTF-8 in a string: stray continuation byte, truncated
      // 2-byte sequence, overlong encoding of '/', UTF-16 surrogate.
      std::string("{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\","
                  "\"component\":\"c\x80\",\"name\":\"n\",\"fields\":{}}"),
      std::string("{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\","
                  "\"component\":\"c\",\"name\":\"n\xC3\",\"fields\":{}}"),
      std::string("{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\","
                  "\"component\":\"c\",\"name\":\"\xC0\xAF\",\"fields\":{}}"),
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"\\ud800\",\"fields\":{}}",
      // Malformed \u escapes: too short, non-hex.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"\\u12\",\"fields\":{}}",
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"\\uzzzz\",\"fields\":{}}",
      // Unknown severity.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"loud\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{}}",
      // A missing comma between fields.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{\"k\":1\"j\":2}}",
      // Integers outside u64 / i64 are errors, not clamped.
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{\"k\":18446744073709551616}}",
      "{\"time_ns\":1,\"seq\":2,\"severity\":\"warn\",\"component\":\"c\","
      "\"name\":\"n\",\"fields\":{\"k\":-9223372036854775809}}",
      "{\"time_ns\":9223372036854775808,\"seq\":2,\"severity\":\"warn\","
      "\"component\":\"c\",\"name\":\"n\",\"fields\":{}}",
      "{\"time_ns\":1,\"seq\":18446744073709551616,\"severity\":\"warn\","
      "\"component\":\"c\",\"name\":\"n\",\"fields\":{}}",
  };
  for (const std::string& line : cases) {
    EXPECT_FALSE(Event::from_json(line).has_value()) << "accepted: " << line;
  }

  // Every proper prefix of a valid line is truncated and must fail.
  for (std::size_t len = 0; len < ok.size(); ++len) {
    EXPECT_FALSE(Event::from_json(ok.substr(0, len)).has_value())
        << "accepted truncation at " << len;
  }
}

TEST(EventLogTest, BoundedCapacityDropsOldest) {
  SimClock clock(0);
  EventLog log(clock, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    log.emit(Severity::kInfo, "test", "e").u64("n", i);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  const auto events = log.events();
  EXPECT_EQ(events.front().u64("n"), 2u);  // 0 and 1 were evicted
  EXPECT_EQ(events.back().u64("n"), 5u);
}

TEST(EventLogTest, SeverityFloorAndDisableSuppress) {
  SimClock clock(0);
  EventLog log(clock);
  log.set_min_severity(Severity::kWarn);
  log.emit(Severity::kInfo, "test", "below");
  log.emit(Severity::kError, "test", "above");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].name, "above");

  log.set_enabled(false);
  log.emit(Severity::kError, "test", "while-disabled");
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLogTest, JsonlRoundTripsEveryLine) {
  SimClock clock(50);
  EventLog log(clock);
  log.emit(Severity::kInfo, "cserv", "eer.admitted").u64("res_id", 1);
  clock.advance(10);
  log.emit(Severity::kError, "blocklist", "as.blocked")
      .str("offender", "2-999");

  std::istringstream lines(log.to_jsonl());
  std::string line;
  std::vector<Event> parsed;
  while (std::getline(lines, line)) {
    auto ev = Event::from_json(line);
    ASSERT_TRUE(ev.has_value()) << line;
    parsed.push_back(*ev);
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_LT(parsed[0].time_ns, parsed[1].time_ns);
  EXPECT_EQ(parsed[1].str("offender"), "2-999");
}

TEST(EventLogTest, SequenceNumbersAreMonotonicAndRoundTrip) {
  SimClock clock(0);  // frozen clock: every event shares one timestamp
  EventLog log(clock);
  for (int i = 0; i < 5; ++i) {
    log.emit(Severity::kInfo, "test", "tick").u64("n", i);
  }
  const auto events = log.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_EQ(events[i].time_ns, events[0].time_ns);  // seq breaks the tie
  }
  // seq survives the exact JSON round-trip.
  const std::string json = events[3].to_json();
  EXPECT_NE(json.find("\"seq\":"), std::string::npos);
  const auto parsed = Event::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, events[3].seq);
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(EventLogTest, SequenceIsProcessGlobalAcrossLogs) {
  SimClock clock(0);
  EventLog a(clock);
  EventLog b(clock);
  a.emit(Severity::kInfo, "test", "first");
  b.emit(Severity::kInfo, "test", "second");
  a.emit(Severity::kInfo, "test", "third");
  // Interleaved emissions across two logs still totally order.
  EXPECT_LT(a.events()[0].seq, b.events()[0].seq);
  EXPECT_LT(b.events()[0].seq, a.events()[1].seq);
}

// --- OpenMetrics exposition --------------------------------------------------

// Strict line-oriented parse of the subset of the OpenMetrics text
// format that to_openmetrics emits. Fails the test on any line that is
// neither a well-formed comment nor a well-formed sample.
struct ParsedExposition {
  std::map<std::string, std::string> types;   // family -> counter|gauge|...
  std::map<std::string, std::string> helps;   // family -> escaped help text
  std::map<std::string, double> samples;      // full series name -> value
  bool saw_eof = false;
};

ParsedExposition parse_openmetrics(const std::string& text) {
  ParsedExposition out;
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_FALSE(out.saw_eof) << "content after # EOF: " << line;
    if (line == "# EOF") {
      out.saw_eof = true;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const auto space = rest.find(' ');
      EXPECT_NE(space, std::string::npos) << line;
      if (space == std::string::npos) continue;
      const std::string family = rest.substr(0, space);
      const std::string help = rest.substr(space + 1);
      EXPECT_FALSE(help.empty()) << line;
      // Spec ordering: HELP precedes TYPE for its family, once.
      EXPECT_EQ(out.types.count(family), 0u)
          << "HELP after TYPE for " << family;
      EXPECT_EQ(out.helps.count(family), 0u)
          << "duplicate HELP for " << family;
      // Escaping: a raw backslash must be part of \\ or \n.
      for (std::size_t i = 0; i < help.size(); ++i) {
        if (help[i] != '\\') continue;
        EXPECT_LT(i + 1, help.size()) << line;
        if (i + 1 >= help.size()) break;
        EXPECT_TRUE(help[i + 1] == '\\' || help[i + 1] == 'n') << line;
        ++i;
      }
      out.helps[family] = help;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream is(line.substr(7));
      std::string family, type;
      is >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      EXPECT_EQ(out.types.count(family), 0u)
          << "duplicate TYPE for " << family;
      out.types[family] = type;
      continue;
    }
    EXPECT_FALSE(line.empty() || line[0] == '#') << "bad line: " << line;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    std::size_t pos = 0;
    const double value = std::stod(line.substr(space + 1), &pos);
    EXPECT_EQ(pos, line.size() - space - 1) << "trailing junk: " << line;
    // Series name: metric name chars, optionally one {le="..."} matcher.
    const auto brace = series.find('{');
    const std::string base = series.substr(0, brace);
    for (char c : base) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char in: " << series;
    }
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << series;
      EXPECT_EQ(series.compare(brace, 5, "{le=\""), 0) << series;
    }
    EXPECT_EQ(out.samples.count(series), 0u) << "duplicate series " << series;
    out.samples[series] = value;
  }
  EXPECT_TRUE(out.saw_eof) << "missing # EOF terminator";
  return out;
}

// Asserts that the OpenMetrics rendering of `snap` carries exactly the
// same values as the snapshot itself (which to_json() serializes), for
// every counter, gauge, and histogram.
void expect_exposition_agrees(const MetricsSnapshot& snap,
                              const ParsedExposition& exp) {
  for (const auto& [name, value] : snap.counters) {
    const std::string om = telemetry::openmetrics_name(name);
    EXPECT_EQ(exp.types.at(om), "counter") << name;
    EXPECT_EQ(exp.samples.at(om + "_total"), static_cast<double>(value))
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string om = telemetry::openmetrics_name(name);
    EXPECT_EQ(exp.types.at(om), "gauge") << name;
    EXPECT_EQ(exp.samples.at(om), static_cast<double>(value)) << name;
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string om = telemetry::openmetrics_name(name);
    EXPECT_EQ(exp.types.at(om), "histogram") << name;
    EXPECT_EQ(exp.samples.at(om + "_count"), static_cast<double>(h.count))
        << name;
    EXPECT_EQ(exp.samples.at(om + "_sum"), static_cast<double>(h.sum))
        << name;
    // Cumulative buckets: monotone in the numeric le order, ending at
    // +Inf == total count.
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    const std::string prefix = om + "_bucket{le=\"";
    for (const auto& [series, value] : exp.samples) {
      if (series.rfind(prefix, 0) != 0) continue;
      const std::string le =
          series.substr(prefix.size(), series.size() - prefix.size() - 2);
      buckets.emplace_back(le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::stod(le),
                           value);
    }
    std::sort(buckets.begin(), buckets.end());
    ASSERT_FALSE(buckets.empty()) << name;
    double prev = 0;
    for (const auto& [le, value] : buckets) {
      EXPECT_GE(value, prev) << name << " le=" << le;
      prev = value;
    }
    EXPECT_TRUE(std::isinf(buckets.back().first)) << name;
    EXPECT_EQ(buckets.back().second, static_cast<double>(h.count)) << name;
  }
}

TEST(OpenMetricsTest, NameSanitization) {
  EXPECT_EQ(telemetry::openmetrics_name("router.drop.auth-failed"),
            "colibri_router_drop_auth_failed");
  EXPECT_EQ(telemetry::openmetrics_name("gateway.ok"), "colibri_gateway_ok");
}

TEST(OpenMetricsTest, StrictParseAndAgreementWithSnapshot) {
  MetricsRegistry registry;
  registry.counter("cserv.requests").inc(17);
  registry.counter("router.drop.auth-failed").inc(3);
  registry.gauge("bus.inflight").set(-2);
  auto& h = registry.histogram("cserv.admission_latency_ns");
  for (std::uint64_t v : {0ull, 1ull, 700ull, 900ull, 1'000'000ull}) {
    h.record(v);
  }

  const MetricsSnapshot snap = registry.snapshot();
  const ParsedExposition exp = parse_openmetrics(to_openmetrics(snap));
  expect_exposition_agrees(snap, exp);
  // Spot-check the rendered series names.
  EXPECT_EQ(exp.samples.at("colibri_cserv_requests_total"), 17.0);
  EXPECT_EQ(exp.samples.at("colibri_bus_inflight"), -2.0);
  EXPECT_EQ(exp.samples.at("colibri_cserv_admission_latency_ns_count"), 5.0);
}

// --- library parser (telemetry::parse_openmetrics) ---------------------------

TEST(OpenMetricsParserTest, RoundTripsTheEmitterOutput) {
  MetricsRegistry registry;
  registry.counter("cserv.requests").inc(17);
  registry.gauge("bus.inflight").set(-2);
  registry.histogram("cserv.admission_latency_ns").record(700);
  std::string err;
  const auto exp =
      telemetry::parse_openmetrics(to_openmetrics(registry.snapshot()), &err);
  ASSERT_TRUE(exp.has_value()) << err;
  EXPECT_EQ(exp->samples.at("colibri_cserv_requests_total"), 17.0);
  EXPECT_EQ(exp->samples.at("colibri_bus_inflight"), -2.0);
  EXPECT_EQ(exp->types.at("colibri_cserv_requests"), "counter");
  EXPECT_EQ(exp->types.at("colibri_bus_inflight"), "gauge");
  EXPECT_EQ(exp->types.at("colibri_cserv_admission_latency_ns"), "histogram");
  EXPECT_GT(exp->sample_count(), 0u);
}

TEST(OpenMetricsParserTest, RequiresTheEofTerminator) {
  std::string err;
  // Well-formed except for the terminator: must be rejected, so a
  // truncated scrape can never pass for a complete one.
  EXPECT_FALSE(telemetry::parse_openmetrics("colibri_x 1\n", &err));
  EXPECT_NE(err.find("# EOF"), std::string::npos);
  // ...and consumed: nothing may follow it.
  EXPECT_FALSE(
      telemetry::parse_openmetrics("# EOF\ncolibri_x 1\n", &err));
  EXPECT_NE(err.find("after # EOF"), std::string::npos);
  // The minimal valid exposition is the bare terminator.
  const auto empty = telemetry::parse_openmetrics("# EOF\n");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->sample_count(), 0u);
}

TEST(OpenMetricsParserTest, RejectsMalformedLines) {
  const auto bad = [](std::string_view text) {
    return !telemetry::parse_openmetrics(text).has_value();
  };
  EXPECT_TRUE(bad(""));                         // no trailing newline
  EXPECT_TRUE(bad("colibri_x 1\n# EOF"));       // unterminated last line
  EXPECT_TRUE(bad("\n# EOF\n"));                // empty line
  EXPECT_TRUE(bad("# bogus comment\n# EOF\n"));
  EXPECT_TRUE(bad("# TYPE colibri_x summary\n# EOF\n"));  // unknown type
  EXPECT_TRUE(bad("colibri_x\n# EOF\n"));       // sample without value
  EXPECT_TRUE(bad("colibri_x one\n# EOF\n"));   // non-numeric value
  EXPECT_TRUE(bad("9bad 1\n# EOF\n"));          // leading-digit name
  EXPECT_TRUE(bad("colibri_x{le=\"5\" 1\n# EOF\n"));  // unclosed labels
  EXPECT_TRUE(bad("colibri_x 1\ncolibri_x 2\n# EOF\n"));  // duplicate
  EXPECT_TRUE(bad("# TYPE colibri_x counter\n# TYPE colibri_x counter\n"
                  "# EOF\n"));
  EXPECT_TRUE(bad("# TYPE colibri_x counter\n# HELP colibri_x h\n"
                  "# EOF\n"));  // HELP must precede TYPE
}

TEST(OpenMetricsParserTest, AcceptsLabeledSamplesAndReportsLineNumbers) {
  const auto exp = telemetry::parse_openmetrics(
      "# HELP colibri_h hist\n# TYPE colibri_h histogram\n"
      "colibri_h_bucket{le=\"512\"} 3\ncolibri_h_bucket{le=\"+Inf\"} 4\n"
      "colibri_h_sum 900\ncolibri_h_count 4\n# EOF\n");
  ASSERT_TRUE(exp.has_value());
  EXPECT_EQ(exp->samples.at("colibri_h_bucket{le=\"512\"}"), 3.0);
  EXPECT_EQ(exp->helps.at("colibri_h"), "hist");
  std::string err;
  EXPECT_FALSE(telemetry::parse_openmetrics("colibri_a 1\nbad line here\n",
                                            &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(OpenMetricsTest, EscapingHelpers) {
  EXPECT_EQ(telemetry::openmetrics_escape_label("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  EXPECT_EQ(telemetry::openmetrics_escape_help("a\\b\nc\"d"),
            "a\\\\b\\nc\"d");  // quotes are legal in HELP text
}

TEST(OpenMetricsTest, HelpTableMatchesByLongestPrefix) {
  // Specific entry wins over the family entry it is nested under.
  const char* shard_count = telemetry::openmetrics_help(
      "gateway_runtime.shard.count");
  const char* shard_series = telemetry::openmetrics_help(
      "gateway_runtime.shard.0.ring_depth");
  ASSERT_NE(shard_count, nullptr);
  ASSERT_NE(shard_series, nullptr);
  EXPECT_STRNE(shard_count, shard_series);
  EXPECT_NE(telemetry::openmetrics_help("router.stage.hvf_crypto_ns"),
            nullptr);
  EXPECT_EQ(telemetry::openmetrics_help("no.such.family"), nullptr);
}

TEST(OpenMetricsTest, HelpLinesPrecedeTypeAndOnlyKnownFamilies) {
  MetricsRegistry registry;
  registry.counter("router.forwarded").inc(3);
  registry.histogram("router.stage.hvf_crypto_ns").record_shared(512);
  registry.gauge("gateway_runtime.shard.count").set(4);
  registry.counter("unregistered.family").inc(1);

  const MetricsSnapshot snap = registry.snapshot();
  // parse_openmetrics itself asserts HELP-before-TYPE, single HELP per
  // family, and spec escaping of the help text.
  const ParsedExposition exp = parse_openmetrics(to_openmetrics(snap));
  expect_exposition_agrees(snap, exp);
  EXPECT_EQ(exp.helps.at("colibri_router_forwarded"),
            telemetry::openmetrics_help("router.forwarded"));
  EXPECT_EQ(exp.helps.count("colibri_router_stage_hvf_crypto_ns"), 1u);
  EXPECT_EQ(exp.helps.count("colibri_gateway_runtime_shard_count"), 1u);
  // Families without registered help text get no HELP line at all.
  EXPECT_EQ(exp.helps.count("colibri_unregistered_family"), 0u);
  EXPECT_EQ(exp.types.count("colibri_unregistered_family"), 1u);
}

// --- Multi-source snapshot / reset interleaving ------------------------------

TEST(MetricsMultiSourceTest, SnapshotMergesAndResetsInterleave) {
  SimClock clock(0);
  MetricsRegistry registry;
  BorderRouter a(kSrcAs, key_of(1), clock, &registry);
  BorderRouter b(kMidAs, key_of(2), clock, &registry);
  registry.counter("custom.count").inc(7);

  FastPacket malformed;
  malformed.num_hops = 0;
  for (int i = 0; i < 3; ++i) (void)a.process(malformed);
  for (int i = 0; i < 2; ++i) (void)b.process(malformed);

  // Both instances merge into one series.
  MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("router.drop.malformed"), 5u);
  EXPECT_EQ(snap.counters.at("custom.count"), 7u);

  // Source counters reset through their owner; the other source and the
  // owned metrics are untouched.
  a.reset();
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("router.drop.malformed"), 2u);
  EXPECT_EQ(snap.counters.at("custom.count"), 7u);

  // Registry reset zeroes owned metrics only.
  registry.reset();
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("router.drop.malformed"), 2u);
  EXPECT_EQ(snap.counters.at("custom.count"), 0u);

  // A source that keeps recording between snapshots is picked up.
  (void)b.process(malformed);
  EXPECT_EQ(registry.snapshot().counters.at("router.drop.malformed"), 3u);
}

TEST(MetricsMultiSourceTest, DetachedSourceLeavesSnapshot) {
  SimClock clock(0);
  MetricsRegistry registry;
  FastPacket malformed;
  malformed.num_hops = 0;
  {
    BorderRouter a(kSrcAs, key_of(1), clock, &registry);
    (void)a.process(malformed);
    EXPECT_EQ(registry.snapshot().counters.at("router.drop.malformed"), 1u);
    EXPECT_EQ(registry.source_count(), 1u);
  }
  EXPECT_EQ(registry.source_count(), 0u);
  EXPECT_EQ(registry.snapshot().counters.count("router.drop.malformed"), 0u);
}

// --- Cross-kind name collisions ----------------------------------------------

TEST(MetricsCollisionTest, RegistryRejectsCrossKindRegistration) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), std::logic_error);
  // Same-kind re-registration is the documented get-or-create.
  registry.counter("x").inc();
  EXPECT_EQ(registry.counter("x").value(), 1u);
}

namespace {
class FixedSource final : public telemetry::MetricsSource {
 public:
  enum class Kind { kCounter, kGauge };
  FixedSource(std::string name, Kind kind, std::int64_t value)
      : name_(std::move(name)), kind_(kind), value_(value) {}
  void collect_metrics(telemetry::MetricSink& sink) const override {
    if (kind_ == Kind::kCounter) {
      sink.counter(name_, static_cast<std::uint64_t>(value_));
    } else {
      sink.gauge(name_, value_);
    }
  }

 private:
  std::string name_;
  Kind kind_;
  std::int64_t value_;
};
}  // namespace

TEST(MetricsCollisionTest, SourceCollisionIsNamespacedNotSummed) {
  MetricsRegistry registry;
  FixedSource counter_src("dup", FixedSource::Kind::kCounter, 5);
  FixedSource gauge_src("dup", FixedSource::Kind::kGauge, 9);
  registry.attach(&counter_src);
  registry.attach(&gauge_src);

  const MetricsSnapshot snap = registry.snapshot();
  // First kind seen keeps the plain name; the conflicting kind is
  // namespaced; the clash is reported.
  EXPECT_EQ(snap.counters.at("dup"), 5u);
  EXPECT_EQ(snap.gauges.at("dup.gauge"), 9);
  ASSERT_EQ(snap.collisions.size(), 1u);
  EXPECT_EQ(snap.collisions[0], "dup");
  // The JSON export surfaces the collision list.
  EXPECT_NE(snap.to_json().find("\"collisions\":[\"dup\"]"),
            std::string::npos);
  // And the OpenMetrics rendering still parses: the namespaced series
  // sanitizes to a distinct exposition name.
  const ParsedExposition exp = parse_openmetrics(to_openmetrics(snap));
  expect_exposition_agrees(snap, exp);

  registry.detach(&counter_src);
  registry.detach(&gauge_src);
}

TEST(MetricsCollisionTest, CollisionsAbsentFromJsonWhenNoneOccur) {
  MetricsRegistry registry;
  registry.counter("a").inc();
  EXPECT_EQ(registry.to_json().find("collisions"), std::string::npos);
}

// --- End-to-end scenario: ordered audit trail --------------------------------

class ObsScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app::ObsOptions opts;
    opts.packets = 60;
    opts.sample_every = 4;
    art_ = new app::ObsArtifacts(app::run_obs_scenario(opts));
  }
  static void TearDownTestSuite() {
    delete art_;
    art_ = nullptr;
  }

  static std::vector<Event> parsed_events() {
    std::vector<Event> out;
    std::istringstream lines(art_->events_jsonl);
    std::string line;
    while (std::getline(lines, line)) {
      auto ev = Event::from_json(line);
      EXPECT_TRUE(ev.has_value()) << line;
      if (ev.has_value()) out.push_back(*ev);
    }
    return out;
  }

  // Index of the first event with `name`, or npos.
  static std::size_t first_index(const std::vector<Event>& evs,
                                 std::string_view name) {
    for (std::size_t i = 0; i < evs.size(); ++i) {
      if (evs[i].name == name) return i;
    }
    return std::string::npos;
  }

  static app::ObsArtifacts* art_;
};

app::ObsArtifacts* ObsScenarioTest::art_ = nullptr;

TEST_F(ObsScenarioTest, DeliversTrafficAndProducesAllArtifacts) {
  EXPECT_GT(art_->delivered, 0);
  EXPECT_GT(art_->events_count, 0u);
  EXPECT_GT(art_->records_count, 0u);
  EXPECT_FALSE(art_->metrics_json.empty());
}

TEST_F(ObsScenarioTest, LifecycleAuditEventsAreOrdered) {
  const auto evs = parsed_events();
  ASSERT_FALSE(evs.empty());

  // Every line round-trips and timestamps never go backwards (the sim
  // clock only advances).
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GE(evs[i].time_ns, evs[i - 1].time_ns) << "event " << i;
  }

  // Admission before use: SegRs are admitted, then the EER over them.
  const std::size_t segr_admitted = first_index(evs, "segr.admitted");
  const std::size_t eer_admitted = first_index(evs, "eer.admitted");
  ASSERT_NE(segr_admitted, std::string::npos);
  ASSERT_NE(eer_admitted, std::string::npos);
  EXPECT_LT(segr_admitted, eer_admitted);

  // Renewal cycle: renewed then activated, after the original admission.
  const std::size_t renewed = first_index(evs, "segr.renewed");
  const std::size_t activated = first_index(evs, "segr.activated");
  ASSERT_NE(renewed, std::string::npos);
  ASSERT_NE(activated, std::string::npos);
  EXPECT_GT(renewed, segr_admitted);
  EXPECT_GT(activated, renewed);

  // Expiry closes the lifecycle.
  const std::size_t expired = first_index(evs, "eer.expired");
  ASSERT_NE(expired, std::string::npos);
  EXPECT_GT(expired, eer_admitted);
  EXPECT_EQ(evs[expired].component, "cserv");

  // Policing escalations from the injected offense.
  const std::size_t blocked = first_index(evs, "as.blocked");
  ASSERT_NE(blocked, std::string::npos);
  EXPECT_EQ(evs[blocked].severity, Severity::kError);
  EXPECT_EQ(evs[blocked].str("offender"), "2-999");
  EXPECT_NE(first_index(evs, "source.denied"), std::string::npos);

  // Admission events carry the fields an auditor needs.
  const Event& adm = evs[eer_admitted];
  EXPECT_TRUE(adm.u64("res_id").has_value());
  EXPECT_TRUE(adm.u64("bw_kbps").has_value());
  EXPECT_TRUE(adm.str("src_as").has_value());
}

TEST_F(ObsScenarioTest, FlightRecordsCoverCleanAndDroppedTraffic) {
  std::istringstream lines(art_->records_jsonl);
  std::string line;
  std::size_t n = 0, forced = 0, sampled = 0;
  bool saw_auth_failed = false;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_EQ(line.front(), '{');
    if (line.find("\"forced_by_drop\":true") != std::string::npos) {
      ++forced;
    } else {
      ++sampled;
    }
    saw_auth_failed |=
        line.find("\"reason\":\"auth-failed\"") != std::string::npos;
  }
  EXPECT_EQ(n, art_->records_count);
  EXPECT_GT(sampled, 0u) << "1-in-4 sampling must keep clean packets";
  EXPECT_GT(forced, 0u) << "injected failures must be force-recorded";
  EXPECT_TRUE(saw_auth_failed) << "the tampered packet must be traced";
}

TEST_F(ObsScenarioTest, OpenMetricsAgreesWithJsonSnapshot) {
  const ParsedExposition exp = parse_openmetrics(art_->openmetrics);
  expect_exposition_agrees(art_->metrics, exp);
  // The scenario's headline series made it to the exposition.
  EXPECT_GT(exp.samples.at("colibri_router_forwarded_total"), 0.0);
  EXPECT_GT(exp.samples.at("colibri_gateway_forwarded_total"), 0.0);
  EXPECT_GT(exp.samples.at("colibri_router_drop_auth_failed_total"), 0.0);
}

TEST_F(ObsScenarioTest, AssemblesDistributedTracesWithMetrics) {
  // The setup conversation produced at least one multi-hop causal tree
  // with a reservation id and per-hop attribution.
  ASSERT_FALSE(art_->traces.empty());
  bool saw_multi_hop = false;
  for (const auto& t : art_->traces) {
    ASSERT_FALSE(t.hops.empty());
    EXPECT_EQ(t.hops[0].depth, 0);
    for (const auto& h : t.hops) {
      EXPECT_GE(h.total_ns, h.self_ns);
      EXPECT_GE(h.self_ns, 0);
    }
    saw_multi_hop |= t.hops.size() >= 2;
  }
  EXPECT_TRUE(saw_multi_hop);
  // cserv.trace.* landed in the same snapshot as everything else.
  EXPECT_GT(art_->metrics.counters.at("cserv.trace.assembled"), 0u);
  EXPECT_EQ(art_->metrics.counters.at("cserv.trace.orphan_spans"), 0u);
  ASSERT_TRUE(art_->metrics.histograms.count("cserv.trace.hop_total_ns"));
  // The Perfetto export carries the cross-track flow arrows.
  EXPECT_NE(art_->perfetto_json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(art_->perfetto_json.find("\"ph\":\"f\""), std::string::npos);
}

TEST_F(ObsScenarioTest, WindowedTelemetryAndAlertPlaneRan) {
  // The monitoring plane sampled windows and evaluated rules while the
  // scenario ran — the acceptance bar for `watch --once`.
  EXPECT_GT(art_->sampler_windows, 0u);
  EXPECT_GE(art_->alert_rules, 1u);
  EXPECT_GT(art_->alert_evaluations, 0u);
  EXPECT_FALSE(art_->watch_frames.empty());
  // Every intermediate frame and the final render carry the dashboard
  // sections an operator greps for.
  for (const std::string* text :
       {&art_->watch_frames.front(), &art_->watch_text}) {
    EXPECT_NE(text->find("colibri watch"), std::string::npos);
    EXPECT_NE(text->find("alerts:"), std::string::npos);
    EXPECT_NE(text->find("slo "), std::string::npos);
  }
  // The healthy demo run ends with no alert still firing, and the
  // derived gauges rode the ordinary metrics snapshot out.
  EXPECT_EQ(art_->alerts_firing, 0u);
  EXPECT_TRUE(art_->metrics.counters.contains("telemetry.sampler.windows"));
  EXPECT_TRUE(art_->metrics.counters.contains("telemetry.alerts.evaluations"));
  EXPECT_TRUE(art_->metrics.gauges.contains("telemetry.alerts.rules"));
  EXPECT_TRUE(art_->metrics.gauges.contains("gateway.forwarded.rate_1s"));
}

TEST_F(ObsScenarioTest, EventSequenceNumbersIncreaseWithinTheRun) {
  const auto evs = parsed_events();
  ASSERT_GE(evs.size(), 2u);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GT(evs[i].seq, evs[i - 1].seq) << "event " << i;
  }
}

// --- colibri_obs CLI surface -------------------------------------------------

int run_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"colibri_obs"};
  argv.insert(argv.end(), args);
  return app::run_obs_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(ObsCliTest, UnknownSubcommandFailsWithUsage) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(ObsCliTest, UnknownFlagFailsWithUsage) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"--bogus=1"}), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("usage:"),
            std::string::npos);
}

TEST(ObsCliTest, MissingPerfettoPathFailsWithUsage) {
  // `--perfetto` as the last token has no value to consume.
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"trace", "--perfetto"}), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("usage:"),
            std::string::npos);
}

TEST(ObsCliTest, NonexistentScenarioFailsWithUsage) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"--scenario=mars"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown scenario 'mars'"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(ObsCliTest, ReservationRequiresTraceCommandAndNumericId) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"--reservation=5"}), 2);  // no trace command
  EXPECT_EQ(run_cli({"trace", "--reservation=abc"}), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--reservation"),
            std::string::npos);
}

TEST(ObsCliTest, OnceFlagRequiresTheWatchCommand) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"--once"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--once"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(ObsCliTest, WatchOnceRendersTheFinalFrame) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli({"watch", "--once", "--packets=40"}), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  // Single-shot mode: exactly one frame, no ANSI clear-screen escapes.
  EXPECT_EQ(out.find('\033'), std::string::npos);
  EXPECT_NE(out.find("colibri watch"), std::string::npos) << out;
  EXPECT_NE(out.find("alerts: rules="), std::string::npos) << out;
  EXPECT_NE(out.find("slo "), std::string::npos) << out;
  EXPECT_NE(out.find("peak"), std::string::npos) << out;
}

TEST(ObsCliTest, TraceWaterfallForKnownAndUnknownReservation) {
  // One cheap scenario run per invocation; keep the traffic leg small.
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"trace", "--packets=40", "--reservation", "999999"}), 1);
  EXPECT_NE(
      testing::internal::GetCapturedStderr().find("no assembled trace"),
      std::string::npos);

  // The deterministic scenario always provisions reservation id 1 first.
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli({"trace", "--packets=40", "--reservation=1"}), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("res_id=1"), std::string::npos) << out;
  EXPECT_NE(out.find("<-- bottleneck"), std::string::npos) << out;
}

}  // namespace
}  // namespace colibri
