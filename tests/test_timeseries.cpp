// The live monitoring plane: WindowedSampler window cutting, rate /
// windowed-percentile / watermark queries, derived-gauge export, the
// AlertEngine state machine (debounce, guards, event-log audit trail),
// SLO burn-rate accounting, the deterministic SimClock stall-alert
// fire-and-resolve integration over a real ShardedGatewayRuntime, and
// a concurrent stress test meant to run under the TSan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/dataplane/shard.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri {
namespace {

using telemetry::AlertCmp;
using telemetry::AlertEngine;
using telemetry::AlertRule;
using telemetry::AlertSignal;
using telemetry::AlertState;
using telemetry::EventLog;
using telemetry::MetricsRegistry;
using telemetry::Slo;
using telemetry::WindowedSampler;
using telemetry::WindowedSamplerConfig;

constexpr TimeNs kSec = kNsPerSec;

WindowedSamplerConfig one_sec_windows(std::size_t ring = 64) {
  WindowedSamplerConfig cfg;
  cfg.period_ns = kSec;
  cfg.ring_capacity = ring;
  return cfg;
}

// --- WindowedSampler -----------------------------------------------------

TEST(WindowedSamplerTest, FirstSampleBaselinesAndSecondCutsAWindow) {
  SimClock clock(100 * kSec);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  EXPECT_FALSE(sampler.poll());  // same instant: below one period
  c.inc(10);
  clock.advance(kSec);
  EXPECT_FALSE(sampler.poll());  // baseline only, no window yet
  EXPECT_EQ(sampler.window_count(), 0u);

  c.inc(40);
  clock.advance(kSec);
  EXPECT_TRUE(sampler.poll());
  EXPECT_FALSE(sampler.poll());  // no time passed since the cut
  ASSERT_EQ(sampler.window_count(), 1u);
  // Only the post-baseline increment lands in the window.
  EXPECT_EQ(sampler.counter_delta("test.requests", WindowedSampler::kSpanAll),
            40u);
  EXPECT_DOUBLE_EQ(sampler.rate("test.requests", kSec), 40.0);
}

// A value in the overflow bucket: its percentile exports as the
// bucket's integer bound, u64 in the metrics JSON and saturated at
// INT64_MAX in the i64 derived gauges.
TEST(WindowedSamplerTest, OverflowBucketPercentilesExportTheBucketBound) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& h = registry.histogram("test.huge_ns");
  h.record(UINT64_MAX);
  EXPECT_EQ(registry.snapshot().to_json(),
            R"({"counters":{},"gauges":{},"histograms":{"test.huge_ns":{)"
            R"("count":1,"sum":18446744073709551615,)"
            R"("p50":18446744073709551615,"p99":18446744073709551615,)"
            R"("buckets":[[18446744073709551615,1]]}}})");

  WindowedSampler sampler(registry, clock, one_sec_windows(), &registry);
  sampler.track_percentiles("test.huge_ns");
  clock.advance(kSec);
  sampler.poll();  // baseline
  h.record(UINT64_MAX);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("test.huge_ns.windowed_p50"), INT64_MAX);
  EXPECT_EQ(snap.gauges.at("test.huge_ns.windowed_p99"), INT64_MAX);
}

TEST(WindowedSamplerTest, RateDividesByRealElapsedTimeNotNominalPeriod) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  clock.advance(kSec);
  sampler.poll();  // baseline
  c.inc(100);
  clock.advance(4 * kSec);  // the producer polled late
  ASSERT_TRUE(sampler.poll());
  // 100 events over 4 real seconds = 25/s, not 100/s.
  EXPECT_DOUBLE_EQ(sampler.rate("test.requests", 4 * kSec), 25.0);
  // A span shorter than the single window still uses the whole window.
  EXPECT_DOUBLE_EQ(sampler.rate("test.requests", kSec), 25.0);
}

TEST(WindowedSamplerTest, SpanLimitsHowManyWindowsAQueryWalks) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  clock.advance(kSec);
  sampler.poll();  // baseline
  for (int burst : {100, 0, 0, 10}) {  // one window each, oldest first
    c.inc(static_cast<std::uint64_t>(burst));
    clock.advance(kSec);
    ASSERT_TRUE(sampler.poll());
  }
  EXPECT_EQ(sampler.counter_delta("test.requests", kSec), 10u);
  EXPECT_EQ(sampler.counter_delta("test.requests", 3 * kSec), 10u);
  EXPECT_EQ(sampler.counter_delta("test.requests", WindowedSampler::kSpanAll),
            110u);
  EXPECT_DOUBLE_EQ(sampler.rate("test.requests", 2 * kSec), 5.0);
  // Peak rate finds the old burst regardless of the idle tail.
  EXPECT_DOUBLE_EQ(sampler.peak_rate("test.requests"), 100.0);
}

TEST(WindowedSamplerTest, PrefixQueriesSumEverySeriesUnderThePrefix) {
  SimClock clock(0);
  MetricsRegistry registry;
  registry.counter("drop.expired").inc(3);
  registry.counter("drop.auth-failed").inc(4);
  registry.counter("dropped_other").inc(100);  // not under "drop."
  WindowedSampler sampler(registry, clock, one_sec_windows());

  clock.advance(kSec);
  sampler.poll();  // baseline
  registry.counter("drop.expired").inc(5);
  registry.counter("drop.auth-failed").inc(7);
  registry.counter("dropped_other").inc(1);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  EXPECT_EQ(sampler.counter_delta("drop.", kSec, /*prefix=*/true), 12u);
  EXPECT_DOUBLE_EQ(sampler.rate("drop.", kSec, /*prefix=*/true), 12.0);
  EXPECT_EQ(sampler.counter_delta("drop.expired", kSec), 5u);
}

TEST(WindowedSamplerTest, CounterResetRestartsTheDeltaInsteadOfWrapping) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  c.inc(1000);
  clock.advance(kSec);
  sampler.poll();  // baseline at 1000
  c.reset();
  c.inc(7);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  EXPECT_EQ(sampler.counter_delta("test.requests", kSec), 7u);
}

TEST(WindowedSamplerTest, WindowedPercentileCoversOnlyTheSpan) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& h = registry.histogram("test.latency_ns");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  clock.advance(kSec);
  sampler.poll();  // baseline
  // Old window: catastrophic latencies.
  for (int i = 0; i < 100; ++i) h.record(1 << 20);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  // Recent window: healthy latencies.
  for (int i = 0; i < 100; ++i) h.record(100);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());

  const auto recent = sampler.windowed_percentile("test.latency_ns", 0.99,
                                                  kSec);
  ASSERT_TRUE(recent.has_value());
  EXPECT_LT(*recent, 1000.0);  // the old spike is outside the span
  const auto all = sampler.windowed_percentile(
      "test.latency_ns", 0.99, WindowedSampler::kSpanAll);
  ASSERT_TRUE(all.has_value());
  EXPECT_GT(*all, 100'000.0);
  EXPECT_FALSE(
      sampler.windowed_percentile("test.absent", 0.99, kSec).has_value());
}

TEST(WindowedSamplerTest, GaugeLevelAndDecayingWatermark) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& g = registry.gauge("test.depth");
  WindowedSamplerConfig cfg = one_sec_windows();
  cfg.watermark_decay = 0.5;
  WindowedSampler sampler(registry, clock, cfg);
  sampler.track_watermark("test.depth");

  EXPECT_FALSE(sampler.gauge_level("test.depth").has_value());
  clock.advance(kSec);
  sampler.poll();  // baseline
  g.set(100);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  EXPECT_EQ(sampler.gauge_level("test.depth").value_or(-1), 100);
  EXPECT_DOUBLE_EQ(sampler.watermark("test.depth"), 100.0);

  g.set(10);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  EXPECT_EQ(sampler.gauge_level("test.depth").value_or(-1), 10);
  // max(10, 100 * 0.5): the spike decays but stays visible.
  EXPECT_DOUBLE_EQ(sampler.watermark("test.depth"), 50.0);
}

TEST(WindowedSamplerTest, RingDropsOldestWindowsBeyondCapacity) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows(/*ring=*/4));

  clock.advance(kSec);
  sampler.poll();  // baseline
  for (int i = 0; i < 10; ++i) {
    c.inc(1);
    clock.advance(kSec);
    ASSERT_TRUE(sampler.poll());
  }
  EXPECT_EQ(sampler.window_count(), 4u);
  EXPECT_EQ(sampler.windows_sampled(), 10u);
  EXPECT_EQ(sampler.counter_delta("test.requests", WindowedSampler::kSpanAll),
            4u);
}

TEST(WindowedSamplerTest, StalledClockCutsNoWindowsAndQueriesStaySafe) {
  SimClock clock(100 * kSec);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSampler sampler(registry, clock, one_sec_windows());

  // The clock never advances: no window is ever cut, no matter how
  // often poll() runs or how much the counters move.
  for (int i = 0; i < 50; ++i) {
    c.inc(100);
    EXPECT_FALSE(sampler.poll());
  }
  EXPECT_EQ(sampler.window_count(), 0u);
  EXPECT_EQ(sampler.windows_sampled(), 0u);

  // Every query over the empty ring answers a defined zero/empty value
  // instead of dividing by the elapsed time that never accumulated.
  EXPECT_DOUBLE_EQ(sampler.rate("test.requests", kSec), 0.0);
  EXPECT_DOUBLE_EQ(sampler.peak_rate("test.requests"), 0.0);
  EXPECT_EQ(sampler.counter_delta("test.requests", WindowedSampler::kSpanAll),
            0u);
  EXPECT_FALSE(sampler.windowed_percentile("test.lat", 0.99, kSec));
  EXPECT_FALSE(sampler.gauge_level("test.gauge"));
  EXPECT_FALSE(sampler.latest_window());
  const auto h =
      sampler.histogram_delta("test.lat", WindowedSampler::kSpanAll);
  EXPECT_EQ(h.count, 0u);
}

TEST(WindowedSamplerTest, NonPositivePeriodIsClampedSoWindowsSpanTime) {
  SimClock clock(100 * kSec);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  WindowedSamplerConfig cfg;
  cfg.period_ns = 0;  // would cut zero-elapsed windows on every poll
  cfg.ring_capacity = 8;
  WindowedSampler sampler(registry, clock, cfg);

  // Under a stalled clock even the clamped period refuses to cut: a
  // window must span Clock time.
  EXPECT_FALSE(sampler.poll());
  c.inc(10);
  EXPECT_FALSE(sampler.poll());
  EXPECT_EQ(sampler.window_count(), 0u);

  clock.advance(1);  // one nanosecond satisfies the clamped period
  EXPECT_FALSE(sampler.poll());  // baseline
  c.inc(30);
  clock.advance(1);
  EXPECT_TRUE(sampler.poll());
  ASSERT_EQ(sampler.window_count(), 1u);
  // The 1 ns window has a finite, non-NaN rate.
  const double r = sampler.rate("test.requests", kSec);
  EXPECT_TRUE(std::isfinite(r));
  EXPECT_GT(r, 0.0);
}

TEST(WindowedSamplerTest, ExportsDerivedGaugesIntoTheRegistryItSamples) {
  SimClock clock(0);
  MetricsRegistry registry;
  auto& c = registry.counter("test.requests");
  auto& h = registry.histogram("test.latency_ns");
  // Source and export registry are the same: the expected wiring.
  WindowedSampler sampler(registry, clock, one_sec_windows(), &registry);
  sampler.track_rate("test.requests");
  sampler.track_percentiles("test.latency_ns");

  clock.advance(kSec);
  sampler.poll();  // baseline
  c.inc(50);
  for (int i = 0; i < 10; ++i) h.record(1'000);
  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());

  const auto snap = registry.snapshot();
  ASSERT_TRUE(snap.gauges.contains("test.requests.rate_1s"));
  EXPECT_EQ(snap.gauges.at("test.requests.rate_1s"), 50);
  ASSERT_TRUE(snap.gauges.contains("test.requests.rate_10s"));
  EXPECT_TRUE(snap.gauges.contains("test.latency_ns.windowed_p50"));
  EXPECT_TRUE(snap.gauges.contains("test.latency_ns.windowed_p99"));
  ASSERT_TRUE(snap.counters.contains("telemetry.sampler.windows"));
  EXPECT_EQ(snap.counters.at("telemetry.sampler.windows"), 1u);
}

// --- AlertEngine ---------------------------------------------------------

// One registry + sampler + engine, 1 s windows, with an event log.
struct AlertHarness {
  SimClock clock{0};
  MetricsRegistry registry;
  EventLog events{clock};
  WindowedSampler sampler;
  AlertEngine engine;

  AlertHarness()
      : sampler(registry, clock, one_sec_windows(), &registry),
        engine(sampler, clock, &events, &registry) {
    clock.advance(kSec);
    sampler.poll();  // baseline
  }

  // Advances one period, cuts a window, evaluates every rule.
  std::size_t step() {
    clock.advance(kSec);
    EXPECT_TRUE(sampler.poll());
    return engine.evaluate();
  }

  std::size_t count_events(std::string_view name) const {
    std::size_t n = 0;
    for (const auto& e : events.events()) n += e.name == name;
    return n;
  }
};

AlertRule rate_rule(std::string series, double threshold, TimeNs for_ns) {
  AlertRule r;
  r.name = "test." + series;
  r.series = std::move(series);
  r.signal = AlertSignal::kRate;
  r.span_ns = kSec;
  r.cmp = AlertCmp::kAbove;
  r.threshold = threshold;
  r.for_ns = for_ns;
  return r;
}

TEST(AlertEngineTest, FiresAfterForDurationAndResolvesWhenConditionClears) {
  AlertHarness h;
  auto& c = h.registry.counter("test.errors");
  // Rate above 10/s must hold for 2 s before firing.
  h.engine.add_rule(rate_rule("test.errors", 10.0, 2 * kSec));
  ASSERT_EQ(h.engine.rule_count(), 1u);

  h.step();  // rate 0: inactive
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);

  c.inc(100);
  h.step();  // violation starts: pending, debounce running
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kPending);
  EXPECT_EQ(h.engine.fired_total(), 0u);

  c.inc(100);
  h.step();  // 1 s < 2 s held: still pending
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kPending);

  c.inc(100);
  h.step();  // 2 s held: fires
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kFiring);
  EXPECT_EQ(h.engine.fired_total(), 1u);
  EXPECT_EQ(h.engine.firing_count(), 1u);
  EXPECT_EQ(h.count_events("alert.firing"), 1u);

  h.step();  // no increments: rate 0, resolves
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);
  EXPECT_EQ(h.engine.resolved_total(), 1u);
  EXPECT_EQ(h.engine.firing_count(), 0u);
  EXPECT_EQ(h.count_events("alert.resolved"), 1u);
}

TEST(AlertEngineTest, BlipShorterThanForDurationNeverFires) {
  AlertHarness h;
  auto& c = h.registry.counter("test.errors");
  h.engine.add_rule(rate_rule("test.errors", 10.0, 2 * kSec));

  c.inc(100);
  h.step();  // pending
  h.step();  // condition cleared before the debounce elapsed
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);
  EXPECT_EQ(h.engine.fired_total(), 0u);
  EXPECT_EQ(h.count_events("alert.firing"), 0u);
}

TEST(AlertEngineTest, GuardGatesEligibilityOfTheMainCondition) {
  AlertHarness h;
  // "Heartbeat rate below 1/s" — but only while queued work exists.
  AlertRule r;
  r.name = "stall";
  r.series = "test.heartbeats";
  r.signal = AlertSignal::kRate;
  r.span_ns = kSec;
  r.cmp = AlertCmp::kBelow;
  r.threshold = 1.0;
  r.guard_series = "test.ring_depth";
  r.guard_cmp = AlertCmp::kAbove;
  r.guard_threshold = 0;
  h.engine.add_rule(r);
  auto& depth = h.registry.gauge("test.ring_depth");
  h.registry.counter("test.heartbeats");  // never incremented

  h.step();  // heartbeat rate 0 but ring empty: guard blocks
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);

  depth.set(5);
  h.step();  // ring has work, heartbeats flat: fires (for_ns = 0)
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kFiring);

  depth.set(0);
  h.step();  // work drained: guard false again, resolves
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);
  EXPECT_EQ(h.engine.resolved_total(), 1u);
}

TEST(AlertEngineTest, PercentileRuleIgnoresSpansWithNoData) {
  AlertHarness h;
  AlertRule r;
  r.name = "p99";
  r.series = "test.latency_ns";
  r.signal = AlertSignal::kPercentile;
  r.quantile = 0.99;
  r.span_ns = kSec;
  r.cmp = AlertCmp::kAbove;
  r.threshold = 1'000.0;
  h.engine.add_rule(r);
  auto& hist = h.registry.histogram("test.latency_ns");

  h.step();  // no data: has_value false, cannot violate
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kInactive);
  EXPECT_FALSE(h.engine.status()[0].has_value);

  for (int i = 0; i < 100; ++i) hist.record(1 << 20);
  h.step();
  EXPECT_EQ(h.engine.status()[0].state, AlertState::kFiring);
  EXPECT_TRUE(h.engine.status()[0].has_value);
}

TEST(AlertEngineTest, ExportsStateAndTotalsAsMetrics) {
  AlertHarness h;
  auto& c = h.registry.counter("test.errors");
  h.engine.add_rule(rate_rule("test.errors", 10.0, 0));
  c.inc(100);
  h.step();  // fires immediately (for_ns = 0)

  const auto snap = h.registry.snapshot();
  EXPECT_EQ(snap.counters.at("telemetry.alerts.fired"), 1u);
  EXPECT_EQ(snap.counters.at("telemetry.alerts.resolved"), 0u);
  EXPECT_GE(snap.counters.at("telemetry.alerts.evaluations"), 1u);
  EXPECT_EQ(snap.gauges.at("telemetry.alerts.rules"), 1);
  EXPECT_EQ(snap.gauges.at("telemetry.alerts.active"), 1);
  EXPECT_EQ(snap.gauges.at("telemetry.alerts.rule.test.test.errors.state"),
            static_cast<std::int64_t>(AlertState::kFiring));
}

TEST(AlertEngineTest, FiringEventCarriesRuleSeriesValueAndSeverity) {
  AlertHarness h;
  auto& c = h.registry.counter("test.errors");
  AlertRule r = rate_rule("test.errors", 10.0, 0);
  r.severity = telemetry::Severity::kError;
  h.engine.add_rule(r);
  c.inc(100);
  h.step();

  const auto& evs = h.events.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "alert.firing");
  EXPECT_EQ(evs[0].component, "telemetry");
  EXPECT_EQ(evs[0].severity, telemetry::Severity::kError);
  ASSERT_NE(evs[0].field("rule"), nullptr);
  ASSERT_NE(evs[0].field("value_milli"), nullptr);
}

// --- SLOs ----------------------------------------------------------------

TEST(SloTest, FractionSloTracksBurnRateAndBudget) {
  AlertHarness h;
  auto& bad = h.registry.counter("test.failed");
  auto& total = h.registry.counter("test.total");
  Slo slo;
  slo.name = "availability";
  slo.kind = Slo::Kind::kFraction;
  slo.objective = 0.01;  // 1% of requests may fail
  slo.series = "test.failed";
  slo.total_series = "test.total";
  slo.span_ns = kSec;
  slo.burn_alert = 5.0;
  h.engine.add_slo(slo);

  total.inc(1000);
  bad.inc(10);  // exactly at objective: burn 1.0
  h.step();
  auto s = h.engine.slo_status();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_NEAR(s[0].burn_rate, 1.0, 1e-9);
  EXPECT_NEAR(s[0].budget_remaining, 0.0, 1e-9);  // allowance fully used
  EXPECT_EQ(s[0].state, AlertState::kInactive);   // burn 1.0 < alert 5.0

  total.inc(1000);
  bad.inc(100);  // 10% failures: burn 10 > 5, alert fires
  h.step();
  s = h.engine.slo_status();
  EXPECT_NEAR(s[0].burn_rate, 10.0, 1e-9);
  EXPECT_EQ(s[0].state, AlertState::kFiring);
  EXPECT_EQ(h.count_events("alert.firing"), 1u);

  total.inc(1000);  // clean window: burn back to 0, resolves
  h.step();
  s = h.engine.slo_status();
  EXPECT_NEAR(s[0].burn_rate, 0.0, 1e-9);
  EXPECT_EQ(s[0].state, AlertState::kInactive);
  EXPECT_EQ(h.count_events("alert.resolved"), 1u);
}

TEST(SloTest, LatencySloCountsEventsAboveTheThreshold) {
  AlertHarness h;
  auto& hist = h.registry.histogram("test.latency_ns");
  Slo slo;
  slo.name = "latency";
  slo.kind = Slo::Kind::kLatency;
  slo.objective = 0.1;
  slo.series = "test.latency_ns";
  slo.latency_threshold_ns = 1'000'000;  // 1 ms
  slo.span_ns = kSec;
  slo.burn_alert = 5.0;
  h.engine.add_slo(slo);

  for (int i = 0; i < 90; ++i) hist.record(1'000);      // good
  for (int i = 0; i < 10; ++i) hist.record(1 << 30);    // ~1 s: bad
  h.step();
  const auto s = h.engine.slo_status();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].total, 100u);
  EXPECT_EQ(s[0].bad, 10u);
  EXPECT_NEAR(s[0].burn_rate, 1.0, 1e-9);  // 10% bad at a 10% objective
}

TEST(SloTest, BudgetIntegratesOverTheWholeRingNotJustTheSpan) {
  AlertHarness h;
  auto& bad = h.registry.counter("test.failed");
  auto& total = h.registry.counter("test.total");
  Slo slo;
  slo.name = "availability";
  slo.kind = Slo::Kind::kFraction;
  slo.objective = 0.01;
  slo.series = "test.failed";
  slo.total_series = "test.total";
  slo.span_ns = kSec;
  h.engine.add_slo(slo);

  total.inc(1000);
  bad.inc(5);  // half the allowance
  h.step();
  total.inc(1000);  // clean second window
  h.step();
  const auto s = h.engine.slo_status();
  // Span burn is 0 (clean window) but the budget remembers the ring:
  // 5 bad / 2000 total = 0.25% of a 1% objective consumed.
  EXPECT_NEAR(s[0].burn_rate, 0.0, 1e-9);
  EXPECT_NEAR(s[0].budget_remaining, 0.75, 1e-9);
}

// --- deterministic stall-alert integration -------------------------------

// The ISSUE.md acceptance scenario: a ShardedGatewayRuntime with queued
// work and a frozen worker must deterministically fire the stall alert
// under SimClock, and resolve it once the worker drains — with both
// transitions in the event log and the telemetry.alerts.* counters.
TEST(StallAlertIntegrationTest, InducedStallFiresAndResolvesDeterministically) {
  SimClock clock(0);
  MetricsRegistry registry;
  EventLog events(clock);
  dataplane::ShardedGateway gateway(AsId{1, 100}, clock, /*num_shards=*/4, {},
                                    /*registry=*/nullptr);
  dataplane::ShardedGatewayRuntime runtime(gateway, /*ring_capacity=*/64,
                                           &registry);
  WindowedSampler sampler(registry, clock, one_sec_windows(), &registry);
  AlertEngine engine(sampler, clock, &events, &registry);
  // Two rules per shard; the stall rule debounces for 2 s.
  engine.add_rules(dataplane::ShardedGatewayRuntime::default_alert_rules(
      /*shard_count=*/4, /*ring_depth_threshold=*/48,
      /*stall_for_ns=*/2 * kSec));
  ASSERT_EQ(engine.rule_count(), 8u);

  clock.advance(kSec);
  sampler.poll();  // baseline
  engine.evaluate();
  EXPECT_EQ(engine.firing_count(), 0u);

  // Induce the stall: submit without ever starting the workers. Every
  // ring gains depth; every heartbeat stays frozen at zero.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(runtime.submit(static_cast<ResId>(1 + i), 100));
  }

  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  engine.evaluate();  // heartbeat rate 0 with queued work: pending
  EXPECT_EQ(engine.firing_count(), 0u);
  EXPECT_EQ(engine.fired_total(), 0u);

  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  engine.evaluate();  // 1 s held < 2 s debounce: still pending

  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  engine.evaluate();  // 2 s held: every backlogged shard fires
  const std::uint64_t fired = engine.fired_total();
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(engine.firing_count(), fired);

  // Recovery: start the workers and let them drain, then cut the next
  // window only after stop() (SimClock must not move while the workers
  // read it concurrently).
  runtime.start();
  runtime.drain();
  runtime.stop();
  EXPECT_TRUE(runtime.idle());

  clock.advance(kSec);
  ASSERT_TRUE(sampler.poll());
  engine.evaluate();  // rings empty, heartbeats moved: all resolve
  EXPECT_EQ(engine.firing_count(), 0u);
  EXPECT_EQ(engine.resolved_total(), fired);

  // Both transitions are on the audit trail and the metric surface.
  std::size_t firing_events = 0, resolved_events = 0;
  for (const auto& e : events.events()) {
    firing_events += e.name == "alert.firing";
    resolved_events += e.name == "alert.resolved";
  }
  EXPECT_EQ(firing_events, fired);
  EXPECT_EQ(resolved_events, fired);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("telemetry.alerts.fired"), fired);
  EXPECT_EQ(snap.counters.at("telemetry.alerts.resolved"), fired);
  EXPECT_EQ(snap.gauges.at("telemetry.alerts.active"), 0);
}

// Re-running the identical scenario produces the identical transition
// history — the determinism claim, stated as a test.
TEST(StallAlertIntegrationTest, TransitionHistoryIsReproducible) {
  auto run = [] {
    SimClock clock(0);
    MetricsRegistry registry;
    EventLog events(clock);
    dataplane::ShardedGateway gateway(AsId{1, 100}, clock, 4, {}, nullptr);
    dataplane::ShardedGatewayRuntime runtime(gateway, 64, &registry);
    WindowedSampler sampler(registry, clock, one_sec_windows(), &registry);
    AlertEngine engine(sampler, clock, &events, &registry);
    engine.add_rules(dataplane::ShardedGatewayRuntime::default_alert_rules(
        4, 48, 2 * kSec));
    clock.advance(kSec);
    sampler.poll();
    for (int i = 0; i < 64; ++i) (void)runtime.submit(static_cast<ResId>(i), 1);
    std::string history;
    for (int step = 0; step < 4; ++step) {
      clock.advance(kSec);
      sampler.poll();
      engine.evaluate();
      for (const auto& st : engine.status()) {
        history += st.name + "=" + telemetry::alert_state_name(st.state) + ";";
      }
      history += "\n";
    }
    return history;
  };
  EXPECT_EQ(run(), run());
}

// --- concurrency (TSan race lane: SamplerAlertStressTest) ----------------

// Producers hammer counters/gauges while one monitor polls + evaluates
// and a reader queries rates and snapshots the registry. Run under the
// TSan preset via scripts/ci.sh; period 0 makes every poll cut a
// window so the sampler's locked path is exercised constantly.
TEST(SamplerAlertStressTest, ConcurrentProducersMonitorAndReaders) {
  SystemClock clock;
  MetricsRegistry registry;
  EventLog events(clock);
  auto& c0 = registry.counter("stress.a");
  auto& c1 = registry.counter("stress.b.x");
  auto& g = registry.gauge("stress.depth");
  auto& h = registry.histogram("stress.latency_ns");
  WindowedSamplerConfig cfg;
  cfg.period_ns = 0;  // every poll cuts a window
  cfg.ring_capacity = 16;
  WindowedSampler sampler(registry, clock, cfg, &registry);
  sampler.track_rate("stress.a");
  sampler.track_rate("stress.b.");
  sampler.track_percentiles("stress.latency_ns");
  sampler.track_watermark("stress.depth");
  AlertEngine engine(sampler, clock, &events, &registry);
  AlertRule rule;
  rule.name = "stress.rate";
  rule.series = "stress.a";
  rule.signal = AlertSignal::kRate;
  rule.span_ns = kSec;
  rule.cmp = AlertCmp::kAbove;
  rule.threshold = 1.0;
  engine.add_rule(rule);
  Slo slo;
  slo.name = "stress";
  slo.kind = Slo::Kind::kFraction;
  slo.series = "stress.b.";
  slo.total_series = "stress.a";
  engine.add_slo(slo);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        c0.inc();
        c1.inc(2);
        g.add(t % 2 == 0 ? 1 : -1);
        h.record_shared(100 + t);
      }
    });
  }
  threads.emplace_back([&] {  // the monitoring loop
    while (!stop.load(std::memory_order_relaxed)) {
      if (sampler.poll()) (void)engine.evaluate();
    }
  });
  threads.emplace_back([&] {  // a concurrent reader
    while (!stop.load(std::memory_order_relaxed)) {
      (void)sampler.rate("stress.a", kSec);
      (void)sampler.windowed_percentile("stress.latency_ns", 0.99, kSec);
      (void)engine.status();
      (void)engine.slo_status();
      (void)registry.snapshot();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_GT(sampler.windows_sampled(), 0u);
  EXPECT_GT(engine.evaluations(), 0u);
  const auto snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.contains("telemetry.sampler.windows"));
  EXPECT_TRUE(snap.counters.contains("telemetry.alerts.evaluations"));
}

}  // namespace
}  // namespace colibri
