// Windowed time-series telemetry: the live-monitoring layer on top of
// the cumulative MetricsRegistry.
//
// Counters and histograms only ever grow; an operator watching for
// overload needs *rates* ("admissions per second, right now") and
// *windowed* percentiles ("p99 over the last ten seconds", not since
// process start). WindowedSampler provides both without touching any
// fast path: it periodically snapshots a MetricsRegistry into a
// bounded ring of per-window deltas — counter deltas, bucket-wise
// histogram deltas, gauge levels — and answers rate/percentile/
// watermark queries from the ring through the window engine below.
//
// Sampling is Clock-driven, never thread-driven: the owner calls
// poll() at whatever cadence it likes, and a window is cut only when
// one sampling period of *Clock time* has elapsed. Under SimClock a
// scenario therefore samples deterministically — the same run produces
// the same windows, the same rates, and (through the alert engine, see
// alerts.hpp) the same alert transitions, which is what makes the
// monitoring plane testable at all.
//
// The sampler is itself a MetricsSource: series marked with
// track_rate()/track_percentiles()/track_watermark() are re-exported
// as derived gauges ("<series>.rate_1s", "<series>.rate_10s",
// "<series>.windowed_p50", "<series>.windowed_p99",
// "<series>.high_watermark") so the windowed view rides the existing
// JSON snapshot and OpenMetrics exposition unchanged. Registering the
// sampler with the registry it samples is safe and normal — poll()
// never holds the sampler lock while snapshotting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/telemetry/metrics.hpp"

namespace colibri::telemetry {

struct WindowedSamplerConfig {
  // Minimum Clock time between samples; poll() calls inside one period
  // are no-ops. A window's actual elapsed time may exceed the period
  // (the producer polled late, or SimClock jumped) — queries always
  // divide by real elapsed time, never by the nominal period.
  TimeNs period_ns = kNsPerSec;
  // Windows retained; the ring drops the oldest beyond this.
  std::size_t ring_capacity = 64;
  // Per-window multiplicative decay applied to tracked high-watermarks
  // before taking the max with the current gauge level.
  double watermark_decay = 0.9;
  // When set, a series only enters a window if the filter returns
  // true. Forensics monitors use this to keep wall-clock-derived
  // series (real host execution times, which never replay the same)
  // out of deterministic capture. nullptr keeps everything.
  std::function<bool(std::string_view)> series_filter;
};

// One sampled window: what changed between two registry snapshots.
struct SampleWindow {
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  TimeNs elapsed_ns() const { return end_ns - start_ns; }
  // Counter increments during the window (a counter that shrank — a
  // component reset — restarts the delta from its new value).
  std::map<std::string, std::uint64_t> counter_deltas;
  // Gauge levels at the window's end.
  std::map<std::string, std::int64_t> gauges;
  // Bucket-wise histogram increments during the window.
  std::map<std::string, HistogramSnapshot> histogram_deltas;
};

// --- the window engine ---------------------------------------------------
// The one place that cuts a window and answers a span query, for the
// sampler, the history store and the fleet collector.

// The window [start_ns, end_ns) from `prev` to `cur` over the series
// `keep` passes (nullptr: all); a series absent from `prev` counts from
// zero.
SampleWindow cut_window(
    const MetricsSnapshot& prev, const MetricsSnapshot& cur, TimeNs start_ns,
    TimeNs end_ns,
    const std::function<bool(std::string_view)>& keep = nullptr);

// The windows one span query reads, selected from a time-ordered
// sequence in one of two ways:
//  * trailing: the newest windows whose summed elapsed time covers
//    `span_ns`, at least the newest one (sampler and fleet);
//  * overlapping: the half-open [since_ns, until_ns) — a window ending
//    at `since` or starting at `until` is out, so adjacent spans
//    partition the timeline (history store).
// `prefix` sums (gauges: maxes) every series whose name starts with
// `series`.
struct WindowSpan {
  std::span<const SampleWindow> windows;  // oldest first

  static WindowSpan trailing(std::span<const SampleWindow> all,
                             TimeNs span_ns);
  static WindowSpan overlapping(std::span<const SampleWindow> all,
                                TimeNs since_ns, TimeNs until_ns);

  std::uint64_t counter_delta(std::string_view series,
                              bool prefix = false) const;
  // Per-name-segment sums under `prefix` ("res.7.bytes": key "7").
  std::map<std::string, std::uint64_t> counter_delta_by_key(
      std::string_view prefix) const;
  // Summed delta per second of summed elapsed time; peak: of one window.
  double rate(std::string_view series, bool prefix = false) const;
  double peak_rate(std::string_view series, bool prefix = false) const;
  HistogramSnapshot histogram_delta(std::string_view series) const;
  // nullopt when the series recorded nothing in the span.
  std::optional<double> percentile(std::string_view series, double q) const;
  // Level in the newest window of the span that holds the series.
  std::optional<std::int64_t> gauge_level(std::string_view series,
                                          bool prefix = false) const;
};

class WindowedSampler : public MetricsSource {
 public:
  // Samples `source`; derived gauges export through `export_registry`
  // (nullptr = query-only, no re-export). `source` and `clock` must
  // outlive the sampler. Passing the same registry as source and
  // export is the expected wiring.
  WindowedSampler(const MetricsRegistry& source, const Clock& clock,
                  WindowedSamplerConfig cfg = {},
                  MetricsRegistry* export_registry = nullptr);
  ~WindowedSampler() override = default;

  WindowedSampler(const WindowedSampler&) = delete;
  WindowedSampler& operator=(const WindowedSampler&) = delete;

  // Cuts a new window if at least one period elapsed since the last
  // one; otherwise a cheap no-op (one clock read, one atomic load).
  // Returns true when a window was sampled. Thread-safe, but
  // concurrent callers may both sample back-to-back windows — run one
  // monitoring loop per sampler.
  bool poll();

  // --- queries -----------------------------------------------------------
  // Every query reads WindowSpan::trailing(ring, span_ns) (kSpanAll =
  // the whole ring), so a "rate over 10 s" is exact regardless of how
  // long individual windows ran.
  static constexpr TimeNs kSpanAll = std::numeric_limits<TimeNs>::max();

  // Per-second rate of a counter over the span. `prefix` sums every
  // counter whose name starts with `series` (e.g. "router.drop.").
  double rate(std::string_view series, TimeNs span_ns,
              bool prefix = false) const;
  // Largest single-window rate in the retained ring — the burst the
  // run peaked at, robust against a long idle tail window.
  double peak_rate(std::string_view series, bool prefix = false) const;
  // Counter increment summed over the span.
  std::uint64_t counter_delta(std::string_view series, TimeNs span_ns,
                              bool prefix = false) const;
  // Histogram increments merged over the span; count == 0 when the
  // series recorded nothing in the span.
  HistogramSnapshot histogram_delta(std::string_view series,
                                    TimeNs span_ns) const;
  // Windowed percentile over the span; nullopt when nothing recorded.
  std::optional<double> windowed_percentile(std::string_view series, double q,
                                            TimeNs span_ns) const;
  // Latest sampled gauge level (prefix = max across matching names);
  // nullopt before the first window or when the series is absent.
  std::optional<std::int64_t> gauge_level(std::string_view series,
                                          bool prefix = false) const;
  // Decaying high-watermark of a gauge registered with
  // track_watermark(); 0 until the first window.
  double watermark(std::string_view series) const;

  std::size_t window_count() const;      // retained in the ring
  std::uint64_t windows_sampled() const; // total since construction
  std::optional<SampleWindow> latest_window() const;
  // Up to `max_windows` newest retained windows, oldest first — the
  // flight-recorder view a forensic snapshot (telemetry/incident.hpp)
  // embeds in an incident bundle.
  std::vector<SampleWindow> recent_windows(std::size_t max_windows) const;
  TimeNs period_ns() const { return cfg_.period_ns; }

  // --- derived-gauge export ----------------------------------------------
  // Export "<series>.rate_1s" and "<series>.rate_10s" (events/s,
  // rounded; a trailing '.' in `series` marks a prefix sum and the
  // gauges attach directly, e.g. "router.drop.rate_1s").
  void track_rate(std::string series);
  // Export "<series>.windowed_p50" / "<series>.windowed_p99" over the
  // last 10 s (skipped while the span recorded nothing).
  void track_percentiles(std::string series);
  // Export "<series>.high_watermark": per-window decaying max of the
  // gauge, so a past spike stays visible for ~1/(1-decay) windows.
  void track_watermark(std::string series);

  void collect_metrics(MetricSink& sink) const override;

 private:
  const MetricsRegistry* source_;
  const Clock* clock_;
  WindowedSamplerConfig cfg_;

  // Fast-path gate for poll(): end time of the newest window, read
  // without the lock.
  std::atomic<TimeNs> last_end_ns_;

  mutable std::mutex mu_;
  MetricsSnapshot prev_;       // snapshot the next window deltas against
  bool have_prev_ = false;
  std::vector<SampleWindow> ring_;  // oldest first
  std::uint64_t windows_sampled_ = 0;
  std::set<std::string, std::less<>> rate_tracked_;
  std::set<std::string, std::less<>> pct_tracked_;
  std::map<std::string, double, std::less<>> watermarks_;

  ScopedSource registration_;
};

}  // namespace colibri::telemetry
