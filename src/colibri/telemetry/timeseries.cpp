#include "colibri/telemetry/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace colibri::telemetry {

namespace {

// Derived-gauge name: "<series>.rate_1s", except a trailing '.' (a
// prefix-sum series like "router.drop.") attaches the suffix directly.
std::string derived_name(std::string_view series, std::string_view suffix) {
  std::string out(series);
  if (out.empty() || out.back() != '.') out.push_back('.');
  out.append(suffix);
  return out;
}

// Subtracts `prev` from `cur` bucket-wise. A shrinking count means the
// owning component reset; the delta then restarts from `cur` so one
// reset never produces a huge negative-wrapped window.
HistogramSnapshot histogram_minus(const HistogramSnapshot& cur,
                                  const HistogramSnapshot& prev) {
  if (cur.count < prev.count) return cur;
  HistogramSnapshot d;
  d.count = cur.count - prev.count;
  d.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] =
        cur.buckets[i] >= prev.buckets[i] ? cur.buckets[i] - prev.buckets[i]
                                          : cur.buckets[i];
  }
  return d;
}

// Visits `series` in one window's sorted name map: the exact entry, or
// with `prefix` every entry under it (one run from lower_bound).
template <class Map, class Fn>
void for_series(const Map& m, const std::string& series, bool prefix, Fn fn) {
  for (auto it = m.lower_bound(series);
       it != m.end() && it->first.starts_with(series); ++it) {
    if (!prefix && it->first != series) break;
    fn(it->second);
  }
}

}  // namespace

// --- the window engine -------------------------------------------------------

SampleWindow cut_window(
    const MetricsSnapshot& prev, const MetricsSnapshot& cur, TimeNs start_ns,
    TimeNs end_ns, const std::function<bool(std::string_view)>& keep) {
  // Snapshots iterate in name order, so every insert is at the end.
  SampleWindow w{start_ns, end_ns, {}, {}, {}};
  auto& deltas = w.counter_deltas;
  for (const auto& [name, value] : cur.counters) {
    if (keep && !keep(name)) continue;
    const auto it = prev.counters.find(name);
    const std::uint64_t before = it == prev.counters.end() ? 0 : it->second;
    deltas.emplace_hint(deltas.end(), name,
                        value >= before ? value - before : value);
  }
  for (const auto& [name, level] : cur.gauges) {
    if (!keep || keep(name)) w.gauges.emplace_hint(w.gauges.end(), name, level);
  }
  for (const auto& [name, h] : cur.histograms) {
    if (keep && !keep(name)) continue;
    const auto it = prev.histograms.find(name);
    w.histogram_deltas.emplace_hint(
        w.histogram_deltas.end(), name,
        it == prev.histograms.end() ? h : histogram_minus(h, it->second));
  }
  return w;
}

WindowSpan WindowSpan::trailing(std::span<const SampleWindow> all,
                                TimeNs span_ns) {
  std::size_t n = 0;
  TimeNs elapsed = 0;
  while (n < all.size() && (n == 0 || elapsed < span_ns)) {
    elapsed += all[all.size() - ++n].elapsed_ns();
  }
  return {all.last(n)};
}

WindowSpan WindowSpan::overlapping(std::span<const SampleWindow> all,
                                   TimeNs since_ns, TimeNs until_ns) {
  const auto overlaps = [&](const SampleWindow& w) {
    return w.end_ns > since_ns && w.start_ns < until_ns;
  };
  // Time-ordered windows overlap the span in one contiguous run.
  const auto first = std::find_if(all.begin(), all.end(), overlaps);
  return {{first, std::find_if_not(first, all.end(), overlaps)}};
}

std::uint64_t WindowSpan::counter_delta(std::string_view series,
                                        bool prefix) const {
  const std::string key(series);
  std::uint64_t delta = 0;
  for (const SampleWindow& w : windows) {
    for_series(w.counter_deltas, key, prefix, [&](auto d) { delta += d; });
  }
  return delta;
}

std::map<std::string, std::uint64_t> WindowSpan::counter_delta_by_key(
    std::string_view prefix) const {
  std::map<std::string, std::uint64_t> by_key;
  for (const SampleWindow& w : windows) {
    for (auto it = w.counter_deltas.upper_bound(std::string(prefix));
         it != w.counter_deltas.end() && it->first.starts_with(prefix); ++it) {
      const std::string_view key =
          std::string_view(it->first).substr(prefix.size());
      by_key[std::string(key.substr(0, key.find('.')))] += it->second;
    }
  }
  return by_key;
}

double WindowSpan::rate(std::string_view series, bool prefix) const {
  TimeNs elapsed = 0;
  for (const SampleWindow& w : windows) elapsed += w.elapsed_ns();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(counter_delta(series, prefix)) *
         static_cast<double>(kNsPerSec) / static_cast<double>(elapsed);
}

double WindowSpan::peak_rate(std::string_view series, bool prefix) const {
  double peak = 0.0;
  for (const SampleWindow& w : windows) {
    peak = std::max(peak, WindowSpan{{&w, 1}}.rate(series, prefix));
  }
  return peak;
}

HistogramSnapshot WindowSpan::histogram_delta(std::string_view series) const {
  const std::string key(series);
  HistogramSnapshot merged;
  for (const SampleWindow& w : windows) {
    for_series(w.histogram_deltas, key, false,
               [&](const HistogramSnapshot& h) { merged.merge(h); });
  }
  return merged;
}

std::optional<double> WindowSpan::percentile(std::string_view series,
                                             double q) const {
  const HistogramSnapshot h = histogram_delta(series);
  if (h.count == 0) return std::nullopt;
  return h.percentile(q);
}

std::optional<std::int64_t> WindowSpan::gauge_level(std::string_view series,
                                                    bool prefix) const {
  const std::string key(series);
  for (auto w = windows.rbegin(); w != windows.rend(); ++w) {
    std::optional<std::int64_t> best;
    for_series(w->gauges, key, prefix,
               [&](std::int64_t v) { best = std::max(best.value_or(v), v); });
    if (best) return best;
  }
  return std::nullopt;
}

// --- WindowedSampler ---------------------------------------------------------

WindowedSampler::WindowedSampler(const MetricsRegistry& source,
                                 const Clock& clock,
                                 WindowedSamplerConfig cfg,
                                 MetricsRegistry* export_registry)
    : source_(&source),
      clock_(&clock),
      cfg_(cfg),
      last_end_ns_(clock.now_ns()),
      registration_(export_registry, this) {
  // A non-positive period would cut zero-elapsed windows on every
  // poll() under a stalled clock; clamp so a window always spans Clock
  // time and rate queries never divide by zero.
  if (cfg_.period_ns < 1) cfg_.period_ns = 1;
  if (cfg_.ring_capacity < 1) cfg_.ring_capacity = 1;
  if (cfg_.watermark_decay < 0) cfg_.watermark_decay = 0;
  if (cfg_.watermark_decay > 1) cfg_.watermark_decay = 1;
}

bool WindowedSampler::poll() {
  const TimeNs now = clock_->now_ns();
  if (now - last_end_ns_.load(std::memory_order_relaxed) < cfg_.period_ns) {
    return false;
  }
  // Snapshot before taking the sampler lock: snapshot() walks every
  // attached source under the registry lock (possibly including this
  // sampler and an alert engine), so the sampler lock stays a leaf.
  MetricsSnapshot cur = source_->snapshot();

  std::lock_guard<std::mutex> lock(mu_);
  const TimeNs start = last_end_ns_.load(std::memory_order_relaxed);
  if (now - start < cfg_.period_ns) return false;  // lost a poll() race

  // The first sample baselines only: deltas need two snapshots.
  const bool cut = std::exchange(have_prev_, true);
  if (cut) {
    SampleWindow w = cut_window(prev_, cur, start, now, cfg_.series_filter);
    for (auto& [name, hw] : watermarks_) {
      const auto it = w.gauges.find(name);
      const double level =
          it == w.gauges.end() ? 0.0 : static_cast<double>(it->second);
      hw = std::max(level, hw * cfg_.watermark_decay);
    }
    if (ring_.size() == cfg_.ring_capacity) ring_.erase(ring_.begin());
    ring_.push_back(std::move(w));
    ++windows_sampled_;
  }
  prev_ = std::move(cur);
  last_end_ns_.store(now, std::memory_order_relaxed);
  return cut;
}

double WindowedSampler::rate(std::string_view series, TimeNs span_ns,
                             bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan::trailing(ring_, span_ns).rate(series, prefix);
}

double WindowedSampler::peak_rate(std::string_view series, bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan{ring_}.peak_rate(series, prefix);
}

std::uint64_t WindowedSampler::counter_delta(std::string_view series,
                                             TimeNs span_ns,
                                             bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan::trailing(ring_, span_ns).counter_delta(series, prefix);
}

HistogramSnapshot WindowedSampler::histogram_delta(std::string_view series,
                                                   TimeNs span_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan::trailing(ring_, span_ns).histogram_delta(series);
}

std::optional<double> WindowedSampler::windowed_percentile(
    std::string_view series, double q, TimeNs span_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan::trailing(ring_, span_ns).percentile(series, q);
}

std::optional<std::int64_t> WindowedSampler::gauge_level(
    std::string_view series, bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowSpan::trailing(ring_, 0).gauge_level(series, prefix);
}

double WindowedSampler::watermark(std::string_view series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = watermarks_.find(series);
  return it == watermarks_.end() ? 0.0 : it->second;
}

std::size_t WindowedSampler::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t WindowedSampler::windows_sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_sampled_;
}

std::optional<SampleWindow> WindowedSampler::latest_window() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::vector<SampleWindow> WindowedSampler::recent_windows(
    std::size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = std::min(max_windows, ring_.size());
  return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

void WindowedSampler::track_rate(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  rate_tracked_.insert(std::move(series));
}

void WindowedSampler::track_percentiles(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  pct_tracked_.insert(std::move(series));
}

void WindowedSampler::track_watermark(std::string series) {
  std::lock_guard<std::mutex> lock(mu_);
  watermarks_.try_emplace(std::move(series), 0.0);
}

void WindowedSampler::collect_metrics(MetricSink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  sink.counter("telemetry.sampler.windows", windows_sampled_);
  sink.gauge("telemetry.sampler.ring_windows",
             static_cast<std::int64_t>(ring_.size()));
  for (const std::string& series : rate_tracked_) {
    const bool prefix = !series.empty() && series.back() == '.';
    sink.gauge(derived_name(series, "rate_1s"),
               std::llround(
                   WindowSpan::trailing(ring_, kNsPerSec).rate(series, prefix)));
    sink.gauge(derived_name(series, "rate_10s"),
               std::llround(WindowSpan::trailing(ring_, 10 * kNsPerSec)
                                .rate(series, prefix)));
  }
  for (const std::string& series : pct_tracked_) {
    const HistogramSnapshot h =
        WindowSpan::trailing(ring_, 10 * kNsPerSec).histogram_delta(series);
    if (h.count == 0) continue;
    sink.gauge(derived_name(series, "windowed_p50"), h.percentile_i64(0.50));
    sink.gauge(derived_name(series, "windowed_p99"), h.percentile_i64(0.99));
  }
  for (const auto& [series, hw] : watermarks_) {
    sink.gauge(derived_name(series, "high_watermark"), std::llround(hw));
  }
}

}  // namespace colibri::telemetry
