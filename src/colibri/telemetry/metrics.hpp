// Process-wide telemetry: named counters, gauges, and fixed-bucket
// latency histograms, with a JSON snapshot/export API.
//
// Two usage patterns share one registry:
//
//  * Owned metrics — `registry.counter("name")` get-or-creates a metric
//    owned by the registry; the returned reference stays valid for the
//    registry's lifetime. Registration takes a lock; afterwards the
//    metric is a bare std::atomic (no heap, no locks).
//
//  * Sources — components whose fast path must never share cache lines
//    across instances (border routers, gateway shards) keep their
//    counters as instance members and register a `MetricsSource`;
//    `snapshot()` calls every live source and merges equal names by
//    summation (bucket-wise for histograms), so the export aggregates
//    across instances while each instance keeps its own cheap counters.
//
// Counters come with two increment flavors: `inc()` is a full RMW for
// metrics shared between threads; `bump()` is a single-writer
// load+store (a plain add on x86) for per-instance fast-path counters
// that are written by exactly one thread at a time but may be read
// concurrently by a snapshot.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace colibri::telemetry {

class Counter {
 public:
  // Thread-safe increment (RMW).
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  // Single-writer increment: only the owning thread may call this, but
  // concurrent readers always see a torn-free value.
  void bump(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed power-of-two buckets: bucket i counts values v with
// std::bit_width(v) == i, i.e. v in [2^(i-1), 2^i - 1] (bucket 0 holds
// v == 0). 44 buckets cover nanosecond latencies up to ~2.4 hours; the
// last bucket absorbs anything larger.
inline constexpr std::size_t kHistogramBuckets = 44;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  // Inclusive upper bound of bucket i (2^i - 1; saturated for the last).
  static std::uint64_t bucket_upper_bound(std::size_t i);
  // Conservative (upper-bound) percentile estimate, q in [0, 1]: the
  // bound of the bucket holding the quantile (0 when empty), exact as an
  // integer; percentile_i64 saturates it at INT64_MAX for i64 fields.
  std::uint64_t percentile_bound(double q) const;
  std::int64_t percentile_i64(double q) const {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(
        percentile_bound(q), std::numeric_limits<std::int64_t>::max()));
  }
  double percentile(double q) const {
    return static_cast<double>(percentile_bound(q));
  }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  void merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  // Single-writer record (fast path); branch-light: one bit_width, two
  // relaxed stores.
  void record(std::uint64_t v) {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(v), kHistogramBuckets - 1);
    buckets_[b].store(buckets_[b].load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
  }
  // Thread-safe record (RMW) for histograms shared between threads.
  void record_shared(std::uint64_t v) {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(v), kHistogramBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

// Receives one component's metrics during collection. Equal names from
// different sources are merged by summation.
class MetricSink {
 public:
  virtual ~MetricSink() = default;
  virtual void counter(std::string_view name, std::uint64_t value) = 0;
  virtual void gauge(std::string_view name, std::int64_t value) = 0;
  virtual void histogram(std::string_view name,
                         const HistogramSnapshot& h) = 0;
};

// Implemented by components that keep instance-local metrics.
class MetricsSource {
 public:
  virtual ~MetricsSource() = default;
  virtual void collect_metrics(MetricSink& sink) const = 0;
};

// Decorator that prepends a prefix to every metric name before
// forwarding to the wrapped sink. Lets a container re-export a
// component's metrics under its own namespace — e.g. a ShardedGateway
// collecting each shard under "gateway_shard.<i>." — without the
// component knowing where it lives.
class PrefixedSink : public MetricSink {
 public:
  PrefixedSink(std::string prefix, MetricSink& inner)
      : prefix_(std::move(prefix)), inner_(inner) {}

  void counter(std::string_view name, std::uint64_t value) override {
    scratch_.assign(prefix_).append(name);
    inner_.counter(scratch_, value);
  }
  void gauge(std::string_view name, std::int64_t value) override {
    scratch_.assign(prefix_).append(name);
    inner_.gauge(scratch_, value);
  }
  void histogram(std::string_view name, const HistogramSnapshot& h) override {
    scratch_.assign(prefix_).append(name);
    inner_.histogram(scratch_, h);
  }

 private:
  std::string prefix_;
  MetricSink& inner_;
  std::string scratch_;
};

// Full registry state at one point in time.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  // Names that sources reported with conflicting metric kinds during
  // collection. The conflicting series is kept under a namespaced name
  // ("<name>.counter" / "<name>.gauge" / "<name>.histogram") instead of
  // being silently summed into the wrong kind.
  std::vector<std::string> collisions;

  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; references remain valid for the registry's lifetime.
  // A name is bound to one metric kind: re-registering it as a
  // different kind throws std::logic_error instead of creating an
  // ambiguous series (two exposition types under one name).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Source registration. Components attach at construction and MUST
  // detach (at a stable address) before destruction or relocation.
  void attach(const MetricsSource* source);
  void detach(const MetricsSource* source);
  std::size_t source_count() const;

  // Owned metrics plus every attached source, merged.
  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  // Zeroes owned metrics (sources reset through their owners).
  void reset();

  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<const MetricsSource*> sources_;
};

// RAII source registration; default-constructed handle is inert.
class ScopedSource {
 public:
  ScopedSource() = default;
  ScopedSource(MetricsRegistry* registry, const MetricsSource* source)
      : registry_(registry), source_(source) {
    if (registry_ != nullptr) registry_->attach(source_);
  }
  ~ScopedSource() { release(); }

  ScopedSource(const ScopedSource&) = delete;
  ScopedSource& operator=(const ScopedSource&) = delete;

  void release() {
    if (registry_ != nullptr) registry_->detach(source_);
    registry_ = nullptr;
    source_ = nullptr;
  }

  // Re-points the handle: detaches the old registration (if any) and
  // attaches `source` to `registry` (nullptr registry = stay detached).
  void rebind(MetricsRegistry* registry, const MetricsSource* source) {
    release();
    registry_ = registry;
    source_ = source;
    if (registry_ != nullptr) registry_->attach(source_);
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  const MetricsSource* source_ = nullptr;
};

}  // namespace colibri::telemetry
