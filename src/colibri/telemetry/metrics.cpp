#include "colibri/telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "colibri/telemetry/json.hpp"

namespace colibri::telemetry {

std::uint64_t HistogramSnapshot::bucket_upper_bound(std::size_t i) {
  if (i + 1 >= kHistogramBuckets) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

std::uint64_t HistogramSnapshot::percentile_bound(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank || seen == count) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(buckets.size() - 1);
}


void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, v] : counters) w.key(name).u64(v);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.key(name).i64(v);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("count").u64(h.count).key("sum").u64(h.sum);
    w.key("p50").u64(h.percentile_bound(0.50));
    w.key("p99").u64(h.percentile_bound(0.99));
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // sparse export
      w.begin_array()
          .u64(HistogramSnapshot::bucket_upper_bound(i))
          .u64(h.buckets[i])
          .end_array();
    }
    w.end_array().end_object();
  }
  w.end_object();
  if (!collisions.empty()) {
    w.key("collisions").begin_array();
    for (const auto& name : collisions) w.str(name);
    w.end_array();
  }
  return w.end_object().take();
}

namespace {

[[noreturn]] void throw_kind_conflict(std::string_view name,
                                      const char* requested) {
  throw std::logic_error("metric name '" + std::string(name) +
                         "' already registered as a different kind than " +
                         requested);
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    if (gauges_.contains(name) || histograms_.contains(name)) {
      throw_kind_conflict(name, "counter");
    }
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    if (counters_.contains(name) || histograms_.contains(name)) {
      throw_kind_conflict(name, "gauge");
    }
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (counters_.contains(name) || gauges_.contains(name)) {
      throw_kind_conflict(name, "histogram");
    }
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::attach(const MetricsSource* source) {
  if (source == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(source);
}

void MetricsRegistry::detach(const MetricsSource* source) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(sources_, source);
}

std::size_t MetricsRegistry::source_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size();
}

namespace {

// Sink that merges equal names by summation into a MetricsSnapshot.
// Equal names of *equal kind* sum; a name re-reported as a different
// kind (a source bug the registry cannot catch, since sources own
// their metrics) is kept under "<name>.<kind>" and recorded in
// snapshot.collisions instead of being silently summed.
class MergingSink final : public MetricSink {
 public:
  explicit MergingSink(MetricsSnapshot& out) : out_(&out) {}

  void counter(std::string_view name, std::uint64_t value) override {
    out_->counters[resolve(name, Kind::kCounter, "counter")] += value;
  }
  void gauge(std::string_view name, std::int64_t value) override {
    out_->gauges[resolve(name, Kind::kGauge, "gauge")] += value;
  }
  void histogram(std::string_view name, const HistogramSnapshot& h) override {
    out_->histograms[resolve(name, Kind::kHistogram, "histogram")].merge(h);
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string resolve(std::string_view name, Kind kind,
                      const char* kind_name) {
    auto [it, inserted] = kinds_.try_emplace(std::string(name), kind);
    if (inserted || it->second == kind) return it->first;
    // Cross-kind conflict: namespace this series by its kind.
    if (std::find(out_->collisions.begin(), out_->collisions.end(),
                  it->first) == out_->collisions.end()) {
      out_->collisions.push_back(it->first);
    }
    return it->first + "." + kind_name;
  }

  MetricsSnapshot* out_;
  std::map<std::string, Kind, std::less<>> kinds_;
};

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  MergingSink sink(s);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) sink.counter(name, c->value());
  for (const auto& [name, g] : gauges_) sink.gauge(name, g->value());
  for (const auto& [name, h] : histograms_) sink.histogram(name, h->snapshot());
  for (const auto* src : sources_) src->collect_metrics(sink);
  return s;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace colibri::telemetry
