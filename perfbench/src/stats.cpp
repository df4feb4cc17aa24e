#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v_[std::min(i, v_.size() - 1)];
}

std::pair<double, double> Samples::tail() const {
  if (v_.empty()) return {0.0, 0.0};
  for (const double level : {99.0, 90.0, 50.0}) {
    const double beyond =
        static_cast<double>(v_.size()) * (1.0 - level / 100.0);
    if (beyond >= 10.0) return {level, quantile(level / 100.0)};
  }
  return {50.0, median()};
}

void Windows::roll() {
  const std::int64_t now = now_ns();
  if (opened_ == 0) opened_ = now;
  if (now - opened_ < kWindowNs) return;
  if (lat_.count() != 0) medians_.add(lat_.median());
  if (rate_.count() != 0) rates_.add(rate_.median());
  lat_ = Samples();
  rate_ = Samples();
  opened_ = now;
}

void Windows::add_latency(double latency_us) {
  roll();
  lat_.add(latency_us);
}

void Windows::add_work(double work, double service_s) {
  roll();
  if (service_s > 0.0) rate_.add(work / service_s);
}

// A run shorter than one window reports its only, unfinished window.
double Windows::latency_p50() const {
  return medians_.count() != 0 ? medians_.quantile(0.0) : lat_.median();
}

double Windows::rate() const {
  return rates_.count() != 0 ? rates_.quantile(1.0) : rate_.median();
}

std::string Windows::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "windows: %zu of %lld ms; window median latency min=%.3f "
                "p50=%.3f us, window median rate p50=%.1f max=%.1f /s",
                medians_.count(),
                static_cast<long long>(kWindowNs / 1'000'000),
                latency_p50(), medians_.median(), rates_.median(), rate());
  return buf;
}

std::string describe(const std::string& name, const Samples& s,
                     const std::string& unit) {
  const auto [level, value] = s.tail();
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: p50=%.3f %s p%g=%.3f %s (n=%zu)",
                name.c_str(), s.median(), unit.c_str(), level, value,
                unit.c_str(), s.count());
  return buf;
}

}  // namespace perfbench
