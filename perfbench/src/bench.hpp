// Shared pieces of the repository benchmark: run options, the result a
// workload hands back, sample distributions, and the clock and counters
// the benchmark uses to time the system from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `end_to_end` is printed by untraced
// runs, `per_layer` by traced runs; `notes` are human-readable lines
// (sample counts, percentile levels, sizing) printed before the result.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// a / b, or 0 when nothing was measured (b == 0).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Number of allocations made through the global operator new since the
// process started (alloc_count.cpp interposes the operators). Layer
// allocation counts are differences of this value around a layer call.
std::uint64_t alloc_count();

// Peak resident set size of the process, in MiB.
double peak_rss_mb();

// A distribution of real per-unit samples (per batch, per request).
class Samples {
 public:
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  // The highest of p99/p90/p50 that has at least ten samples beyond it:
  // (level in percent, value). (0, 0) when empty.
  std::pair<double, double> tail() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

// A run cut into consecutive windows of kWindowNs of wall time. Each
// window keeps the median latency of its units and the median rate (work
// per second of service time) of its units. Other tenants of a shared
// host slow the machine, by up to half, for seconds to minutes at a time,
// and never speed it up; the fastest window of a run is the one least
// disturbed, so it is what the statistics below report.
inline constexpr std::int64_t kWindowNs = 250'000'000;

class Windows {
 public:
  // One unit (batch or request) that took `latency_us`.
  void add_latency(double latency_us);
  // One unit of the loop that did `work` in `service_s` seconds.
  void add_work(double work, double service_s);
  // The lowest window median latency.
  double latency_p50() const;
  // The highest window median rate.
  double rate() const;
  // "windows: n of 250 ms, …" summary for notes.
  std::string describe() const;

 private:
  void roll();

  std::int64_t opened_ = 0;
  Samples lat_, rate_;          // the open window's units
  Samples medians_, rates_;     // one per closed window
};

// "p50=… p99=… (n=…)" summary for notes.
std::string describe(const std::string& name, const Samples& s,
                     const std::string& unit);

Outcome run_dp_cold_table(const Options& opt);
Outcome run_dp_attack_long_path(const Options& opt);
Outcome run_cp_session_churn(const Options& opt);

// Proves the data-path checks can fail: a packet labelled valid whose
// HVF was flipped must be counted as a failure. Returns true when it is.
bool dp_self_check();

}  // namespace perfbench
