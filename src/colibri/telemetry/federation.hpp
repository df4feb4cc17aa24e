// Fleet-wide metrics federation: the cross-AS rollup layer on top of
// the per-AS MetricsRegistry.
//
// Every telemetry surface so far is per-AS: one registry per control
// plane, one sampler per registry. A topology-wide question — "what is
// the whole fleet admitting per second", "which reservation consumes
// the most bandwidth anywhere" — needs a collector that visits every
// AS's registry, cuts one window per AS with the WindowedSampler's
// delta cut (cut_window, timeseries.hpp), and rolls the windows up
// hierarchically: per-AS -> per-link -> fleet.
//
// Memory is bounded by construction: the collector remembers previous
// values only for series it actually rolls up (the registered rollup
// families plus per-reservation counters under `reservation_prefix`),
// capped fleet-wide at `max_tracked_series`. Series beyond the budget
// are dropped *and counted* (fleet.series_dropped) — a truncated view
// must never read as a complete one. Per-reservation counters feed a
// space-saving top-K sketch, so fleet-wide heavy hitters surface with
// O(k) state no matter how many reservations exist.
//
// Collection is Clock-driven like WindowedSampler: poll() cuts a fleet
// window only when one period of Clock time has elapsed, so a SimClock
// scenario federates deterministically — identical runs produce
// identical fleet windows, heavy-hitter rankings, and fleet.* exports.
// The collector is itself a MetricsSource: registered with an export
// registry it re-exports the fleet rollup as fleet.* series through
// the ordinary JSON-snapshot / OpenMetrics pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri::telemetry {

struct FleetCollectorConfig {
  // Minimum Clock time between fleet windows; poll() calls inside one
  // period are no-ops (same contract as WindowedSampler).
  TimeNs period_ns = kNsPerSec;
  // Fleet windows retained for span queries.
  std::size_t ring_capacity = 16;
  // Heavy-hitter sketch capacity (space-saving: O(top_k) state).
  std::size_t top_k = 8;
  // Counters named "<reservation_prefix><id>.<rest>" feed the sketch,
  // keyed by <id>, valued by the per-window delta.
  std::string reservation_prefix = "res.";
  // Fleet-wide cap on remembered previous-value entries across all
  // members. Beyond it, new series are dropped and counted.
  std::size_t max_tracked_series = 65536;
};

// One heavy-hitter entry: `estimate` over-counts by at most `error`
// (the space-saving guarantee), so estimate - error is a lower bound on
// the reservation's true accumulated delta.
struct FleetTopEntry {
  std::string key;
  std::uint64_t estimate = 0;
  std::uint64_t error = 0;
};

class FleetCollector : public MetricsSource {
 public:
  // Exports fleet.* through `export_registry` (nullptr = query-only).
  FleetCollector(const Clock& clock, FleetCollectorConfig cfg = {},
                 MetricsRegistry* export_registry = nullptr);
  ~FleetCollector() override = default;

  FleetCollector(const FleetCollector&) = delete;
  FleetCollector& operator=(const FleetCollector&) = delete;

  // Registers one AS's registry under `name` (e.g. "1-10"). The
  // registry must outlive the collector. Member order is rollup order,
  // which keeps every export deterministic.
  void add_member(std::string name, const MetricsRegistry& registry);
  // Registers an inter-AS link as a named member pair; its rollup is
  // the sum of the two endpoints' deltas. Unknown member names throw.
  void add_link(std::string name, std::string_view member_a,
                std::string_view member_b);
  // Registers a counter family to roll up (trailing '.' = prefix sum,
  // e.g. "router.drop.").
  void add_rollup(std::string series);

  // Cuts a new fleet window if at least one period elapsed; the first
  // poll only captures the baseline (no window). Returns true when a
  // window was cut. Run one collection loop per collector.
  bool poll();

  // --- queries -----------------------------------------------------------
  // Per-second fleet-wide rate of a rollup family over the trailing
  // `span_ns` of the retained ring (kSpanAll = whole ring). A family
  // registered as "router.drop." also answers to "router.drop".
  double fleet_rate(std::string_view series,
                    TimeNs span_ns = WindowedSampler::kSpanAll) const;
  // Per-member / per-link rate over the latest window only (0 before
  // the first window or for unknown names).
  double as_rate(std::string_view member, std::string_view series) const;
  double link_rate(std::string_view link, std::string_view series) const;
  // Heavy hitters, highest estimate first (ties broken by key).
  std::vector<FleetTopEntry> top_hitters() const;

  std::size_t member_count() const;
  std::size_t link_count() const;
  std::size_t window_count() const;       // retained in the ring
  std::uint64_t windows_sampled() const;  // total since construction
  std::size_t tracked_series() const;     // prev-value entries, fleet-wide
  std::uint64_t dropped_series() const;   // budget-exceeded drops

  // fleet.as_count, fleet.link_count, fleet.windows, fleet.series_*,
  // fleet.top.*, and one fleet.rate.<family> gauge per rollup family.
  void collect_metrics(MetricSink& sink) const override;

 private:
  struct Member {
    std::string name;
    const MetricsRegistry* registry = nullptr;
    // Previous values of tracked series only (the memory budget).
    MetricsSnapshot prev;
  };
  struct Link {
    std::string name;
    std::size_t a = 0;  // member indices
    std::size_t b = 0;
  };
  struct SketchEntry {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  // True when the counter belongs to a rollup family.
  bool rolled_up(std::string_view name) const;
  // Per-family sums over every member's latest window: the counters of
  // a fleet window.
  std::map<std::string, std::uint64_t> rollup_locked() const;
  // The registered family answering to `series`, or nullptr.
  const std::string* family_of(std::string_view series) const;
  // Rate of `family` in member i's latest window.
  double member_rate_locked(std::size_t i, const std::string& family) const;
  // Sketch entries, highest estimate first (ties broken by key).
  std::vector<FleetTopEntry> ranked_locked() const;
  // Space-saving update: admit `key` with weight `delta`.
  void sketch_add(const std::string& key, std::uint64_t delta);

  const Clock* clock_;
  FleetCollectorConfig cfg_;

  mutable std::mutex mu_;
  std::vector<Member> members_;
  // Latest cut per member (same index), every tracked series.
  std::vector<SampleWindow> member_windows_;
  std::vector<Link> links_;
  std::vector<std::string> rollups_;
  bool have_baseline_ = false;
  TimeNs last_end_ns_;  // end of the newest window (or the baseline)
  std::vector<SampleWindow> ring_;  // fleet family sums, oldest first
  std::uint64_t windows_sampled_ = 0;
  std::size_t tracked_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<std::string, SketchEntry> sketch_;

  ScopedSource registration_;
};

}  // namespace colibri::telemetry
