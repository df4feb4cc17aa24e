#include "colibri/telemetry/federation.hpp"

#include <algorithm>
#include <stdexcept>

namespace colibri::telemetry {

FleetCollector::FleetCollector(const Clock& clock, FleetCollectorConfig cfg,
                               MetricsRegistry* export_registry)
    : clock_(&clock), cfg_(cfg), last_end_ns_(clock.now_ns()) {
  if (cfg_.period_ns < 1) cfg_.period_ns = 1;
  if (cfg_.ring_capacity < 1) cfg_.ring_capacity = 1;
  if (cfg_.top_k < 1) cfg_.top_k = 1;
  if (export_registry != nullptr) {
    registration_.rebind(export_registry, this);
  }
}

void FleetCollector::add_member(std::string name,
                                const MetricsRegistry& registry) {
  std::lock_guard lock(mu_);
  members_.push_back(Member{std::move(name), &registry, {}});
  member_windows_.emplace_back();
}

void FleetCollector::add_link(std::string name, std::string_view member_a,
                              std::string_view member_b) {
  std::lock_guard lock(mu_);
  const auto index_of = [this](std::string_view m) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].name == m) return i;
    }
    throw std::invalid_argument("FleetCollector: unknown member '" +
                                std::string(m) + "'");
  };
  Link l;
  l.a = index_of(member_a);
  l.b = index_of(member_b);
  l.name = std::move(name);
  links_.push_back(std::move(l));
}

void FleetCollector::add_rollup(std::string series) {
  std::lock_guard lock(mu_);
  if (std::find(rollups_.begin(), rollups_.end(), series) == rollups_.end()) {
    rollups_.push_back(std::move(series));
  }
}

bool FleetCollector::rolled_up(std::string_view name) const {
  return std::any_of(rollups_.begin(), rollups_.end(), [&](std::string_view r) {
    return r.ends_with('.') ? name.size() > r.size() && name.starts_with(r)
                            : !r.empty() && name == r;
  });
}

void FleetCollector::sketch_add(const std::string& key, std::uint64_t delta) {
  if (delta == 0) return;
  if (auto it = sketch_.find(key); it != sketch_.end()) {
    it->second.count += delta;
    return;
  }
  if (sketch_.size() < cfg_.top_k) {
    sketch_.emplace(key, SketchEntry{delta, 0});
    return;
  }
  // Space-saving replacement: evict the minimum-count entry (smallest
  // key on ties — map order makes the choice deterministic) and charge
  // its count as the newcomer's over-estimate error.
  auto min_it = sketch_.begin();
  for (auto it = std::next(sketch_.begin()); it != sketch_.end(); ++it) {
    if (it->second.count < min_it->second.count) min_it = it;
  }
  const std::uint64_t floor = min_it->second.count;
  sketch_.erase(min_it);
  sketch_.emplace(key, SketchEntry{floor + delta, floor});
}

bool FleetCollector::poll() {
  const TimeNs now = clock_->now_ns();
  // Snapshot every member registry *outside* mu_: a member may double
  // as the export registry, and its snapshot() re-enters
  // collect_metrics() below, which takes mu_.
  std::vector<const MetricsRegistry*> regs;
  {
    std::lock_guard lock(mu_);
    if (have_baseline_ && now - last_end_ns_ < cfg_.period_ns) return false;
    for (const Member& m : members_) regs.push_back(m.registry);
  }
  std::vector<MetricsSnapshot> snaps;
  snaps.reserve(regs.size());
  for (const MetricsRegistry* reg : regs) snaps.push_back(reg->snapshot());

  std::lock_guard lock(mu_);
  const TimeNs start = last_end_ns_;
  if (have_baseline_ && now - start < cfg_.period_ns) return false;

  const std::string& res_prefix = cfg_.reservation_prefix;
  const auto is_reservation = [&res_prefix](std::string_view name) {
    return !res_prefix.empty() && name.size() > res_prefix.size() &&
           name.starts_with(res_prefix);
  };
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    Member& m = members_[s];
    std::size_t added = 0;
    std::erase_if(snaps[s].counters, [&](const auto& series) {
      const std::string& name = series.first;
      if (!rolled_up(name) && !is_reservation(name)) return true;
      if (m.prev.counters.contains(name)) return false;
      // Over budget: the series is not silently folded into the rollup
      // with bogus deltas — it is dropped and counted.
      if (tracked_ >= cfg_.max_tracked_series) {
        ++dropped_;
        return true;
      }
      ++tracked_;
      ++added;
      return false;
    });
    MetricsSnapshot cur;
    cur.counters = std::move(snaps[s].counters);
    member_windows_[s] = cut_window(m.prev, cur, start, now);
    // A series that left the registry keeps its value and budget slot.
    if (cur.counters.size() != m.prev.counters.size() + added) {
      cur.counters.merge(m.prev.counters);
    }
    m.prev = std::move(cur);
  }

  last_end_ns_ = now;
  if (!have_baseline_) {  // first poll: baseline only
    have_baseline_ = true;
    return false;
  }
  // Heavy hitters: per-reservation deltas summed across members and
  // series before the sketch sees them (a reservation crossing 5 ASes
  // is one hitter).
  if (!res_prefix.empty()) {
    for (const auto& [key, delta] :
         WindowSpan{member_windows_}.counter_delta_by_key(res_prefix)) {
      sketch_add(key, delta);
    }
  }
  if (ring_.size() == cfg_.ring_capacity) ring_.erase(ring_.begin());
  ring_.push_back({start, now, rollup_locked(), {}, {}});
  ++windows_sampled_;
  return true;
}

std::map<std::string, std::uint64_t> FleetCollector::rollup_locked() const {
  std::map<std::string, std::uint64_t> sums;
  for (const std::string& family : rollups_) {
    sums[family] = WindowSpan{member_windows_}.counter_delta(
        family, family.ends_with('.'));
  }
  return sums;
}

const std::string* FleetCollector::family_of(std::string_view series) const {
  for (const std::string& family : rollups_) {
    if (family == series ||
        (family.ends_with('.') &&
         std::string_view(family).substr(0, family.size() - 1) == series)) {
      return &family;
    }
  }
  return nullptr;
}

double FleetCollector::member_rate_locked(std::size_t i,
                                          const std::string& family) const {
  return WindowSpan{{&member_windows_[i], 1}}.rate(family,
                                                   family.ends_with('.'));
}

double FleetCollector::fleet_rate(std::string_view series,
                                  TimeNs span_ns) const {
  std::lock_guard lock(mu_);
  const std::string* family = family_of(series);
  return family == nullptr
             ? 0.0
             : WindowSpan::trailing(ring_, span_ns).rate(*family);
}

double FleetCollector::as_rate(std::string_view member,
                               std::string_view series) const {
  std::lock_guard lock(mu_);
  const std::string* family = family_of(series);
  if (ring_.empty() || family == nullptr) return 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].name == member) return member_rate_locked(i, *family);
  }
  return 0.0;
}

double FleetCollector::link_rate(std::string_view link,
                                 std::string_view series) const {
  std::lock_guard lock(mu_);
  const std::string* family = family_of(series);
  if (ring_.empty() || family == nullptr) return 0.0;
  for (const Link& l : links_) {
    if (l.name == link) {
      return member_rate_locked(l.a, *family) +
             member_rate_locked(l.b, *family);
    }
  }
  return 0.0;
}

std::vector<FleetTopEntry> FleetCollector::top_hitters() const {
  std::lock_guard lock(mu_);
  return ranked_locked();
}

std::vector<FleetTopEntry> FleetCollector::ranked_locked() const {
  std::vector<FleetTopEntry> out;
  out.reserve(sketch_.size());
  for (const auto& [key, e] : sketch_) {
    out.push_back({key, e.count, e.error});
  }
  std::sort(out.begin(), out.end(),
            [](const FleetTopEntry& x, const FleetTopEntry& y) {
              if (x.estimate != y.estimate) return x.estimate > y.estimate;
              return x.key < y.key;
            });
  return out;
}

std::size_t FleetCollector::member_count() const {
  std::lock_guard lock(mu_);
  return members_.size();
}

std::size_t FleetCollector::link_count() const {
  std::lock_guard lock(mu_);
  return links_.size();
}

std::size_t FleetCollector::window_count() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::uint64_t FleetCollector::windows_sampled() const {
  std::lock_guard lock(mu_);
  return windows_sampled_;
}

std::size_t FleetCollector::tracked_series() const {
  std::lock_guard lock(mu_);
  return tracked_;
}

std::uint64_t FleetCollector::dropped_series() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

void FleetCollector::collect_metrics(MetricSink& sink) const {
  std::lock_guard lock(mu_);
  sink.gauge("fleet.as_count", static_cast<std::int64_t>(members_.size()));
  sink.gauge("fleet.link_count", static_cast<std::int64_t>(links_.size()));
  sink.counter("fleet.windows", windows_sampled_);
  sink.gauge("fleet.series_tracked", static_cast<std::int64_t>(tracked_));
  sink.counter("fleet.series_dropped", dropped_);
  sink.gauge("fleet.top.count", static_cast<std::int64_t>(sketch_.size()));

  // Whole-ring rate per rollup family, rounded: fleet.rate.<family>.
  for (const std::string& family : rollups_) {
    std::string name = "fleet.rate.";
    name.append(family.ends_with('.') ? family.substr(0, family.size() - 1)
                                      : family);
    sink.gauge(name,
               static_cast<std::int64_t>(WindowSpan{ring_}.rate(family) + 0.5));
  }

  // Ranked heavy-hitter magnitudes (keys stay on the query API — rank
  // names keep exposition cardinality at top_k).
  const std::vector<FleetTopEntry> top = ranked_locked();
  for (std::size_t i = 0; i < top.size(); ++i) {
    sink.gauge("fleet.top." + std::to_string(i + 1) + ".estimate",
               static_cast<std::int64_t>(top[i].estimate));
  }
}

}  // namespace colibri::telemetry
