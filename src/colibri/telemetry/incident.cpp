#include "colibri/telemetry/incident.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "colibri/telemetry/json.hpp"

namespace colibri::telemetry {
namespace {

void write_window(JsonWriter& w, const SampleWindow& win) {
  w.begin_object().key("start_ns").i64(win.start_ns);
  w.key("end_ns").i64(win.end_ns).key("counters").begin_object();
  for (const auto& [name, delta] : win.counter_deltas) w.key(name).u64(delta);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, level] : win.gauges) w.key(name).i64(level);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : win.histogram_deltas) {
    w.key(name).begin_object().key("count").u64(h.count).key("sum").u64(h.sum);
    w.key("p50").i64(h.percentile_i64(0.50));
    w.key("p99").i64(h.percentile_i64(0.99)).end_object();
  }
  w.end_object().end_object();
}

void write_transition(JsonWriter& w, const AlertTransition& t) {
  const bool firing = t.edge == AlertTransition::Edge::kFiring;
  w.begin_object().key("edge").str(firing ? "firing" : "resolved");
  w.key("time_ns").i64(t.time_ns).key("rule").str(t.name);
  w.key("series").str(t.series).key("severity").str(severity_name(t.severity));
  w.key("value_milli").i64(std::llround(t.value * 1000.0));
  w.key("for_ns").i64(t.for_ns).end_object();
}

std::string bundle_filename(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "incident-%06llu.json",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

IncidentRecorder::IncidentRecorder(AlertEngine& engine, IncidentConfig cfg)
    : engine_(&engine), cfg_(cfg) {
  engine.add_transition_observer(
      [this](const AlertTransition& t) { on_transition(t); });
}

void IncidentRecorder::set_event_log(const EventLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  events_ = log;
}

void IncidentRecorder::set_sampler(const WindowedSampler* sampler) {
  std::lock_guard<std::mutex> lock(mu_);
  sampler_ = sampler;
}

void IncidentRecorder::set_fault_injector(const FaultInjector* inj) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = inj;
}

void IncidentRecorder::set_span_collector(const SpanCollector* collector) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_ = collector;
}

void IncidentRecorder::add_flight_recorder(std::string name,
                                           const FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorders_.emplace_back(std::move(name), recorder);
}

void IncidentRecorder::add_section(std::string name,
                                   std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  sections_.emplace_back(std::move(name), std::move(provider));
}

void IncidentRecorder::set_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = std::move(dir);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

void IncidentRecorder::on_transition(const AlertTransition& t) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(t);
  while (recent_.size() > cfg_.max_transitions) recent_.pop_front();
  if (t.edge != AlertTransition::Edge::kFiring) return;

  // Debounce: an edge inside the window rides the *next* bundle's
  // suppressed list instead of opening its own.
  if (any_bundle_ && t.time_ns - last_bundle_ns_ < cfg_.debounce_ns) {
    suppressed_pending_.emplace_back(t.time_ns, t.name);
    ++suppressed_total_;
    return;
  }

  IncidentBundle bundle;
  bundle.id = next_id_++;
  bundle.time_ns = t.time_ns;
  bundle.rule = t.name;
  bundle.json = capture_locked(t);
  if (!dir_.empty()) {
    const std::string path =
        (std::filesystem::path(dir_) / bundle_filename(bundle.id)).string();
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(bundle.json.data(), 1, bundle.json.size(), f);
      std::fclose(f);
      bundle.path = path;
    }
  }
  bundles_.push_back(std::move(bundle));
  while (bundles_.size() > cfg_.max_bundles) bundles_.pop_front();
  suppressed_pending_.clear();
  last_bundle_ns_ = t.time_ns;
  any_bundle_ = true;
}

std::string IncidentRecorder::capture_locked(const AlertTransition& t) {
  // One top-level key per line: `incident diff` compares bundles
  // line-by-line, so a changed section diffs as one line, not as one
  // opaque blob.
  JsonWriter w;
  const auto line = [&w](std::string_view key) -> JsonWriter& {
    return w.layout("\n").key(key).layout(" ");
  };
  w.begin_object();
  line("schema").str("colibri.incident.v1");
  line("id").u64(next_id_ - 1);
  line("time_ns").i64(t.time_ns);
  write_transition(line("trigger"), t);

  line("suppressed").begin_array();
  for (const auto& [at, rule] : suppressed_pending_) {
    w.begin_object().key("time_ns").i64(at).key("rule").str(rule).end_object();
  }
  w.end_array();

  // Full rule/SLO state at the edge — the engine dispatches observers
  // without its lock held, so these queries are safe from here.
  line("alerts").begin_array();
  for (const AlertStatus& st : engine_->status()) {
    w.begin_object().key("name").str(st.name);
    w.key("state").str(alert_state_name(st.state));
    w.key("severity").str(severity_name(st.severity));
    w.key("value_milli").i64(std::llround(st.last_value * 1000.0));
    w.key("has_value").boolean(st.has_value).key("since_ns").i64(st.since_ns);
    w.key("times_fired").u64(st.times_fired).end_object();
  }
  w.end_array();

  line("slos").begin_array();
  for (const SloStatus& st : engine_->slo_status()) {
    w.begin_object().key("name").str(st.name);
    w.key("state").str(alert_state_name(st.state));
    w.key("burn_rate_milli").i64(std::llround(st.burn_rate * 1000.0));
    w.key("budget_remaining_milli")
        .i64(std::llround(st.budget_remaining * 1000.0));
    w.key("bad").u64(st.bad).key("total").u64(st.total).end_object();
  }
  w.end_array();

  line("recent_transitions").begin_array();
  for (const AlertTransition& tr : recent_) write_transition(w, tr);
  w.end_array();

  line("events").begin_array();
  if (events_ != nullptr) {
    const std::vector<Event> evs = events_->events();
    const std::size_t skip =
        evs.size() > cfg_.max_events ? evs.size() - cfg_.max_events : 0;
    for (std::size_t i = skip; i < evs.size(); ++i) {
      evs[i].write_json(w, /*with_seq=*/false);
    }
  }
  w.end_array();

  line("windows").begin_array();
  if (sampler_ != nullptr) {
    for (const SampleWindow& win : sampler_->recent_windows(cfg_.max_windows)) {
      write_window(w, win);
    }
  }
  w.end_array();

  line("flight_records").begin_object();
  for (const auto& [name, rec] : recorders_) {
    w.key(name).begin_array();
    for (const FlightRecord& r : rec->records()) r.write_json(w);
    w.end_array();
  }
  w.end_object();

  line("faults");
  if (faults_ != nullptr) {
    const FaultStats fs = faults_->snapshot();
    w.begin_object().key("msg_delivered").u64(fs.msg_delivered);
    w.key("msg_dropped").u64(fs.msg_dropped);
    w.key("msg_duplicated").u64(fs.msg_duplicated);
    w.key("msg_delayed").u64(fs.msg_delayed);
    w.key("link_drops").u64(fs.link_drops).key("wal_faults").u64(fs.wal_faults);
    w.end_object();
  } else {
    w.null();
  }

  line("spans").raw(spans_ != nullptr ? spans_->trace().to_json() : "null");

  line("sections").begin_object();
  for (const auto& [name, provider] : sections_) w.key(name).raw(provider());
  w.end_object();
  return w.layout("\n").end_object().layout("\n").take();
}

std::size_t IncidentRecorder::bundle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_.size();
}

std::vector<IncidentBundle> IncidentRecorder::bundles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {bundles_.begin(), bundles_.end()};
}

std::uint64_t IncidentRecorder::suppressed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_total_;
}

// --- offline analysis -------------------------------------------------------

std::vector<IncidentFileInfo> list_incident_bundles(const std::string& dir) {
  std::vector<IncidentFileInfo> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("incident-", 0) != 0 ||
        name.size() < 5 || name.substr(name.size() - 5) != ".json") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string text(std::istreambuf_iterator<char>(in), {});
    // The headline keys lead every bundle in a fixed order
    // (capture_locked); the rest is parsed only to check that the file
    // is one complete document, ended by the writer's newline.
    std::string_view doc = text;
    if (doc.ends_with('\n')) doc.remove_suffix(1);
    JsonReader r(doc);
    IncidentFileInfo info;
    r.begin_object();
    r.key("schema").skip();
    info.id = r.key("id").u64();
    info.time_ns = r.key("time_ns").i64();
    r.key("trigger").begin_object();
    r.key("edge").skip();
    r.key("time_ns").skip();
    info.rule = r.key("rule").str();
    for (std::string key; r.next_key(key);) r.skip();  // rest of trigger
    for (std::string key; r.next_key(key);) r.skip();  // rest of bundle
    if (!r.done()) info = {};
    info.path = entry.path().string();
    info.json = std::move(text);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const IncidentFileInfo& a, const IncidentFileInfo& b) {
              return a.path < b.path;
            });
  return out;
}

std::string diff_incident_bundles(const std::string& a, const std::string& b) {
  const auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    return lines;
  };
  const std::vector<std::string> la = split(a), lb = split(b);
  std::string out;
  const std::size_t n = std::max(la.size(), lb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* va = i < la.size() ? &la[i] : nullptr;
    const std::string* vb = i < lb.size() ? &lb[i] : nullptr;
    if (va != nullptr && vb != nullptr && *va == *vb) continue;
    if (va != nullptr) out += "- " + *va + "\n";
    if (vb != nullptr) out += "+ " + *vb + "\n";
  }
  return out;
}

}  // namespace colibri::telemetry
