#include "colibri/telemetry/events.hpp"

#include <atomic>

namespace colibri::telemetry {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

std::string Event::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void Event::write_json(JsonWriter& w, bool with_seq) const {
  w.begin_object().key("time_ns").i64(time_ns);
  if (with_seq) w.key("seq").u64(seq);
  w.key("severity").str(severity_name(severity));
  w.key("component").str(component);
  w.key("name").str(name);
  w.key("fields").begin_object();
  for (const EventField& f : fields) {
    w.key(f.key);
    switch (f.kind) {
      case EventField::Kind::kU64: w.u64(f.u); break;
      case EventField::Kind::kI64: w.i64(f.i); break;
      case EventField::Kind::kStr: w.str(f.s); break;
    }
  }
  w.end_object().end_object();
}

std::optional<Event> Event::from_json(std::string_view line) {
  JsonReader r(line);
  Event ev;
  r.begin_object();
  ev.time_ns = r.key("time_ns").i64();
  ev.seq = r.key("seq").u64();
  const std::string severity = r.key("severity").str();
  ev.component = r.key("component").str();
  ev.name = r.key("name").str();
  r.key("fields").begin_object();
  EventField f;
  while (r.next_key(f.key)) {
    // A negative integer is an i64 field, any other integer ("-0"
    // included) a u64 one, so every parsed line re-emits unchanged.
    if (r.peek() == '"') {
      f.kind = EventField::Kind::kStr;
      f.s = r.str();
    } else if (r.peek() == '-') {
      f.i = r.i64();
      if (f.i < 0) f.kind = EventField::Kind::kI64;
    } else {
      f.u = r.u64();
    }
    ev.fields.push_back(std::move(f));
    f = {};
  }
  r.end_object();
  for (const Severity s : {Severity::kDebug, Severity::kInfo, Severity::kWarn,
                           Severity::kError}) {
    if (severity == severity_name(s)) ev.severity = s;
  }
  if (!r.done() || severity != severity_name(ev.severity)) return std::nullopt;
  return ev;
}

const EventField* Event::field(std::string_view key) const {
  for (const EventField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::optional<std::uint64_t> Event::u64(std::string_view key) const {
  const EventField* f = field(key);
  if (f == nullptr) return std::nullopt;
  switch (f->kind) {
    case EventField::Kind::kU64: return f->u;
    case EventField::Kind::kI64: return static_cast<std::uint64_t>(f->i);
    case EventField::Kind::kStr: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::string> Event::str(std::string_view key) const {
  const EventField* f = field(key);
  if (f == nullptr || f->kind != EventField::Kind::kStr) return std::nullopt;
  return f->s;
}

void EventLog::append(Event ev) {
  // Process-global, not per-log: a deployment runs one EventLog per
  // registry but tools merge the JSONL streams, and the merged order
  // must be reconstructible.
  static std::atomic<std::uint64_t> next_seq{0};
  ev.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(ev));
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

std::vector<Event> EventLog::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out{events_.begin(), events_.end()};
  events_.clear();
  return out;
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::string EventLog::to_jsonl() const {
  JsonWriter w;
  for (const Event& ev : events()) {
    ev.write_json(w);
    w.layout("\n");
  }
  return w.take();
}

}  // namespace colibri::telemetry
