// Structured event log: the control plane's audit trail.
//
// Counters aggregate; events narrate. Every reservation lifecycle step
// (admission granted/denied with the bottleneck location, index
// activation, renewal, expiry, teardown) and every policing escalation
// (blocklist entry, OFD confirmation) is emitted as one severity- and
// component-tagged event with typed key/value fields, exported as JSON
// lines — one self-contained JSON object per line, greppable and
// machine-parseable.
//
// Timestamps come from the common Clock, so events from a SimClock run
// carry simulated time and interleave correctly with the discrete-event
// simulator; there is no hidden wall-clock dependency.
//
// The log is bounded (a deque capped at `capacity`; oldest events are
// dropped and counted) and mutex-protected — it is a control-plane
// facility, deliberately kept off the packet path. When disabled (the
// default is enabled-on-construction only if a log object exists at
// all; components hold a nullable pointer), emitting costs one branch.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/telemetry/json.hpp"

namespace colibri::telemetry {

enum class Severity : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

const char* severity_name(Severity s);

// One typed key/value field of an event.
struct EventField {
  enum class Kind : std::uint8_t { kU64, kI64, kStr };

  std::string key;
  Kind kind = Kind::kU64;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  std::string s;

  bool operator==(const EventField&) const = default;
};

struct Event {
  TimeNs time_ns = 0;
  // Process-global monotonic sequence number, assigned at append time.
  // SimClock timestamps can tie (many events in one simulated instant);
  // seq breaks the tie, giving consumers a total order across all logs
  // of the process.
  std::uint64_t seq = 0;
  Severity severity = Severity::kInfo;
  std::string component;  // "cserv", "renewal", "blocklist", "ofd", ...
  std::string name;       // "eer.admitted", "segr.expired", ...
  std::vector<EventField> fields;

  // One JSON object, no trailing newline:
  // {"time_ns":..,"seq":..,"severity":"info","component":"cserv",
  //  "name":"..","fields":{"k":v,...}}
  std::string to_json() const;
  // The same object into `w`; incident bundles leave out the
  // process-global seq so same-seed runs stay byte-identical.
  void write_json(JsonWriter& w, bool with_seq = true) const;
  // Parses one to_json() line: keys in the order written, integers over
  // their full range, nothing after the closing brace.
  static std::optional<Event> from_json(std::string_view line);

  bool operator==(const Event&) const = default;

  // Field lookup helpers (nullptr / nullopt when absent).
  const EventField* field(std::string_view key) const;
  std::optional<std::uint64_t> u64(std::string_view key) const;
  std::optional<std::string> str(std::string_view key) const;
};

class EventLog {
 public:
  explicit EventLog(const Clock& clock, std::size_t capacity = 8192)
      : clock_(&clock), capacity_(capacity < 1 ? 1 : capacity) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Builds one event and commits it on destruction. Chain fields:
  //   log.emit(Severity::kInfo, "cserv", "eer.admitted")
  //      .u64("res_id", id).str("src_as", as.to_string());
  class Builder {
   public:
    Builder(EventLog* log, Severity sev, std::string_view component,
            std::string_view name)
        : log_(log) {
      if (log_ != nullptr) {
        ev_.time_ns = log_->clock_->now_ns();
        ev_.severity = sev;
        ev_.component = component;
        ev_.name = name;
      }
    }
    ~Builder() {
      if (log_ != nullptr) log_->append(std::move(ev_));
    }

    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;

    Builder& u64(std::string_view key, std::uint64_t v) {
      if (log_ != nullptr) {
        ev_.fields.push_back(
            {std::string(key), EventField::Kind::kU64, v, 0, {}});
      }
      return *this;
    }
    Builder& i64(std::string_view key, std::int64_t v) {
      if (log_ != nullptr) {
        ev_.fields.push_back(
            {std::string(key), EventField::Kind::kI64, 0, v, {}});
      }
      return *this;
    }
    Builder& str(std::string_view key, std::string_view v) {
      if (log_ != nullptr) {
        ev_.fields.push_back({std::string(key), EventField::Kind::kStr, 0, 0,
                              std::string(v)});
      }
      return *this;
    }

   private:
    EventLog* log_;
    Event ev_;
  };

  Builder emit(Severity sev, std::string_view component,
               std::string_view name) {
    return Builder(enabled_ && sev >= min_severity_ ? this : nullptr, sev,
                   component, name);
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_min_severity(Severity s) { min_severity_ = s; }

  std::size_t size() const;
  // Events dropped because the bounded deque was full.
  std::uint64_t dropped() const;
  std::vector<Event> events() const;
  std::vector<Event> drain();
  void clear();

  // JSON-lines export: one Event::to_json() per line.
  std::string to_jsonl() const;

 private:
  friend class Builder;
  void append(Event ev);

  const Clock* clock_;
  std::size_t capacity_;
  bool enabled_ = true;
  Severity min_severity_ = Severity::kDebug;

  mutable std::mutex mu_;
  std::deque<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace colibri::telemetry
