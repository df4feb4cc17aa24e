// Automatic incident black-box capture (post-mortem forensics,
// ISSUE 10).
//
// An IncidentRecorder subscribes to the AlertEngine's transition
// observer seam (alerts.hpp). On a *firing* edge it freezes everything
// an operator would ask for five minutes later — the flight-recorder
// rings, the last N structured events, the sampler's recent windows,
// the active span capture, the fault injector's counters, and the full
// rule/SLO state at the edge — into one self-contained JSON incident
// bundle, optionally written to disk next to the HistoryStore so the
// evidence survives the process.
//
// Alert storms are debounced: a firing edge within `debounce_ns` of the
// previous bundle does not open a new one — it is counted and listed
// (rule + time) in the *next* bundle, so a cascade of fifty rules
// yields one bundle naming fifty rules, not fifty bundles.
//
// Bundles are deterministic under SimClock: timestamps come from the
// transition edge, events are serialized without their process-global
// seq (the one field that differs between bit-identical reruns, same
// exclusion the chaos harness's canonical history makes), and doubles
// are rounded to milli-units. Two same-seed runs therefore produce
// byte-identical bundles — which is what makes a forensic artifact
// diffable at all (colibri_obs incident diff).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/faults.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/timeseries.hpp"
#include "colibri/telemetry/trace.hpp"

namespace colibri::telemetry {

struct IncidentConfig {
  // Minimum Clock time between bundles; firing edges inside the window
  // are suppressed into the next bundle.
  TimeNs debounce_ns = 30 * kNsPerSec;
  std::size_t max_events = 64;       // newest events embedded per bundle
  std::size_t max_windows = 8;       // newest sampler windows embedded
  std::size_t max_transitions = 32;  // recent-edge ring embedded
  std::size_t max_bundles = 64;      // in-memory retention
};

struct IncidentBundle {
  std::uint64_t id = 0;  // per-recorder, 0-based; also the filename
  TimeNs time_ns = 0;    // the triggering edge's time
  std::string rule;      // triggering rule name
  std::string path;      // on-disk file ("" when directory unset)
  std::string json;      // the self-contained bundle
};

class IncidentRecorder {
 public:
  // Subscribes to `engine`'s transition edges. The recorder must
  // outlive the engine's last evaluate() — the engine holds a raw
  // callback into it.
  explicit IncidentRecorder(AlertEngine& engine, IncidentConfig cfg = {});

  IncidentRecorder(const IncidentRecorder&) = delete;
  IncidentRecorder& operator=(const IncidentRecorder&) = delete;

  // --- snapshot sources (all optional; must outlive the recorder) ---------
  void set_event_log(const EventLog* log);
  void set_sampler(const WindowedSampler* sampler);
  void set_fault_injector(const FaultInjector* inj);
  void set_span_collector(const SpanCollector* collector);
  void add_flight_recorder(std::string name, const FlightRecorder* recorder);
  // Free-form extra section: `provider` returns one JSON value embedded
  // under "sections"."<name>" (e.g. an assembled-trace summary).
  void add_section(std::string name, std::function<std::string()> provider);

  // When set, every bundle is also written to
  // `<dir>/incident-<id 6 digits>.json` (directory created on demand).
  void set_directory(std::string dir);

  std::size_t bundle_count() const;
  std::vector<IncidentBundle> bundles() const;
  std::uint64_t suppressed_total() const;

 private:
  void on_transition(const AlertTransition& t);
  std::string capture_locked(const AlertTransition& t);

  AlertEngine* engine_;
  IncidentConfig cfg_;

  mutable std::mutex mu_;
  const EventLog* events_ = nullptr;
  const WindowedSampler* sampler_ = nullptr;
  const FaultInjector* faults_ = nullptr;
  const SpanCollector* spans_ = nullptr;
  std::vector<std::pair<std::string, const FlightRecorder*>> recorders_;
  std::vector<std::pair<std::string, std::function<std::string()>>> sections_;
  std::string dir_;

  std::deque<IncidentBundle> bundles_;
  std::deque<AlertTransition> recent_;  // both edges, newest last
  // Firing edges swallowed by the debounce window, pending inclusion in
  // the next bundle.
  std::vector<std::pair<TimeNs, std::string>> suppressed_pending_;
  std::uint64_t suppressed_total_ = 0;
  std::uint64_t next_id_ = 0;
  TimeNs last_bundle_ns_ = 0;
  bool any_bundle_ = false;
};

// --- offline analysis (colibri_obs incident list/show/diff) ----------------
// A bundle file and its headline fields: top-level id and time_ns, and
// the trigger's rule.
struct IncidentFileInfo {
  std::string path;
  std::uint64_t id = 0;
  TimeNs time_ns = 0;
  std::string rule;
  std::string json;  // the whole file
};

// Bundle files ("incident-*.json") under `dir`, sorted by filename.
// Missing or empty directories yield an empty list, not an error; a file
// that does not parse is listed with id 0, time 0 and an empty rule.
std::vector<IncidentFileInfo> list_incident_bundles(const std::string& dir);

// Line-by-line structural diff of two bundle texts: "" when equal,
// otherwise unified-style "-"/"+" lines of every differing section.
std::string diff_incident_bundles(const std::string& a, const std::string& b);

}  // namespace colibri::telemetry
