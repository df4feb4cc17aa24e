// Chrome/Perfetto trace-event export.
//
// Renders the telemetry layer's time-shaped artifacts — bus span traces
// (SpanTrace), structured events (EventLog), and captured data-plane
// stage spans (StageProfiler) — as one Chrome trace-event JSON object
// ({"traceEvents":[...]}) loadable in ui.perfetto.dev or
// chrome://tracing. Spans become ph:"X" complete events, lifecycle
// events become ph:"i" instants, and every AS (or gateway shard) gets
// its own named track via process/thread metadata events.
//
// The sources run on unrelated clock bases (the bus uses the steady
// clock, the event log a possibly-simulated Clock, the profiler the
// steady clock again), so the builder lays each added source out
// sequentially on the export timeline: a source's earliest timestamp
// maps to the current cursor and the cursor advances past its latest.
// Within one source, relative timing is preserved exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/profiler.hpp"
#include "colibri/telemetry/trace.hpp"

namespace colibri::telemetry {

class PerfettoTraceBuilder {
 public:
  // Key/value annotations rendered into an event's "args" object.
  using Args = std::vector<std::pair<std::string, std::string>>;

  // One named track = one (pid, tid) pair. Metadata events naming the
  // process/thread are emitted on first use; the handle is stable.
  struct Track {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
  };
  Track track(std::string_view process, std::string_view thread);

  // Raw events; timestamps are already on the export timeline (ns).
  void add_complete(Track t, std::string_view name, std::string_view category,
                    std::int64_t start_ns, std::int64_t dur_ns,
                    const Args& args = {});
  void add_instant(Track t, std::string_view name, std::string_view category,
                   std::int64_t ts_ns, const Args& args = {});
  // Flow arrow between tracks (ph:"s" start / ph:"f" finish). Events
  // with the same id/name/cat bind into one arrow; a flow event
  // associates with the enclosing complete event on its track, so emit
  // these inside the span's [start, start+dur) window.
  void add_flow_start(Track t, std::uint64_t id, std::int64_t ts_ns);
  void add_flow_finish(Track t, std::uint64_t id, std::int64_t ts_ns);

  // --- source adapters (sequential timeline placement) -----------------
  // One track per AS under `process`; nested hop spans become stacked
  // complete events, truncated spans become instants. `label` prefixes
  // every span name ("setup: 1-110"). Spans carrying distributed-tracing
  // ids additionally get parent→child flow arrows across the AS tracks
  // (the causal chain of the multi-AS request).
  void add_span_trace(const SpanTrace& trace, std::string_view process,
                      std::string_view label);
  // One instant per event; the track is the event's "as" field when
  // present (one track per AS), its component otherwise.
  void add_events(const std::vector<Event>& events, std::string_view process);
  // Captured pipeline stage spans on one track (e.g. "gateway shard 0").
  void add_stage_spans(const StageProfiler& profiler,
                       const std::vector<StageSpan>& spans,
                       std::string_view process, std::string_view thread);

  std::size_t event_count() const { return body_.size(); }
  // Distinct named tracks created so far.
  std::size_t track_count() const { return tracks_.size(); }

  std::string to_json() const;

 private:
  // Maps a source window onto the export timeline; returns the shift to
  // add to every source timestamp.
  std::int64_t place(std::int64_t src_min_ns, std::int64_t src_max_ns);

  std::map<std::string, std::uint32_t, std::less<>> pids_;
  std::map<std::string, Track, std::less<>> tracks_;  // "process\0thread"
  std::vector<std::string> metadata_;  // process_name / thread_name events
  std::vector<std::string> body_;      // X / i / flow events
  std::int64_t cursor_ns_ = 0;
};

}  // namespace colibri::telemetry
