#include "colibri/telemetry/trace_export.hpp"

#include <algorithm>
#include <cstdio>

#include "colibri/telemetry/json.hpp"

namespace colibri::telemetry {

namespace {

// Trace-event timestamps are microseconds; keep ns resolution as
// fractional digits.
// The sign is written on its own: -500 ns is "-0.500", not "0.500".
std::string micros(std::int64_t ns) {
  const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                   : static_cast<std::uint64_t>(ns);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%llu.%03llu", ns < 0 ? "-" : "",
                static_cast<unsigned long long>(mag / 1000),
                static_cast<unsigned long long>(mag % 1000));
  return buf;
}

constexpr std::int64_t kSourceGapNs = 50'000;  // 50 us between sources

// An open event object carrying the fields every phase shares.
JsonWriter event(PerfettoTraceBuilder::Track t, std::string_view name,
                 std::string_view category, std::int64_t ts_ns) {
  JsonWriter e;
  e.begin_object().key("name").str(name);
  e.key("cat").str(category.empty() ? "colibri" : category);
  e.key("pid").u64(t.pid).key("tid").u64(t.tid);
  e.key("ts").raw(micros(ts_ns));
  return e;
}

JsonWriter& write_args(JsonWriter& e, const PerfettoTraceBuilder::Args& args) {
  e.key("args").begin_object();
  for (const auto& [k, v] : args) e.key(k).str(v);
  return e.end_object();
}

}  // namespace

PerfettoTraceBuilder::Track PerfettoTraceBuilder::track(
    std::string_view process, std::string_view thread) {
  std::string key(process);
  key.push_back('\0');
  key.append(thread);
  if (auto it = tracks_.find(key); it != tracks_.end()) return it->second;

  auto [pit, fresh_pid] =
      pids_.try_emplace(std::string(process),
                        static_cast<std::uint32_t>(pids_.size() + 1));
  const std::uint32_t pid = pit->second;
  const Track t{pid, static_cast<std::uint32_t>(tracks_.size() + 1)};
  // Metadata events naming the process (once) and the thread.
  const auto name_event = [&](const char* what, std::string_view name) {
    JsonWriter m;
    m.begin_object().key("name").str(what).key("ph").str("M");
    m.key("pid").u64(pid);
    if (std::string_view(what) == "thread_name") m.key("tid").u64(t.tid);
    m.key("args").begin_object().key("name").str(name).end_object();
    metadata_.push_back(m.end_object().take());
  };
  if (fresh_pid) name_event("process_name", process);
  name_event("thread_name", thread);
  tracks_.emplace(std::move(key), t);
  return t;
}

void PerfettoTraceBuilder::add_complete(Track t, std::string_view name,
                                        std::string_view category,
                                        std::int64_t start_ns,
                                        std::int64_t dur_ns, const Args& args) {
  JsonWriter e = event(t, name, category, start_ns);
  e.key("ph").str("X").key("dur").raw(micros(dur_ns < 0 ? 0 : dur_ns));
  body_.push_back(write_args(e, args).end_object().take());
}

void PerfettoTraceBuilder::add_instant(Track t, std::string_view name,
                                       std::string_view category,
                                       std::int64_t ts_ns, const Args& args) {
  JsonWriter e = event(t, name, category, ts_ns);
  e.key("ph").str("i").key("s").str("t");
  body_.push_back(write_args(e, args).end_object().take());
}

void PerfettoTraceBuilder::add_flow_start(Track t, std::uint64_t id,
                                          std::int64_t ts_ns) {
  JsonWriter e = event(t, "hop", "trace", ts_ns);
  body_.push_back(e.key("ph").str("s").key("id").u64(id).end_object().take());
}

void PerfettoTraceBuilder::add_flow_finish(Track t, std::uint64_t id,
                                           std::int64_t ts_ns) {
  // bp:"e" binds to the enclosing slice rather than the next one.
  JsonWriter e = event(t, "hop", "trace", ts_ns);
  e.key("ph").str("f").key("bp").str("e");
  body_.push_back(e.key("id").u64(id).end_object().take());
}

std::int64_t PerfettoTraceBuilder::place(std::int64_t src_min_ns,
                                         std::int64_t src_max_ns) {
  const std::int64_t shift = cursor_ns_ - src_min_ns;
  cursor_ns_ += (src_max_ns - src_min_ns) + kSourceGapNs;
  return shift;
}

void PerfettoTraceBuilder::add_span_trace(const SpanTrace& trace,
                                          std::string_view process,
                                          std::string_view label) {
  if (trace.spans.empty()) return;
  std::int64_t lo = trace.spans.front().start_ns, hi = lo;
  for (const Span& s : trace.spans) {
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.start_ns + std::max<std::int64_t>(s.duration_ns, 0));
  }
  const std::int64_t shift = place(lo, hi);

  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    const Track t = track(process, s.name);
    std::string name(label);
    if (!name.empty()) name += ": ";
    name += s.name;
    Args args = s.args;
    args.emplace_back("span_id", std::to_string(s.id));
    args.emplace_back("depth", std::to_string(s.depth));
    args.emplace_back("bytes", std::to_string(s.bytes));
    args.emplace_back("self_time_ns", std::to_string(trace.self_time_ns(i)));
    if (s.truncated) {
      add_instant(t, name + " (truncated)", s.category, s.start_ns + shift,
                  args);
    } else {
      add_complete(t, name, s.category, s.start_ns + shift, s.duration_ns,
                   args);
    }
  }

  // Cross-track causality: spans stamped with distributed-tracing ids
  // get a flow arrow from the upstream hop's slice to theirs. The child
  // span opens while its parent is still on the wire-level call stack,
  // so the child's start time lies inside both slices — anchor both
  // flow endpoints there.
  for (const Span& s : trace.spans) {
    if ((s.trace_hi | s.trace_lo) == 0 || s.ctx_parent == 0 || s.truncated) {
      continue;
    }
    const Span* parent = nullptr;
    for (const Span& p : trace.spans) {
      if (p.ctx_span == s.ctx_parent && p.trace_hi == s.trace_hi &&
          p.trace_lo == s.trace_lo) {
        parent = &p;
        break;
      }
    }
    if (parent == nullptr || parent->truncated) continue;
    add_flow_start(track(process, parent->name), s.ctx_span,
                   s.start_ns + shift);
    add_flow_finish(track(process, s.name), s.ctx_span, s.start_ns + shift);
  }
}

void PerfettoTraceBuilder::add_events(const std::vector<Event>& events,
                                      std::string_view process) {
  if (events.empty()) return;
  std::int64_t lo = events.front().time_ns, hi = lo;
  for (const Event& e : events) {
    lo = std::min(lo, e.time_ns);
    hi = std::max(hi, e.time_ns);
  }
  const std::int64_t shift = place(lo, hi);

  for (const Event& e : events) {
    const std::optional<std::string> as = e.str("as");
    const Track t = track(process, as.has_value() ? *as : e.component);
    Args args;
    args.emplace_back("severity", severity_name(e.severity));
    args.emplace_back("component", e.component);
    for (const EventField& f : e.fields) {
      switch (f.kind) {
        case EventField::Kind::kU64:
          args.emplace_back(f.key, std::to_string(f.u));
          break;
        case EventField::Kind::kI64:
          args.emplace_back(f.key, std::to_string(f.i));
          break;
        case EventField::Kind::kStr:
          args.emplace_back(f.key, f.s);
          break;
      }
    }
    add_instant(t, e.name, e.component, e.time_ns + shift, args);
  }
}

void PerfettoTraceBuilder::add_stage_spans(const StageProfiler& profiler,
                                           const std::vector<StageSpan>& spans,
                                           std::string_view process,
                                           std::string_view thread) {
  if (spans.empty()) return;
  std::int64_t lo = spans.front().t0_ns, hi = lo;
  for (const StageSpan& s : spans) {
    lo = std::min(lo, s.t0_ns);
    hi = std::max(hi, s.t1_ns);
  }
  const std::int64_t shift = place(lo, hi);

  const Track t = track(process, thread);
  for (const StageSpan& s : spans) {
    Args args;
    args.emplace_back("batch", std::to_string(s.batch));
    add_complete(t, profiler.stage_name(s.stage), "pipeline", s.t0_ns + shift,
                 s.t1_ns - s.t0_ns, args);
  }
}

std::string PerfettoTraceBuilder::to_json() const {
  // One trace event per line.
  JsonWriter w;
  w.begin_object().key("displayTimeUnit").str("ns");
  w.key("traceEvents").begin_array();
  for (const auto& part : {&metadata_, &body_}) {
    for (const std::string& e : *part) w.layout("\n").raw(e);
  }
  w.layout("\n").end_array().end_object().layout("\n");
  return w.take();
}

}  // namespace colibri::telemetry
