#include "colibri/telemetry/trace.hpp"

#include <utility>

#include "colibri/telemetry/json.hpp"

namespace colibri::telemetry {

std::int64_t SpanTrace::self_time_ns(std::size_t i) const {
  std::int64_t t = spans[i].duration_ns;
  const auto parent = static_cast<std::int32_t>(i);
  for (const Span& s : spans) {
    if (s.parent == parent) t -= s.duration_ns;
  }
  return t;
}

std::string SpanTrace::to_json() const {
  JsonWriter w;
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object().key("name").str(s.name).key("category").str(s.category);
    w.key("id").u64(s.id).key("parent").i64(s.parent);
    w.key("depth").i64(s.depth).key("start_ns").i64(s.start_ns);
    w.key("duration_ns").i64(s.duration_ns).key("bytes").u64(s.bytes);
    if (s.truncated) w.key("truncated").boolean(true);
    if ((s.trace_hi | s.trace_lo) != 0) {
      w.key("trace_hi").u64(s.trace_hi).key("trace_lo").u64(s.trace_lo);
      w.key("ctx_span").u64(s.ctx_span).key("ctx_parent").u64(s.ctx_parent);
    }
    if (!s.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [k, v] : s.args) w.key(k).str(v);
      w.end_object();
    }
    w.end_object();
  }
  return w.end_array().take();
}

std::size_t SpanCollector::open(std::string name, std::int64_t now_ns,
                                std::uint64_t bytes, std::string category) {
  if (origin_ns_ < 0) {
    origin_ns_ = now_ns;
    trace_.origin_ns = now_ns;
  }
  Span s;
  s.name = std::move(name);
  s.category = std::move(category);
  s.id = next_id_++;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  s.depth = static_cast<std::int32_t>(stack_.size());
  s.start_ns = now_ns - origin_ns_;
  s.bytes = bytes;
  trace_.spans.push_back(std::move(s));
  const std::size_t index = trace_.spans.size() - 1;
  stack_.push_back(index);
  return static_cast<std::size_t>((epoch_ << kIndexBits) |
                                  static_cast<std::uint64_t>(index));
}

void SpanCollector::close(std::size_t token, std::int64_t now_ns) {
  if ((static_cast<std::uint64_t>(token) >> kIndexBits) != epoch_) {
    return;  // span belonged to a trace that was already drained
  }
  const std::size_t index =
      static_cast<std::size_t>(token & ((std::uint64_t{1} << kIndexBits) - 1));
  if (index >= trace_.spans.size()) return;
  Span& s = trace_.spans[index];
  s.duration_ns = (now_ns - origin_ns_) - s.start_ns;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanCollector::set_trace_ids(std::size_t token, std::uint64_t trace_hi,
                                  std::uint64_t trace_lo, std::uint64_t span_id,
                                  std::uint64_t parent_span_id) {
  if ((static_cast<std::uint64_t>(token) >> kIndexBits) != epoch_) return;
  const std::size_t index =
      static_cast<std::size_t>(token & ((std::uint64_t{1} << kIndexBits) - 1));
  if (index >= trace_.spans.size()) return;
  Span& s = trace_.spans[index];
  s.trace_hi = trace_hi;
  s.trace_lo = trace_lo;
  s.ctx_span = span_id;
  s.ctx_parent = parent_span_id;
}

void SpanCollector::annotate(std::string_view key, std::string_view value) {
  if (!enabled_ || stack_.empty()) return;
  trace_.spans[stack_.back()].args.emplace_back(std::string(key),
                                                std::string(value));
}

SpanTrace SpanCollector::take() {
  // Close-as-truncated: a span still on the stack has no meaningful
  // duration yet; mark it so consumers can tell "fast" from "cut off".
  for (const std::size_t i : stack_) {
    trace_.spans[i].duration_ns = -1;
    trace_.spans[i].truncated = true;
  }
  SpanTrace t = std::move(trace_);
  trace_ = {};
  stack_.clear();
  origin_ns_ = -1;
  ++epoch_;  // pending close() tokens die here
  return t;
}

}  // namespace colibri::telemetry
