// Per-stage data-plane latency profiler.
//
// The batched pipelines (BorderRouter::process_batch, Gateway::
// process_batch) run fixed stages — header sanity, state prefetch,
// multi-lane HVF crypto, sequential finalize — across a whole batch.
// The metrics layer so far counts *outcomes*; this profiler attributes
// *time*: each component owns a StageProfiler whose per-stage pow2-
// bucket histograms record the nanoseconds every stage spent on every
// batch, plus a batch-occupancy histogram (how full batches actually
// are, which bounds the amortization the pipeline can deliver).
//
// Cost model, in line with the rest of the telemetry layer:
//  * disabled (the default): the owning component checks `enabled()`
//    once per batch — one predictable branch, no clock reads, no stores;
//  * enabled: one steady-clock read per stage boundary plus one
//    histogram record — a handful of relaxed stores, no locks, no
//    allocation. Like the counters, a profiler is single-writer (one
//    thread drives a router/gateway instance) with torn-free readers.
//
// Stage timings can additionally be captured as spans (begin/end pairs
// tagged with the batch sequence number) for the Perfetto trace export
// (trace_export.hpp); span capture is a preallocated CaptureRing
// (ring.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/ring.hpp"

namespace colibri::telemetry {

// Monotonic nanosecond clock used for all profiler timings. Kept
// separate from colibri::Clock on purpose: profiling measures real
// elapsed time even under a SimClock.
std::int64_t profiler_now_ns();

// One captured stage execution (span capture mode only).
struct StageSpan {
  std::uint8_t stage = 0;    // index into the profiler's stage table
  std::uint32_t batch = 0;   // batch sequence number within this profiler
  std::int64_t t0_ns = 0;    // profiler_now_ns() at stage entry
  std::int64_t t1_ns = 0;    // profiler_now_ns() at stage exit
};

class StageProfiler {
 public:
  static constexpr std::size_t kMaxStages = 8;

  // `stages` are short stable labels ("header_sanity", "hvf_crypto");
  // metric names become "stage.<label>_ns" under the owner's prefix.
  StageProfiler(std::initializer_list<const char*> stages);

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Timing pattern for a staged pipeline (zero work when disabled):
  //   std::int64_t tp = prof.begin();          // 0 when disabled
  //   ...stage A...;  tp = prof.lap(kStageA, tp);
  //   ...stage B...;  tp = prof.lap(kStageB, tp);
  // `lap` records [t0, now) into the stage histogram and returns `now`
  // so consecutive stages share one clock read per boundary. Callers
  // must guard lap/finish behind `enabled()`.
  std::int64_t begin() const { return enabled_ ? profiler_now_ns() : 0; }
  std::int64_t lap(std::size_t stage, std::int64_t t0) {
    const std::int64_t t1 = profiler_now_ns();
    record(stage, t0, t1);
    return t1;
  }
  void record(std::size_t stage, std::int64_t t0, std::int64_t t1);

  // Batch occupancy: call once per processed batch with its size.
  // Advances the batch sequence number used to tag captured spans.
  void count_batch(std::size_t occupancy);

  // --- span capture (for the Perfetto export) --------------------------
  // Keeps the most recent `max_spans` stage executions, rounded up to a
  // power of two (0 disables). Storage is preallocated here; capture
  // itself never allocates.
  void set_span_capture(std::size_t max_spans) {
    spans_ = CaptureRing<StageSpan>(max_spans);
  }
  bool capturing() const { return spans_.capacity() != 0; }
  // Oldest-first copy of the captured window; capture continues.
  std::vector<StageSpan> spans() const { return spans_.items(); }
  void clear_spans() { spans_.clear(); }

  // --- exposition ------------------------------------------------------
  std::size_t stage_count() const { return names_.size(); }
  const std::string& stage_name(std::size_t i) const { return names_[i]; }
  HistogramSnapshot stage_snapshot(std::size_t i) const {
    return hists_[i].snapshot();
  }
  HistogramSnapshot occupancy_snapshot() const {
    return occupancy_.snapshot();
  }
  std::uint64_t batches() const { return batch_seq_; }

  // Emits bare names ("stage.<label>_ns", "batch_occupancy") so owners
  // route them through their own PrefixedSink; stages that never ran
  // are elided, matching the other latency histograms.
  void collect_metrics(MetricSink& sink) const;
  void reset();

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Histogram> hists_;
  Histogram occupancy_;
  std::uint32_t batch_seq_ = 0;

  CaptureRing<StageSpan> spans_;
};

}  // namespace colibri::telemetry
