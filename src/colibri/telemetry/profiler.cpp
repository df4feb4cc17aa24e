#include "colibri/telemetry/profiler.hpp"

#include <chrono>

namespace colibri::telemetry {

std::int64_t profiler_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StageProfiler::StageProfiler(std::initializer_list<const char*> stages)
    : hists_(stages.size()) {
  names_.reserve(stages.size());
  for (const char* s : stages) names_.emplace_back(s);
}

void StageProfiler::record(std::size_t stage, std::int64_t t0,
                           std::int64_t t1) {
  if (stage >= hists_.size()) return;
  const std::int64_t d = t1 - t0;
  hists_[stage].record(d > 0 ? static_cast<std::uint64_t>(d) : 0);
  if (capturing()) {
    spans_.push({static_cast<std::uint8_t>(stage), batch_seq_, t0, t1});
  }
}

void StageProfiler::count_batch(std::size_t occupancy) {
  occupancy_.record(occupancy);
  ++batch_seq_;
}

void StageProfiler::collect_metrics(MetricSink& sink) const {
  std::string scratch;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const HistogramSnapshot h = hists_[i].snapshot();
    if (h.count == 0) continue;
    scratch.assign("stage.").append(names_[i]).append("_ns");
    sink.histogram(scratch, h);
  }
  const HistogramSnapshot occ = occupancy_.snapshot();
  if (occ.count != 0) sink.histogram("batch_occupancy", occ);
}

void StageProfiler::reset() {
  for (auto& h : hists_) h.reset();
  occupancy_.reset();
  batch_seq_ = 0;
  spans_.clear();
}

}  // namespace colibri::telemetry
