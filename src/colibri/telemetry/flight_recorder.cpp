#include "colibri/telemetry/flight_recorder.hpp"

#include <algorithm>

#include "colibri/common/bytes.hpp"

namespace colibri::telemetry {

std::string FlightRecord::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void FlightRecord::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("seq").u64(seq).key("time_ns").i64(time_ns);
  w.key("component")
      .str(component == FlightRecorder::kRouter ? "router" : "gateway");
  w.key("verdict").u64(verdict);
  w.key("reason").str(errc_name(static_cast<Errc>(errc)));
  w.key("forced_by_drop").boolean(forced_by_drop);
  w.key("src_as").u64(src_as).key("res_id").u64(res_id);
  w.key("version").u64(version).key("hop").u64(hop);
  w.key("if_in").u64(if_in).key("if_eg").u64(if_eg);
  w.key("timestamp").u64(timestamp).key("wire_bytes").u64(wire_bytes);
  w.key("exp_time").u64(exp_time);
  if (hvf_checked) {
    w.key("hvf_got").str(to_hex(hvf_got)).key("hvf_want").str(to_hex(hvf_want));
  }
  if (dupsup_verdict != kNotConsulted) {
    w.key("dupsup_verdict").u64(dupsup_verdict);
  }
  if (ofd_verdict != kNotConsulted) w.key("ofd_verdict").u64(ofd_verdict);
  if (bucket_checked) {
    w.key("bucket_available_bytes").u64(bucket_available_bytes);
  }
  w.end_object();
}

FlightRecorder::FlightRecorder(const Config& cfg)
    : ring_(std::max<std::size_t>(cfg.capacity, 2)),
      sample_every_(cfg.sample_every),
      sample_countdown_(cfg.sample_every),
      record_drops_(cfg.record_drops) {}

std::vector<FlightRecord> FlightRecorder::drain() {
  std::vector<FlightRecord> out = records();
  ring_.clear();
  return out;
}

std::string FlightRecorder::to_jsonl() const {
  JsonWriter w;
  for (const FlightRecord& r : records()) {
    r.write_json(w);
    w.layout("\n");
  }
  return w.take();
}

}  // namespace colibri::telemetry
