// Packet flight recorder: per-instance forensic traces of data-plane
// decisions.
//
// PR 1's MetricsRegistry answers "how many packets were dropped"; the
// flight recorder answers "*why this packet*, at which hop, under what
// state". Each router/gateway instance owns one recorder — a CaptureRing
// (ring.hpp) of POD FlightRecords preallocated at construction, so the hot
// path never allocates: recording one decision is a handful of stores
// into a stack-local record plus (when the record is kept) one struct
// copy into the ring.
//
// Two capture modes compose:
//  * deterministic 1-in-N sampling (`sample_every`) — a countdown, no
//    RNG, so replaying the same packet stream records the same packets;
//  * always-record-on-drop (`record_drops`) — every non-forward verdict
//    is kept regardless of the sampling phase, because drops are the
//    rare, interesting events the paper's protection argument (§4,
//    Table 2) rests on.
//
// Like the telemetry counters, a recorder is single-writer: exactly one
// thread drives the owning router/gateway instance at a time (the
// multicore benchmarks shard instances per core). drain() is called
// from the same thread between bursts, mirroring snapshot()/reset().
//
// The disabled path costs one pointer test in the component
// (`recorder_ == nullptr`, perfectly predicted); an attached-but-idle
// recorder costs one predictable branch per packet (`armed()`).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/telemetry/json.hpp"
#include "colibri/telemetry/ring.hpp"

namespace colibri::telemetry {

// One recorded per-packet decision. POD, fixed size, no pointers.
struct FlightRecord {
  // Identity ------------------------------------------------------------
  std::uint64_t seq = 0;     // monotonically increasing commit number
  TimeNs time_ns = 0;        // decision time (component's clock)
  std::uint8_t component = 0;  // FlightRecorder::kRouter / kGateway
  std::uint8_t verdict = 0;    // raw component verdict enum value
  std::uint8_t errc = 0;       // errc_from_verdict() at decision time
  bool forced_by_drop = false;  // kept by record_drops, not sampling

  // Packet / reservation ------------------------------------------------
  std::uint64_t src_as = 0;  // AsId::raw()
  ResId res_id = 0;
  ResVer version = 0;
  std::uint8_t hop = 0;     // current_hop at decision
  IfId if_in = 0;
  IfId if_eg = 0;
  std::uint32_t timestamp = 0;   // high-precision in-packet timestamp
  std::uint32_t wire_bytes = 0;
  UnixSec exp_time = 0;

  // Decision-time state (0xFF / zero when not consulted) ----------------
  static constexpr std::uint8_t kNotConsulted = 0xFF;
  std::array<std::uint8_t, 4> hvf_got{};   // packet HVF prefix
  std::array<std::uint8_t, 4> hvf_want{};  // recomputed HVF prefix
  bool hvf_checked = false;
  std::uint8_t dupsup_verdict = kNotConsulted;  // DuplicateSuppression::Verdict
  std::uint8_t ofd_verdict = kNotConsulted;     // OverUseFlowDetector::Verdict
  std::uint64_t bucket_available_bytes = 0;     // token bucket at decision
  bool bucket_checked = false;

  std::string to_json() const;
  void write_json(JsonWriter& w) const;
};

class FlightRecorder {
 public:
  static constexpr std::uint8_t kRouter = 0;
  static constexpr std::uint8_t kGateway = 1;

  struct Config {
    // Ring capacity (at least 2); rounded up to a power of two. Memory
    // is allocated once here and never again.
    std::size_t capacity = 1024;
    // Keep every Nth decision (0 = no sampling).
    std::uint32_t sample_every = 0;
    // Keep every drop decision regardless of sampling phase.
    bool record_drops = true;
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(const Config& cfg);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // True when any capture mode is on; components consult this before
  // paying for detail capture. One predictable branch.
  bool armed() const { return sample_every_ != 0 || record_drops_; }

  // Deterministic sampling decision for the next packet; advances the
  // 1-in-N phase. Call exactly once per processed packet while armed.
  bool sample_tick() {
    if (sample_every_ == 0) return false;
    if (--sample_countdown_ != 0) return false;
    sample_countdown_ = sample_every_;
    return true;
  }

  bool record_drops() const { return record_drops_; }

  // Commits `r` when the sampler kept the packet or it is a drop under
  // record-on-drop mode, stamping the decision fields first.
  void offer(FlightRecord& r, bool sampled, bool is_drop, std::uint8_t verdict,
             std::uint8_t errc) {
    if (!sampled && !(is_drop && record_drops_)) return;
    r.verdict = verdict;
    r.errc = errc;
    r.forced_by_drop = !sampled;
    commit(r);
  }

  // Copies `r` into the ring (overwriting the oldest record when full)
  // and assigns its commit sequence number. No allocation.
  void commit(const FlightRecord& r) {
    const std::uint64_t seq = ring_.committed();
    ring_.push(r).seq = seq;
  }

  // Records committed since construction or the last clear (monotonic;
  // keeps counting after wrap-around).
  std::uint64_t committed() const { return ring_.committed(); }
  // Records lost to wrap-around.
  std::uint64_t overwritten() const { return ring_.overwritten(); }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }

  // Oldest-first copy of the live window; the ring keeps recording.
  std::vector<FlightRecord> records() const { return ring_.items(); }
  // records() + clears the ring (sampling phase is preserved).
  std::vector<FlightRecord> drain();
  void clear() { ring_.clear(); }

  // JSON-lines export of records(), one record per line.
  std::string to_jsonl() const;

  // Reconfigure capture modes (capacity is fixed at construction).
  void set_sampling(std::uint32_t every_n) {
    sample_every_ = every_n;
    sample_countdown_ = every_n;
  }
  void set_record_drops(bool on) { record_drops_ = on; }

 private:
  CaptureRing<FlightRecord> ring_;
  std::uint32_t sample_every_ = 0;
  std::uint32_t sample_countdown_ = 0;
  bool record_drops_ = true;
};

}  // namespace colibri::telemetry
