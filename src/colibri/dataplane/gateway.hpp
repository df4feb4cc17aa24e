// Colibri gateway (paper §3.2, §4.6).
//
// All Colibri traffic leaving an AS passes through its gateway, which is
// the only stateful element on the data path: it maps the ResId of a
// host's bare packet to the full reservation state, performs deterministic
// token-bucket monitoring, stamps the high-precision timestamp, computes
// the HVF for every on-path AS from the stored hop authenticators (Eq. 6),
// and fills in the remaining header fields. Per packet with h hops the
// crypto cost is h single-block AES-CMACs (plus one AES key schedule per
// hop, since storing raw σ_i keeps per-reservation state small).
#pragma once

#include <array>

#include "colibri/common/clock.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/dataplane/fastpacket.hpp"
#include "colibri/proto/encap.hpp"
#include "colibri/dataplane/restable.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/profiler.hpp"

namespace colibri::dataplane {

struct GatewayConfig {
  // Token-bucket burst allowance, in seconds of the reserved rate.
  double burst_sec = 0.125;
  size_t expected_reservations = 1024;
};

// Point-in-time view of one gateway's counters (see snapshot()).
struct GatewayStats {
  std::uint64_t forwarded = 0;
  std::uint64_t no_reservation = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t expired = 0;
};

class Gateway : public telemetry::MetricsSource {
 public:
  // Registers with `registry` (nullptr = none); counters export under
  // "gateway.*", aggregated across instances (gateway shards).
  Gateway(AsId local_as, const Clock& clock, const GatewayConfig& cfg = {},
          telemetry::MetricsRegistry* registry =
              &telemetry::MetricsRegistry::global());
  ~Gateway() override = default;

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  enum class Verdict : std::uint8_t {
    kOk = 0,
    kNoReservation,
    kRateLimited,
    kExpired,
  };
  static constexpr std::size_t kNumVerdicts = 4;

  // --- control side -----------------------------------------------------
  // Installs (or replaces) the state for an EER after a successful setup
  // or renewal: header contents plus the decrypted hop authenticators.
  bool install(const proto::ResInfo& resinfo, const proto::EerInfo& eerinfo,
               const std::vector<topology::Hop>& path,
               const std::vector<HopAuth>& sigmas);
  bool remove(ResId id);
  size_t reservation_count() const { return table_.size(); }

  // Raw-entry plumbing for shard management (ShardedGateway::resize
  // moves live entries — token-bucket fill level included — between
  // shards without re-deriving anything).
  bool install_entry(ResId id, GatewayEntry entry) {
    return table_.insert(id, std::move(entry));
  }
  // Visits every installed entry as fn(ResId, const GatewayEntry&).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    table_.for_each(fn);
  }

  // --- fast path ---------------------------------------------------------
  // Host hands in (ResId, payload length); the gateway monitors, stamps,
  // authenticates, and emits the complete packet into `out`. A batch of
  // one through process_batch().
  Verdict process(ResId id, std::uint32_t payload_bytes, FastPacket& out);

  // Staged batch pipeline: restable prefetch for the whole batch, then
  // a sequential per-packet prepare (lookup, expiry, header assembly,
  // token bucket, timestamp — stateful and order-dependent: duplicate
  // ids in one batch drain the bucket in arrival order), then a
  // multi-lane Eq. 6 HVF fill with one AES state in flight per
  // (packet, hop) lane. Verdicts, counters, and flight records are
  // identical to calling process() per packet in order. Any n is
  // accepted (chunked internally); returns the number that passed.
  size_t process_batch(const ResId* ids, const std::uint32_t* payload_bytes,
                       size_t n, FastPacket* out, Verdict* verdicts);

  // Per-instance packet flight recorder (owned by the caller; nullptr
  // detaches). Same contract as BorderRouter::attach_flight_recorder:
  // one predicted branch when detached, no heap allocation when armed.
  void attach_flight_recorder(telemetry::FlightRecorder* r) {
    recorder_ = r;
  }

  // Per-stage latency profiler (disabled by default). When enabled,
  // every call — process() included, as a batch of one — attributes
  // nanoseconds to each pipeline stage (prefetch / prepare / hvf_crypto)
  // per 64-packet chunk plus the chunk-occupancy histogram. Exported as
  // "gateway.stage.<label>_ns" (and re-exported per shard as
  // "gateway_shard.<i>.stage.<label>_ns").
  telemetry::StageProfiler& profiler() { return profiler_; }
  const telemetry::StageProfiler& profiler() const { return profiler_; }

  // Stage indices in profiler() — order matches the pipeline.
  static constexpr std::size_t kStagePrefetch = 0;
  static constexpr std::size_t kStagePrepare = 1;
  static constexpr std::size_t kStageHvfCrypto = 2;

  // Like process(), but emits the packet serialized and encapsulated for
  // the intra-AS network (App. B): IPv4/UDP toward the egress border
  // router with the DSCP stamped by the gateway — hosts cannot choose
  // their own class. `intra.dscp` is overwritten.
  Verdict process_encapsulated(ResId id, std::uint32_t payload_bytes,
                               proto::Ipv4Encap intra, Bytes& frame_out);

  // Uniform stats accessors: consistent point-in-time view + reset.
  GatewayStats snapshot() const;
  void reset();

  // Emits under "gateway.*" (bare names routed through a PrefixedSink).
  void collect_metrics(telemetry::MetricSink& sink) const override;
  // Same counters with bare names ("forwarded", "drop.<errc>") so a
  // container can re-export them under its own namespace — the
  // ShardedGateway publishes each shard as "gateway_shard.<i>.*".
  void collect_metrics_bare(telemetry::MetricSink& sink) const;

  AsId local_as() const { return local_as_; }

 private:
  // Everything except the per-hop HVF fill: lookup, expiry, header
  // assembly, token bucket, timestamp; on kOk, `*entry_out` points at
  // the live entry. `rec` is nullptr on the fast path; when non-null,
  // decision-time detail (token-bucket level, reservation identity) is
  // captured.
  Verdict prepare(ResId id, std::uint32_t payload_bytes, FastPacket& out,
                  GatewayEntry** entry_out, telemetry::FlightRecord* rec);
  // The pipeline core behind process() and process_batch(): one chunk
  // of n <= 64 packets; returns the number that passed.
  size_t run(const ResId* ids, const std::uint32_t* payload_bytes, size_t n,
             FastPacket* out, Verdict* verdicts);

  AsId local_as_;
  const Clock* clock_;
  GatewayConfig cfg_;
  ResTable table_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::array<telemetry::Counter, kNumVerdicts> verdicts_;
  telemetry::StageProfiler profiler_{"prefetch", "prepare", "hvf_crypto"};
  telemetry::ScopedSource registration_;
};

// Companion of errc_from_verdict(BorderRouter::Verdict): the gateway's
// drop reasons expressed as control-plane error codes.
Errc errc_from_verdict(Gateway::Verdict v);

}  // namespace colibri::dataplane
