// Colibri border router (paper §4.6).
//
// Per-flow *stateless*: everything needed to validate a packet derives on
// the fly from the AS's secret key K_i. For EER data packets the router
// recomputes the hop authenticator σ_i (Eq. 4, a 4-block CBC-MAC over
// header fields), derives the per-packet HVF from it (Eq. 6, one AES
// block) and compares against the packet. SegR (control) packets carry a
// token checked directly against Eq. 3. Optional hooks integrate the
// blocklist, duplicate suppression, and the probabilistic overuse
// detector; the paper's speedtest (Figs. 5-6) measures the router without
// the duplicate-suppression component, which our benchmarks mirror by
// leaving the hooks null.
//
// One validation pipeline serves every entry point: process() is a batch
// of one through the same staged core as process_batch(). The
// independent per-packet reference that the differential suites compare
// against lives with the tests, not here.
//
// Telemetry: verdict counters are instance-local single-writer atomics
// (one router instance is driven by one thread at a time, as in the
// multicore benchmarks) exported through the process-wide
// MetricsRegistry; the optional StageProfiler times every call.
#pragma once

#include <array>

#include "colibri/common/clock.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/blocklist.hpp"
#include "colibri/dataplane/dupsup.hpp"
#include "colibri/dataplane/fastpacket.hpp"
#include "colibri/dataplane/ofd.hpp"
#include "colibri/drkey/drkey.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/flight_recorder.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/profiler.hpp"

namespace colibri::dataplane {

// Point-in-time view of one router's counters (see snapshot()).
struct RouterStats {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bad_hvf = 0;
  std::uint64_t expired = 0;
  std::uint64_t malformed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t replayed = 0;
  std::uint64_t overuse_dropped = 0;
};

class BorderRouter : public telemetry::MetricsSource {
 public:
  // `hop_key` is this AS's secret key K_i used in Eqs. 3-4; its AES
  // schedule is expanded once here and reused for every packet.
  // The router registers with `registry` (nullptr = none) and exports
  // its counters under "router.*", aggregated across instances.
  BorderRouter(AsId local_as, const drkey::Key128& hop_key, const Clock& clock,
               telemetry::MetricsRegistry* registry =
                   &telemetry::MetricsRegistry::global());
  ~BorderRouter() override = default;

  BorderRouter(const BorderRouter&) = delete;
  BorderRouter& operator=(const BorderRouter&) = delete;

  enum class Verdict : std::uint8_t {
    kForward = 0,  // HVF valid; cursor advanced to the next AS
    kDeliver,      // HVF valid and this is the last hop: hand to DstHost
    kBadHvf,
    kExpired,
    kMalformed,
    kBlocked,
    kReplay,
    kOveruse,
  };
  static constexpr std::size_t kNumVerdicts = 8;

  // Validates and advances one packet: a batch of one through the
  // pipeline below. The packet's current_hop must point at this AS's
  // hop entry.
  Verdict process(FastPacket& pkt);

  // Staged batch pipeline. Runs each validation stage across the whole
  // batch — header sanity + clock sampling, dupsup prefetch, multi-lane
  // expected-HVF crypto — then a sequential per-packet finalize, so
  // verdicts, telemetry counters, and flight-recorder records are
  // identical to calling process() on each packet in order. Writes
  // batch.size verdicts.
  void process_batch(PacketBatch& batch, Verdict* verdicts);

  // Optional monitoring/policing hooks (owned by the caller).
  void attach_blocklist(Blocklist* b) { blocklist_ = b; }
  void attach_dupsup(DuplicateSuppression* d) { dupsup_ = d; }
  void attach_ofd(OverUseFlowDetector* o) { ofd_ = o; }
  // Per-instance packet flight recorder (owned by the caller; nullptr
  // detaches). With no recorder the fast path pays one predicted
  // branch; with one attached, per-packet decision traces are captured
  // per the recorder's sampling/record-on-drop configuration without
  // any heap allocation.
  void attach_flight_recorder(telemetry::FlightRecorder* r) {
    recorder_ = r;
  }

  // Per-stage latency profiler (disabled by default). When enabled,
  // every call — process() included, as a batch of one — attributes
  // nanoseconds to each pipeline stage (header_sanity / prefetch /
  // hvf_crypto / finalize) and records the batch-occupancy histogram.
  // Exported as "router.stage.<label>_ns" / "router.batch_occupancy".
  telemetry::StageProfiler& profiler() { return profiler_; }
  const telemetry::StageProfiler& profiler() const { return profiler_; }

  // Stage indices in profiler() — order matches the pipeline.
  static constexpr std::size_t kStageHeaderSanity = 0;
  static constexpr std::size_t kStagePrefetch = 1;
  static constexpr std::size_t kStageHvfCrypto = 2;
  static constexpr std::size_t kStageFinalize = 3;

  // Uniform stats accessors: consistent point-in-time view + reset.
  RouterStats snapshot() const;
  void reset();

  void collect_metrics(telemetry::MetricSink& sink) const override;

  AsId local_as() const { return local_as_; }

 private:
  // The validation core behind process() and process_batch():
  // n <= PacketBatch::kCapacity packets, n verdicts.
  void run(FastPacket* pkts, std::size_t n, Verdict* verdicts);
  // Everything after the format check and clock sample: expiry,
  // blocklist, HVF comparison, dupsup, OFD, cursor advance. Compile-time
  // split so the fast path carries no capture branches:
  // finalize<false> ignores `rec`; finalize<true> fills decision-time
  // detail (HVF comparison, dupsup/OFD verdicts) into it.
  template <bool kRecording>
  Verdict finalize(FastPacket& pkt, TimeNs now, const proto::Hvf& expected,
                   telemetry::FlightRecord* rec);
  // Multi-lane expected-HVF computation for a batch (Eqs. 3/4/6 with
  // the AES states of all packets kept in flight).
  void batch_expected_hvfs(const FastPacket* pkts, std::size_t n,
                           const bool* fmt_ok, proto::Hvf* expected) const;

  AsId local_as_;
  crypto::Aes128 hop_cipher_;  // K_i schedule, expanded once
  const Clock* clock_;
  Blocklist* blocklist_ = nullptr;
  DuplicateSuppression* dupsup_ = nullptr;
  OverUseFlowDetector* ofd_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  std::array<telemetry::Counter, kNumVerdicts> verdicts_;
  telemetry::StageProfiler profiler_{"header_sanity", "prefetch", "hvf_crypto",
                                     "finalize"};
  telemetry::ScopedSource registration_;
};

// The single mapping between data-plane verdicts and control-plane error
// codes; telemetry counter names and Result errors derive from it, so
// "router.drop.auth-failed" and Errc::kAuthFailed always agree.
Errc errc_from_verdict(BorderRouter::Verdict v);

// Default monitoring rule pack for a border router (see
// telemetry/alerts.hpp): a drop-spike rule over the summed
// "router.drop.*" counters — windowed drop rate above
// `drops_per_sec`, held for `for_ns`, fires at error severity. A
// sudden drop spike is the first externally visible symptom of an
// attack burst (replay, tampered HVFs, overuse) or an expiry storm
// racing renewals; the per-reason counters stay available for
// diagnosis once the alert points at the router.
std::vector<telemetry::AlertRule> default_router_alert_rules(
    double drops_per_sec = 1'000.0, TimeNs for_ns = kNsPerSec);

}  // namespace colibri::dataplane
