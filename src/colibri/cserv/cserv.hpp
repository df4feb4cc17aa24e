// The Colibri service (paper §3.2-3.3, §4.4-4.7).
//
// One CServ per AS handles every control-plane task: requesting and
// renewing SegRs, serving registered SegRs to end hosts and remote CServs
// (App. C), admitting SegReqs/EEReqs with the bounded-tube-fairness
// algorithm, issuing SegR tokens (Eq. 3) and AEAD-sealed hop
// authenticators (Eq. 5), rate-limiting control traffic, and policing
// offenders reported by border routers.
//
// All inter-AS communication crosses the MessageBus as serialized Colibri
// packets; a request travels hop-by-hop down the path and the response is
// assembled on the unwind — mirroring the paper's forward/backward passes
// (Fig. 1a/1b).
#pragma once

#include <functional>
#include <optional>
#include <unordered_set>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/admission/segr_admission.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/crypto/aes.hpp"
#include "colibri/cserv/bus.hpp"
#include "colibri/cserv/ratelimit.hpp"
#include "colibri/cserv/registry.hpp"
#include "colibri/dataplane/blocklist.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/drkey/keyserver.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/proto/messages.hpp"
#include "colibri/reservation/db.hpp"
#include "colibri/reservation/persist.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/topology/pathdb.hpp"

namespace colibri::cserv {

class FailoverManager;

// Shard count for the reservation db (and EER-admission stripes):
// concurrent setup/renewal/expiry paths lock per shard, never globally.
inline constexpr size_t kControlPlaneShards = 8;

struct CservConfig {
  // Capacity assumed for traffic terminating inside the AS (the pseudo
  // egress interface 0 of the last AS on a segment).
  BwKbps internal_capacity_kbps = 400'000'000;
  // Source/destination-AS policy: per-host cap on a single EER (§4.7
  // "intra-AS admission policy", freely definable per AS).
  BwKbps per_host_eer_cap_kbps = 10'000'000;
  std::uint32_t segr_lifetime_sec = reservation::kSegrLifetimeSec;
  std::uint32_t eer_lifetime_sec = reservation::kEerLifetimeSec;
  RateLimitConfig rate_limits;
  // Registry this CServ exports its metrics to (nullptr = none).
  telemetry::MetricsRegistry* metrics = &telemetry::MetricsRegistry::global();
  // Structured event log for the reservation lifecycle audit trail
  // (nullptr = no events). Owned by the caller; must outlive the CServ.
  telemetry::EventLog* events = nullptr;
};

// Point-in-time view of one CServ's admission counters (see snapshot()).
struct CservStats {
  std::uint64_t seg_requests = 0;
  std::uint64_t seg_granted = 0;
  std::uint64_t eer_requests = 0;
  std::uint64_t eer_granted = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t policy_denied = 0;
};

struct ReservationResult {
  ResKey key;
  BwKbps bw_kbps = 0;
  UnixSec exp_time = 0;
  ResVer version = 0;
};

class CServ : public telemetry::MetricsSource {
 public:
  CServ(const topology::Topology& topo, AsId local, MessageBus& bus,
        drkey::SimulatedPki& pki, const drkey::Key128& drkey_master,
        const drkey::Key128& hop_key, const Clock& clock,
        CservConfig cfg = {});
  ~CServ();

  CServ(const CServ&) = delete;
  CServ& operator=(const CServ&) = delete;

  // Uniform stats accessors: consistent point-in-time view + reset.
  CservStats snapshot() const;
  void reset();
  void collect_metrics(telemetry::MetricSink& sink) const override;
  telemetry::MetricsRegistry* metrics_registry() const { return cfg_.metrics; }
  telemetry::EventLog* event_log() const { return cfg_.events; }

  // --- wiring ------------------------------------------------------------
  void attach_gateway(dataplane::Gateway* gw) { gateway_ = gw; }
  SegrRegistry& registry() { return registry_; }
  reservation::ReservationDb& db() { return db_; }
  const reservation::ReservationDb& db() const { return db_; }
  const drkey::Key128& hop_key() const { return hop_key_; }
  const drkey::Engine& drkey_engine() const { return drkey_engine_; }
  // Bounded-tube ledger introspection (tests/diagnostics).
  admission::SegrAdmission& segr_admission() { return segr_admission_; }
  // EER stripe introspection for the conservation auditor (never null).
  const admission::EerAdmission* eer_admission() const {
    return &eer_admission_;
  }
  AsId local_as() const { return local_; }
  const Clock& clock() const { return *clock_; }

  // Backup-reservation failover (see failover.hpp). The manager registers
  // itself here; the renewal manager consults it to skip failed-over
  // primaries.
  void attach_failover(FailoverManager* fm) { failover_ = fm; }
  FailoverManager* failover() const { return failover_; }

  // Destination-side hook: the destination host "has to explicitly accept
  // the EER request" (§4.4). Default accepts everything.
  using HostAcceptor = std::function<bool(const proto::EerInfo&, BwKbps)>;
  void set_host_acceptor(HostAcceptor acceptor) {
    host_acceptor_ = std::move(acceptor);
  }

  // --- initiator API (called by the local AS / its hosts) ----------------
  // Sets up a new SegR along `seg`. On success, all on-path ASes have
  // recorded the reservation and this CServ holds the tokens.
  Result<ReservationResult> setup_segr(const topology::PathSegment& seg,
                                       BwKbps min_bw, BwKbps max_bw);
  // Renews an existing SegR (new pending version; activate separately).
  Result<ReservationResult> renew_segr(const ResKey& key, BwKbps min_bw,
                                       BwKbps max_bw);
  // Explicitly switches the pending version live on all on-path ASes.
  Result<void> activate_segr(const ResKey& key, ResVer version);

  // Publishes an established SegR for use by `whitelist` (empty = public).
  bool publish_segr(const ResKey& key, std::vector<AsId> whitelist);

  // Tokens returned for a SegR this AS initiated (Eq. 3); used as HVFs on
  // control packets sent over that SegR.
  const std::vector<proto::Hvf>* segr_tokens(const ResKey& key) const;

  // §3.3: a down-SegR is only set up by its first (core) AS upon an
  // explicit request by the last AS — this call, made at the last AS,
  // asks the core AS to initiate a down-SegR along `down_seg` and publish
  // it whitelisted for this AS.
  Result<ReservationResult> request_down_segr(
      const topology::PathSegment& down_seg, BwKbps min_bw, BwKbps max_bw);

  // Sets up an EER over the given SegRs (1-3, in traversal order), which
  // must join into a path from this AS to the destination AS.
  Result<ReservationResult> setup_eer(const std::vector<ResKey>& segrs,
                                      const HostAddr& src_host,
                                      const HostAddr& dst_host, BwKbps min_bw,
                                      BwKbps max_bw);
  Result<ReservationResult> renew_eer(const ResKey& key, BwKbps min_bw,
                                      BwKbps max_bw);

  // App. C: segment lookup for end hosts — serves from the local registry,
  // queries the remote CServ (and caches) on miss. An invalid `to` means
  // any destination. With `type` set, only live adverts of that segment
  // type are returned, and only they count as a hit: a cached down-SegR
  // of a core AS must not stand in for its core SegRs.
  std::vector<SegrAdvert> lookup_segrs(
      AsId from, AsId to,
      std::optional<topology::SegType> type = std::nullopt);
  // Convenience: find SegR chains covering src->dst (up to 3 segments).
  std::vector<std::vector<SegrAdvert>> lookup_chains(AsId dst);

  // --- policing (§4.8) ----------------------------------------------------
  void report_offense(const dataplane::OffenseReport& offense);
  bool reservations_denied_for(AsId src) const {
    return denied_sources_.contains(src);
  }

  // --- durability (§6.1 "transactional database") --------------------------
  // Attaches a write-ahead log: every reservation mutation is logged
  // before it is applied, so the service can be restarted without losing
  // state. The storage must outlive the CServ.
  void attach_wal(reservation::ReservationWal* wal) { wal_ = wal; }
  // Replays the attached WAL into the reservation DB and rebuilds the
  // admission ledgers from the recovered records (allocations are derived
  // state and are not persisted). Returns the number of records applied.
  size_t restore_from_wal();

  // --- housekeeping -------------------------------------------------------
  // Expires reservations and releases their admission state.
  void tick();

  // --- bus entry point ----------------------------------------------------
  // Channel-tagged message dispatcher (packet / registry query / key
  // fetch); registered with the bus at construction.
  Bytes handle(BytesView wire);

 private:
  friend class Handlers;

  // Channel handlers (see handle()).
  Bytes handle_packet(BytesView wire);
  Bytes handle_registry_query(BytesView wire);
  Bytes handle_key_fetch(BytesView wire);
  Bytes handle_down_segr_request(BytesView wire);

  proto::Packet make_response_packet(const proto::Packet& request,
                                     const proto::ControlResponse& resp) const;

  // Fetches (and caches) K_{remote->local} for opening sealed HopAuths and
  // for MACing requests toward remote verifiers.
  std::optional<drkey::Key128> fetch_remote_key(AsId remote);

  // Builds per-AS payload MACs for an outgoing request.
  Result<proto::AuthedPayload> build_authed(const proto::ControlMessage& msg,
                                            const proto::ResInfo& ri,
                                            const std::vector<AsId>& ases);

  // The one initiator path of every request: MACs `msg` for each of
  // `ases`, runs the request from hop 0 and maps a refusal to the
  // bottleneck AS that refused it (§3.3).
  Result<proto::ControlResponse> request(proto::Packet pkt,
                                         const proto::ControlMessage& msg,
                                         const std::vector<AsId>& ases);

  // Shared body of setup_segr/renew_segr.
  Result<ReservationResult> request_segr(proto::PacketType type,
                                         topology::SegType seg_type,
                                         const std::vector<topology::Hop>& hops,
                                         const ResKey& key, ResVer version,
                                         BwKbps min_bw, BwKbps max_bw);

  // Shared body of setup_eer/renew_eer: request, unseal the returned hop
  // authenticators, install at the gateway.
  Result<ReservationResult> request_eer(proto::PacketType type,
                                        const std::vector<topology::Hop>& path,
                                        const std::vector<ResKey>& segrs,
                                        const ResKey& key, ResVer version,
                                        const proto::EerInfo& hosts,
                                        BwKbps min_bw, BwKbps max_bw);

  // Runs the full forward pass for a request originated here.
  Result<proto::ControlResponse> originate(proto::Packet pkt);

  AsId local_;
  MessageBus* bus_;
  drkey::Engine drkey_engine_;
  drkey::KeyServer key_server_;
  drkey::KeyCache key_cache_;
  drkey::Key128 hop_key_;
  // K_i schedule, expanded once: the AS's own secret, not per-source
  // state (§5.3), issued with every SegR token and EER σ_i.
  crypto::Aes128 hop_cipher_;
  const Clock* clock_;
  CservConfig cfg_;

  reservation::ReservationDb db_;
  // The paper's bounded-tube fairness (§4.7): a single-coordinator
  // SegR admission (the decision needs the complete per-egress view)
  // plus a stripe-parallel EER admission.
  admission::SegrAdmission segr_admission_;
  admission::EerAdmission eer_admission_;
  SegrRegistry registry_;
  ControlRateLimiter rate_limiter_;
  dataplane::Gateway* gateway_ = nullptr;
  reservation::ReservationWal* wal_ = nullptr;
  FailoverManager* failover_ = nullptr;
  HostAcceptor host_acceptor_;
  std::unordered_set<AsId> denied_sources_;
  std::unordered_map<ResKey, std::vector<proto::Hvf>> segr_tokens_;
  Rng rng_;

  // Control-plane admission counters; shared between the initiator API
  // and the bus handlers, so increments are full RMW (inc()).
  struct Metrics {
    telemetry::Counter seg_requests;
    telemetry::Counter seg_granted;
    telemetry::Counter eer_requests;
    telemetry::Counter eer_granted;
    telemetry::Counter auth_failures;
    telemetry::Counter rate_limited;
    telemetry::Counter policy_denied;
    telemetry::Histogram request_latency_ns;  // originate() wall time
  };
  Metrics metrics_;
  telemetry::ScopedSource registration_;
};

// Default monitoring rule pack for the control plane (see
// telemetry/alerts.hpp): fires when the windowed admission p99
// (cserv.request_latency_ns over the last 10 s) exceeds
// `admission_p99_ns`, and when a renewal batch grows beyond
// `renewal_backlog` items (cserv.renewal.last_batch_max) — the two
// leading indicators of a renewal storm outpacing the admission path.
std::vector<telemetry::AlertRule> default_cserv_alert_rules(
    std::uint64_t admission_p99_ns = 50'000'000,
    std::uint64_t renewal_backlog = 4'096);

}  // namespace colibri::cserv
