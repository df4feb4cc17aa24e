// On-path request processing: one pass serves every request kind (SegR
// setup and renewal, SegR activation, EER setup and renewal), as in
// Fig. 1a/1b. Forward, each AS checks and admits the request and hands
// it to the next AS; backward, it either settles at the end-to-end
// bandwidth and contributes its part of the response, or, for an
// unsuccessful request, gives back what the request took here (§3.3).
#include <algorithm>
#include <chrono>

#include "colibri/crypto/eax.hpp"
#include "colibri/cserv/cserv.hpp"
#include "colibri/cserv/wire_internal.hpp"
#include "colibri/dataplane/hvf.hpp"

namespace colibri::cserv {

// Friend of CServ; stateless — every function takes the service as `self`.
class Handlers {
 public:
  static Bytes process_request(CServ& self, proto::Packet pkt);

 private:
  // What a committing AS announces: the "granted" event and the verdict
  // on its trace span.
  struct Granted {
    const char* verdict;
    ResVer version;
    BwKbps bw_kbps;
    UnixSec exp_time;
    // An activation switches a version live rather than granting
    // bandwidth: its event carries no hop and its span notes the version.
    bool activation = false;
  };

  // The request kinds: each supplies its message checks, its admission,
  // its commit and its settle hook; run() is everything they share.
  struct SegPass;
  struct EerPass;
  struct ActivationPass;

  template <class Pass>
  static Bytes run(CServ& self, proto::Packet& pkt, proto::AuthedPayload& ap);

  static Bytes fail(CServ& self, const proto::Packet& pkt, Errc code,
                    std::uint8_t hop);
  static Bytes respond(CServ& self, const proto::Packet& pkt,
                       const proto::ControlResponse& resp);
  static bool verify_payload_mac(CServ& self, const proto::AuthedPayload& ap,
                                 const proto::ResInfo& ri, std::uint8_t hop);
  static void record_granted(CServ& self, const proto::Packet& pkt,
                             const Granted& g);
};

namespace {

const char* request_name(proto::PacketType t) {
  switch (t) {
    case proto::PacketType::kSegSetup: return "seg-setup";
    case proto::PacketType::kSegRenewal: return "seg-renewal";
    case proto::PacketType::kSegActivation: return "seg-activation";
    case proto::PacketType::kEerSetup: return "eer-setup";
    case proto::PacketType::kEerRenewal: return "eer-renewal";
    default: return "unknown";
  }
}

// Re-stamps the trace context for the next hop: the forwarded packet
// becomes a child span of this AS's delivery span, so each AS on the
// path opens a child of the upstream hop (never a disconnected root).
// No-op when tracing is off — the packet then carries no trace block
// and the wire bytes are identical to the pre-extension format.
void stamp_child_context(MessageBus& bus, proto::Packet& fwd) {
  if (!bus.tracing_active()) return;
  const proto::TraceContext ctx = bus.child_context();
  fwd.trace = ctx;
  fwd.has_trace = ctx.present();
}

// Times the admission-algorithm call when (and only when) this request
// is being traced; the annotation feeds per-hop attribution — "how much
// of this hop's self time was the admission decision".
class AdmissionTimer {
 public:
  explicit AdmissionTimer(telemetry::SpanCollector& tracer)
      : tracer_(tracer), armed_(tracer.in_span()) {
    if (armed_) {
      t0_ = std::chrono::steady_clock::now().time_since_epoch().count();
    }
  }
  ~AdmissionTimer() {
    if (armed_) {
      const std::int64_t t1 =
          std::chrono::steady_clock::now().time_since_epoch().count();
      tracer_.annotate("admission_ns", std::to_string(t1 - t0_));
    }
  }

 private:
  telemetry::SpanCollector& tracer_;
  bool armed_;
  std::int64_t t0_ = 0;
};

// The final bandwidth the last AS announces: the lowest grant on the
// path, capped by what the request asked for.
BwKbps path_minimum(const std::vector<BwKbps>& granted, BwKbps mine,
                    BwKbps cap) {
  BwKbps final_bw = std::min(mine, cap);
  for (BwKbps g : granted) final_bw = std::min(final_bw, g);
  return final_bw;
}

}  // namespace

// --- segment reservations ---------------------------------------------------

struct Handlers::SegPass {
  static constexpr bool kPoliced = true;  // rate limits and deny list apply
  static constexpr bool kFailsLostResponse = true;

  CServ& self;
  proto::Packet& pkt;
  proto::AuthedPayload& ap;
  proto::SegRequest* msg = nullptr;
  bool renewal = false;

  bool parse() {
    msg = std::get_if<proto::SegRequest>(&ap.message);
    const std::uint8_t hop = pkt.current_hop;
    if (msg == nullptr || hop >= msg->ases.size() ||
        msg->ases.size() != pkt.path.size() || msg->ases[hop] != self.local_) {
      return false;
    }
    self.metrics_.seg_requests.inc();
    renewal = pkt.type == proto::PacketType::kSegRenewal;
    return true;
  }

  Errc renewal_precheck() const {
    return self.db_.contains_segr(pkt.resinfo.key()) ? Errc::kOk
                                                     : Errc::kNoSuchReservation;
  }

  admission::SegrAdmissionRequest admission_request(BwKbps min_bw,
                                                    BwKbps demand) const {
    admission::SegrAdmissionRequest req;
    req.now = self.clock_->now_sec();
    req.src_as = pkt.resinfo.src_as;
    req.key = pkt.resinfo.key();
    req.ingress = pkt.path[pkt.current_hop].ingress;
    req.egress = pkt.path[pkt.current_hop].egress;
    req.min_bw_kbps = min_bw;
    req.demand_kbps = demand;
    return req;
  }

  // Admission (§4.7): how much can this AS grant between the request's
  // ingress and egress interfaces? O(1) in existing SegRs.
  Result<BwKbps> admit() {
    const auto req = admission_request(msg->min_bw_kbps, msg->max_bw_kbps);
    AdmissionTimer timer(self.bus_->tracer());
    return self.segr_admission_.admit(req);
  }

  std::size_t hops() const { return msg->ases.size(); }
  AsId next_as() const { return msg->ases[pkt.current_hop + 1]; }

  void add_grant(proto::Packet& fwd, BwKbps grant) {
    msg->granted.push_back(grant);
    fwd.payload = proto::encode_authed(ap);
  }

  proto::ControlResponse last_hop_response(BwKbps grant) const {
    proto::ControlResponse resp;
    resp.success = true;
    resp.final_bw_kbps = path_minimum(msg->granted, grant, msg->max_bw_kbps);
    resp.tokens.assign(msg->ases.size(), proto::Hvf{});
    return resp;
  }

  // Shrinks the ledger entry to the final bandwidth; a refused renewal
  // restores the active version's allocation, a refused setup releases.
  void settle(std::optional<BwKbps> final_bw) {
    if (!final_bw && renewal) {
      const auto rec = self.db_.segr_copy(pkt.resinfo.key());
      if (!rec) return;
      final_bw = rec->active.bw_kbps;
    }
    if (final_bw) {
      (void)self.segr_admission_.admit(admission_request(0, *final_bw));
    } else {
      self.segr_admission_.release(pkt.resinfo.key());
    }
  }

  // Stores the final bandwidth and contributes this AS's token (Eq. 3).
  Result<Granted> commit(proto::ControlResponse& resp) {
    const BwKbps final_bw = resp.final_bw_kbps;
    store(final_bw);
    const std::uint8_t hop = pkt.current_hop;
    proto::ResInfo final_ri = pkt.resinfo;
    final_ri.bw_kbps = final_bw;
    crypto::Aes128 hop_cipher(self.hop_key_.bytes.data());
    if (hop < resp.tokens.size()) {
      resp.tokens[hop] = dataplane::compute_seg_hvf(
          hop_cipher, final_ri, pkt.path[hop].ingress, pkt.path[hop].egress);
    }
    self.metrics_.seg_granted.inc();
    return Granted{renewal ? "segr.renewed" : "segr.admitted",
                   pkt.resinfo.version, final_bw, pkt.resinfo.exp_time};
  }

  void store(BwKbps final_bw) {
    reservation::SegrVersion ver;
    ver.version = pkt.resinfo.version;
    ver.bw_kbps = final_bw;
    ver.exp_time = pkt.resinfo.exp_time;

    if (renewal) {
      const bool updated = self.db_.with_segr(
          pkt.resinfo.key(), [&](reservation::SegrRecord* stored) {
            if (stored == nullptr) return false;
            stored->pending = ver;  // explicit activation switches it live (§4.2)
            if (self.wal_ != nullptr) self.wal_->log_segr_upsert(*stored);
            return true;
          });
      if (updated) return;
    }
    reservation::SegrRecord rec;
    rec.key = pkt.resinfo.key();
    rec.seg_type = msg->seg_type;
    rec.hops.resize(pkt.path.size());
    for (size_t i = 0; i < pkt.path.size(); ++i) {
      rec.hops[i] = pkt.path[i];
      rec.hops[i].as = msg->ases[i];
    }
    rec.local_hop = pkt.current_hop;
    rec.active = ver;
    self.db_.upsert_segr(std::move(rec), [&](reservation::SegrRecord& stored) {
      if (self.wal_ != nullptr) self.wal_->log_segr_upsert(stored);
    });
  }
};

struct Handlers::ActivationPass {
  static constexpr bool kPoliced = false;  // the MAC is the only check
  // A lost downstream answer travels back as is: nothing to give back.
  static constexpr bool kFailsLostResponse = false;

  CServ& self;
  proto::Packet& pkt;
  proto::AuthedPayload& ap;
  proto::SegActivation* msg = nullptr;
  std::optional<reservation::SegrRecord> rec{};

  bool parse() {
    msg = std::get_if<proto::SegActivation>(&ap.message);
    return msg != nullptr;
  }

  // Only a pending version can be switched live; its bandwidth is the
  // "grant".
  Result<BwKbps> admit() {
    rec = self.db_.segr_copy(pkt.resinfo.key());
    if (!rec) return Errc::kNoSuchReservation;
    if (!rec->pending || rec->pending->version != msg->version) {
      return Errc::kBadVersion;
    }
    return rec->pending->bw_kbps;
  }

  std::size_t hops() const { return rec->hops.size(); }
  AsId next_as() const { return rec->hops[pkt.current_hop + 1].as; }
  void add_grant(proto::Packet&, BwKbps) {}

  proto::ControlResponse last_hop_response(BwKbps grant) const {
    proto::ControlResponse resp;
    resp.success = true;
    resp.final_bw_kbps = grant;
    return resp;
  }

  void settle(std::optional<BwKbps>) {}

  // Switch: only one version of a SegR is ever live (§4.2). Re-validate
  // under the shard lock — the record may have been swept or renewed
  // again while the activation crossed the bus.
  Result<Granted> commit(proto::ControlResponse&) {
    reservation::SegrVersion activated;
    const bool switched = self.db_.with_segr(
        pkt.resinfo.key(), [&](reservation::SegrRecord* stored) {
          if (stored == nullptr || !stored->pending ||
              stored->pending->version != msg->version) {
            return false;
          }
          stored->active = *stored->pending;
          stored->pending.reset();
          activated = stored->active;
          if (self.wal_ != nullptr) self.wal_->log_segr_upsert(*stored);
          return true;
        });
    if (!switched) return Errc::kBadVersion;
    return Granted{"segr.activated", msg->version, activated.bw_kbps,
                   activated.exp_time, /*activation=*/true};
  }
};

// --- end-to-end reservations --------------------------------------------------

struct Handlers::EerPass {
  static constexpr bool kPoliced = true;
  static constexpr bool kFailsLostResponse = true;

  CServ& self;
  proto::Packet& pkt;
  proto::AuthedPayload& ap;
  proto::EerRequest* msg = nullptr;
  bool renewal = false;
  // What this renewal's admission replaced, reinstated if it is refused.
  admission::EerAdmission::Superseded superseded{};

  bool parse() {
    msg = std::get_if<proto::EerRequest>(&ap.message);
    const std::uint8_t hop = pkt.current_hop;
    if (msg == nullptr || hop >= msg->ases.size() ||
        msg->ases.size() != msg->path.size() || msg->ases[hop] != self.local_) {
      return false;
    }
    self.metrics_.eer_requests.inc();
    renewal = pkt.type == proto::PacketType::kEerRenewal;
    return true;
  }
  Errc renewal_precheck() const { return Errc::kOk; }

  Result<BwKbps> admit() {
    const std::uint8_t hop = pkt.current_hop;
    const UnixSec now_sec = self.clock_->now_sec();
    // Locate the SegR(s) this EER rides at this AS: one for source/
    // transit/destination ASes, two at a transfer AS (§4.1). The checks
    // below run on copies; admission re-reads the records under their
    // shard locks.
    std::optional<ResKey> segr_in;
    std::optional<ResKey> segr_out;
    std::vector<reservation::SegrRecord> rides;
    for (const ResKey& sk : msg->segrs) {
      auto rec = self.db_.segr_copy(sk);
      if (!rec) continue;
      if (!segr_in) {
        segr_in = sk;
      } else if (!segr_out) {
        segr_out = sk;
      } else {
        continue;
      }
      rides.push_back(std::move(*rec));
    }
    if (!segr_in) return Errc::kNoSuchSegment;
    for (const reservation::SegrRecord& rec : rides) {
      // App. C: signal expiry so the initiator can invalidate its cache
      // and retry with the new version.
      if (rec.expired(now_sec)) return Errc::kExpired;
    }
    // Whitelist enforcement by the SegR's initiating AS (App. C).
    for (const reservation::SegrRecord& rec : rides) {
      if (rec.hops[rec.local_hop].as != rec.hops[0].as) continue;
      if (rec.key.src_as != self.local_) continue;
      if (auto advert = self.registry_.find(rec.key);
          advert && !advert->usable_by(pkt.resinfo.src_as)) {
        return Errc::kNotWhitelisted;
      }
    }

    // The demanded bandwidth travels in the header ResInfo (§4.4).
    BwKbps demand = pkt.resinfo.bw_kbps;
    // Source/destination policy (§4.7): per-host cap.
    const bool is_source = hop == 0;
    const bool is_dest = hop + 1u >= msg->ases.size();
    if (is_source || is_dest) {
      if (msg->min_bw_kbps > self.cfg_.per_host_eer_cap_kbps) {
        self.metrics_.policy_denied.inc();
        return Errc::kPolicyDenied;
      }
      demand = std::min(demand, self.cfg_.per_host_eer_cap_kbps);
    }
    // Destination host acceptance (§4.4).
    if (is_dest && self.host_acceptor_ &&
        !self.host_acceptor_(pkt.eerinfo, demand)) {
      self.metrics_.policy_denied.inc();
      return Errc::kPolicyDenied;
    }

    admission::EerAdmission::Request areq;
    areq.eer_key = pkt.resinfo.key();
    areq.demand_kbps = demand;
    areq.min_bw_kbps = msg->min_bw_kbps;
    areq.segr_in = segr_in;
    areq.segr_out = segr_out;
    AdmissionTimer timer(self.bus_->tracer());
    return self.eer_admission_.admit(self.db_, areq, now_sec, &superseded);
  }

  std::size_t hops() const { return msg->ases.size(); }
  AsId next_as() const { return msg->ases[pkt.current_hop + 1]; }

  // At a transfer AS the request payload is copied into a fresh Colibri
  // packet for the next SegR (§4.4); in this model that is the
  // re-encoded packet handed to the next AS.
  void add_grant(proto::Packet& fwd, BwKbps grant) {
    msg->granted.push_back(grant);
    fwd.payload = proto::encode_authed(ap);
  }

  proto::ControlResponse last_hop_response(BwKbps grant) const {
    proto::ControlResponse resp;
    resp.success = true;
    resp.final_bw_kbps = path_minimum(msg->granted, grant, pkt.resinfo.bw_kbps);
    resp.sealed_hopauths.assign(msg->ases.size(), Bytes{});
    return resp;
  }

  void settle(std::optional<BwKbps> final_bw) {
    self.eer_admission_.settle(self.db_, pkt.resinfo.key(), final_bw,
                               superseded);
  }

  // Stores the new version and issues the hop authenticator σ_i over the
  // *final* reservation parameters (Eq. 4), sealed for the source AS
  // (Eq. 5).
  Result<Granted> commit(proto::ControlResponse& resp) {
    const BwKbps final_bw = resp.final_bw_kbps;
    store(final_bw);
    const std::uint8_t hop = pkt.current_hop;
    proto::ResInfo final_ri = pkt.resinfo;
    final_ri.bw_kbps = final_bw;
    crypto::Aes128 hop_cipher(self.hop_key_.bytes.data());
    const dataplane::HopAuth sigma = dataplane::compute_hopauth(
        hop_cipher, final_ri, pkt.eerinfo, msg->path[hop].ingress,
        msg->path[hop].egress);

    const drkey::Key128 seal_key =
        self.drkey_engine_.as_key(pkt.resinfo.src_as, self.clock_->now_sec());
    crypto::Eax eax(seal_key.bytes.data());
    std::uint8_t nonce[16];
    self.rng_.fill(nonce, sizeof(nonce));
    const Bytes aad = wire::hopauth_aad(final_ri, hop);
    if (hop < resp.sealed_hopauths.size()) {
      resp.sealed_hopauths[hop] =
          eax.seal(BytesView(nonce, sizeof(nonce)), aad,
                   BytesView(sigma.data(), sigma.size()));
    }
    self.metrics_.eer_granted.inc();
    return Granted{renewal ? "eer.renewed" : "eer.admitted",
                   pkt.resinfo.version, final_bw, pkt.resinfo.exp_time};
  }

  void store(BwKbps final_bw) {
    reservation::EerVersion ver;
    ver.version = pkt.resinfo.version;
    ver.bw_kbps = final_bw;
    ver.exp_time = pkt.resinfo.exp_time;

    const bool updated = self.db_.with_eer(
        pkt.resinfo.key(), [&](reservation::EerRecord* stored) {
          if (stored == nullptr) return false;
          stored->prune(self.clock_->now_sec());
          stored->versions.push_back(ver);
          if (self.wal_ != nullptr) self.wal_->log_eer_upsert(*stored);
          return true;
        });
    if (updated) return;
    reservation::EerRecord rec;
    rec.key = pkt.resinfo.key();
    rec.src_host = pkt.eerinfo.src_host;
    rec.dst_host = pkt.eerinfo.dst_host;
    rec.path = msg->path;
    rec.local_hop = pkt.current_hop;
    rec.segrs = msg->segrs;
    rec.versions.push_back(ver);
    self.db_.upsert_eer(std::move(rec), [&](reservation::EerRecord& stored) {
      if (self.wal_ != nullptr) self.wal_->log_eer_upsert(stored);
    });
  }
};

// --- the shared pass ----------------------------------------------------------

Bytes Handlers::process_request(CServ& self, proto::Packet pkt) {
  auto ap = proto::decode_authed(pkt.payload);
  if (!ap) return fail(self, pkt, Errc::kMalformed, pkt.current_hop);

  switch (pkt.type) {
    case proto::PacketType::kSegSetup:
    case proto::PacketType::kSegRenewal:
      return run<SegPass>(self, pkt, *ap);
    case proto::PacketType::kSegActivation:
      return run<ActivationPass>(self, pkt, *ap);
    case proto::PacketType::kEerSetup:
    case proto::PacketType::kEerRenewal:
      return run<EerPass>(self, pkt, *ap);
    default:
      return fail(self, pkt, Errc::kMalformed, pkt.current_hop);
  }
}

template <class Pass>
Bytes Handlers::run(CServ& self, proto::Packet& pkt, proto::AuthedPayload& ap) {
  Pass pass{self, pkt, ap};
  const std::uint8_t hop = pkt.current_hop;
  if (!pass.parse()) return fail(self, pkt, Errc::kMalformed, hop);
  if (!verify_payload_mac(self, ap, pkt.resinfo, hop)) {
    self.metrics_.auth_failures.inc();
    return fail(self, pkt, Errc::kAuthFailed, hop);
  }
  if constexpr (Pass::kPoliced) {
    const TimeNs now = self.clock_->now_ns();
    if (!self.rate_limiter_.allow_request(pkt.resinfo.src_as, now)) {
      self.metrics_.rate_limited.inc();
      return fail(self, pkt, Errc::kRateLimited, hop);
    }
    if (self.denied_sources_.contains(pkt.resinfo.src_as)) {
      return fail(self, pkt, Errc::kBlocked, hop);
    }
    if (pass.renewal) {
      if (const Errc e = pass.renewal_precheck(); e != Errc::kOk) {
        return fail(self, pkt, e, hop);
      }
      if (!self.rate_limiter_.allow_renewal(pkt.resinfo.key(), now)) {
        self.metrics_.rate_limited.inc();
        return fail(self, pkt, Errc::kRateLimited, hop);
      }
    }
  }

  // Refused here: tell the initiator where the bottleneck is (§3.3).
  const auto admitted = pass.admit();
  if (!admitted) return fail(self, pkt, admitted.error(), hop);

  // Forward pass: the last AS answers; every other AS records its grant
  // and hands the request to the next AS.
  Bytes resp_wire;
  if (hop + 1u >= pass.hops()) {
    resp_wire = respond(self, pkt, pass.last_hop_response(admitted.value()));
  } else {
    proto::Packet fwd = pkt;
    fwd.current_hop = hop + 1;
    pass.add_grant(fwd, admitted.value());
    stamp_child_context(*self.bus_, fwd);
    resp_wire = self.bus_->call(pass.next_as(),
                                wire::packet_frame(proto::encode_packet(fwd)));
  }

  // Backward pass.
  auto resp_pkt = proto::decode_packet(resp_wire);
  auto resp_ap = resp_pkt ? proto::decode_authed(resp_pkt->payload)
                          : std::nullopt;
  auto* resp = resp_ap ? std::get_if<proto::ControlResponse>(&resp_ap->message)
                       : nullptr;
  if (resp == nullptr || !resp->success) {
    // Unsuccessful request: clean up the temporary allocation (§3.3).
    pass.settle(std::nullopt);
    if (resp == nullptr && Pass::kFailsLostResponse) {
      return fail(self, pkt, Errc::kInternal, hop);
    }
    return resp_wire;
  }
  pass.settle(resp->final_bw_kbps);
  const auto granted = pass.commit(*resp);
  if (!granted) return fail(self, pkt, granted.error(), hop);
  record_granted(self, pkt, granted.value());

  resp_pkt->payload = proto::encode_authed(*resp_ap);
  return proto::encode_packet(*resp_pkt);
}

Bytes Handlers::fail(CServ& self, const proto::Packet& pkt, Errc code,
                     std::uint8_t hop) {
  // Every refusal funnels through here, so this is the single audit
  // point for denials: the event names the refusing AS (the bottleneck
  // location the initiator learns per §3.3) and the unified reason.
  if (self.cfg_.events != nullptr) {
    self.cfg_.events
        ->emit(telemetry::Severity::kWarn, "cserv", "request.denied")
        .str("as", self.local_.to_string())
        .str("request", request_name(pkt.type))
        .str("reason", errc_name(code))
        .str("at", self.local_.to_string())
        .u64("hop", hop)
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id);
  }
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", "denied");
    tracer.annotate("reason", errc_name(code));
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
  }
  proto::ControlResponse resp;
  resp.success = false;
  resp.fail_code = code;
  resp.fail_hop = hop;
  return respond(self, pkt, resp);
}

Bytes Handlers::respond(CServ& self, const proto::Packet& pkt,
                        const proto::ControlResponse& resp) {
  return proto::encode_packet(self.make_response_packet(pkt, resp));
}

bool Handlers::verify_payload_mac(CServ& self, const proto::AuthedPayload& ap,
                                  const proto::ResInfo& ri, std::uint8_t hop) {
  if (hop >= ap.macs.size()) return false;
  // K_{me -> SrcAS}: derived on the fly from the local secret value — no
  // per-source state, which is what makes request filtering DoC-resistant
  // (§5.3).
  const drkey::Key128 key =
      self.drkey_engine_.as_key(ri.src_as, self.clock_->now_sec());
  const Bytes input = proto::auth_input(ap.message, ri);
  crypto::Cmac cmac(key.bytes.data());
  std::uint8_t tag[crypto::Cmac::kTagSize];
  cmac.compute(input, tag);
  return crypto::Cmac::verify_prefix(tag, ap.macs[hop].data(), sizeof(tag));
}

void Handlers::record_granted(CServ& self, const proto::Packet& pkt,
                              const Granted& g) {
  if (self.cfg_.events != nullptr) {
    auto ev = self.cfg_.events->emit(telemetry::Severity::kInfo, "cserv",
                                     g.verdict);
    ev.str("as", self.local_.to_string())
        .str("src_as", pkt.resinfo.src_as.to_string())
        .u64("res_id", pkt.resinfo.res_id)
        .u64("version", g.version)
        .u64("bw_kbps", g.bw_kbps)
        .u64("exp_time", g.exp_time);
    if (!g.activation) ev.u64("hop", pkt.current_hop);
  }
  // Trace-context propagation: this handler ran under the bus span of
  // the hop call that delivered the request, so tag that span with what
  // this AS decided — the Perfetto export then shows the verdict on
  // every hop of the request without a context parameter.
  telemetry::SpanCollector& tracer = self.bus_->tracer();
  if (tracer.in_span()) {
    tracer.annotate("verdict", g.verdict);
    tracer.annotate("res_id", std::to_string(pkt.resinfo.res_id));
    if (g.activation) {
      tracer.annotate("version", std::to_string(g.version));
    } else {
      tracer.annotate("bw_kbps", std::to_string(g.bw_kbps));
    }
  }
}

// Out-of-line bridge used by CServ (declared friend).
Bytes process_request_bridge(CServ& self, proto::Packet pkt) {
  return Handlers::process_request(self, std::move(pkt));
}

}  // namespace colibri::cserv
