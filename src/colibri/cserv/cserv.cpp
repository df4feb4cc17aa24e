#include "colibri/cserv/cserv.hpp"

#include <algorithm>
#include <chrono>

#include "colibri/crypto/eax.hpp"
#include "colibri/cserv/wire_internal.hpp"

namespace colibri::cserv {

// Defined in handlers.cpp.
Bytes process_request_bridge(CServ& self, proto::Packet pkt);

namespace {

// Paper §3.3: "the initiator can determine the location of potential
// bottlenecks" — render the refusing AS from a response's fail_hop.
std::string bottleneck_context(const std::vector<AsId>& ases,
                               std::uint8_t fail_hop) {
  if (fail_hop >= ases.size()) return {};
  return "at " + ases[fail_hop].to_string() + " (hop " +
         std::to_string(fail_hop) + ")";
}

}  // namespace

CServ::CServ(const topology::Topology& topo, AsId local, MessageBus& bus,
             drkey::SimulatedPki& pki, const drkey::Key128& drkey_master,
             const drkey::Key128& hop_key, const Clock& clock,
             CservConfig cfg)
    : local_(local),
      bus_(&bus),
      drkey_engine_(drkey_master, local),
      key_server_(drkey_engine_, pki.enroll(local)),
      key_cache_(local, pki),
      hop_key_(hop_key),
      hop_cipher_(hop_key.bytes.data()),
      clock_(&clock),
      cfg_(cfg),
      db_(local, kControlPlaneShards),
      eer_admission_(kControlPlaneShards),
      rate_limiter_(cfg.rate_limits),
      rng_(local.raw() ^ 0xC011B121C0DEULL),
      registration_(cfg.metrics, this) {
  // Interface capacities from the local traffic matrix (§4.7): the Colibri
  // share of each inter-domain link, plus the internal pseudo-interface 0
  // for traffic terminating in this AS.
  const topology::AsNode& node = topo.node(local);
  for (const auto& intf : node.interfaces) {
    segr_admission_.set_interface_capacity(intf.id,
                                           node.colibri_capacity(intf.id));
  }
  segr_admission_.set_interface_capacity(kNoInterface,
                                         cfg_.internal_capacity_kbps);
  bus_->attach(local, [this](BytesView wire) { return handle(wire); });
}

CServ::~CServ() { bus_->detach(local_); }

Bytes CServ::handle(BytesView wire) {
  if (wire.empty()) return {};
  const std::uint8_t chan = wire[0];
  const BytesView body = wire.subspan(1);
  switch (chan) {
    case wire::kChanPacket: return handle_packet(body);
    case wire::kChanRegistryQuery: return handle_registry_query(body);
    case wire::kChanKeyFetch: return handle_key_fetch(body);
    case wire::kChanDownSegrRequest: return handle_down_segr_request(body);
    default: return {};
  }
}

Bytes CServ::handle_packet(BytesView body) {
  auto pkt = proto::decode_packet(body);
  if (!pkt) return {};
  return process_request_bridge(*this, std::move(*pkt));
}

Bytes CServ::handle_registry_query(BytesView body) {
  ByteReader r(body);
  const AsId requester = AsId::from_raw(r.read<std::uint64_t>());
  const AsId from = AsId::from_raw(r.read<std::uint64_t>());
  const AsId to = AsId::from_raw(r.read<std::uint64_t>());
  if (!r.ok()) return {};
  const UnixSec now = clock_->now_sec();
  const std::vector<SegrAdvert> adverts =
      to.valid() ? registry_.query(requester, from, to, now)
                 : registry_.query_from(requester, from, now);
  Bytes out;
  put_le(out, static_cast<std::uint16_t>(adverts.size()));
  for (const auto& a : adverts) wire::put_advert(out, a);
  return out;
}

Bytes CServ::handle_key_fetch(BytesView body) {
  ByteReader r(body);
  const AsId requester = AsId::from_raw(r.read<std::uint64_t>());
  const UnixSec at = r.read<std::uint32_t>();
  if (!r.ok()) return {};
  return wire::encode_key_response(key_server_.fetch(requester, at));
}

proto::Packet CServ::make_response_packet(
    const proto::Packet& request, const proto::ControlResponse& resp) const {
  proto::Packet out;
  out.type = proto::PacketType::kResponse;
  out.is_eer = request.is_eer;
  out.current_hop = request.current_hop;
  out.path = request.path;
  out.resinfo = request.resinfo;
  out.eerinfo = request.eerinfo;
  proto::AuthedPayload ap;
  ap.message = resp;
  out.payload = proto::encode_authed(ap);
  return out;
}

std::optional<drkey::Key128> CServ::fetch_remote_key(AsId remote) {
  const UnixSec now = clock_->now_sec();
  if (remote == local_) return drkey_engine_.as_key(local_, now);
  if (auto cached = key_cache_.lookup(remote, now)) return cached;
  const Bytes resp = bus_->call(remote, wire::encode_key_fetch(local_, now));
  auto kr = wire::decode_key_response(resp);
  if (!kr || !key_cache_.insert(remote, *kr)) return std::nullopt;
  return kr->key;
}

Result<proto::AuthedPayload> CServ::build_authed(
    const proto::ControlMessage& msg, const proto::ResInfo& ri,
    const std::vector<AsId>& ases) {
  proto::AuthedPayload ap;
  ap.message = msg;
  const Bytes input = proto::auth_input(msg, ri);
  ap.macs.reserve(ases.size());
  for (AsId as : ases) {
    // K_{AS_i→me}: slow side — fetched from AS_i's key server and cached
    // for the epoch (§2.3).
    auto key = fetch_remote_key(as);
    if (!key) return Errc::kAuthFailed;
    crypto::Cmac cmac(key->bytes.data());
    proto::Mac16 mac;
    cmac.compute(input, mac.data());
    ap.macs.push_back(mac);
  }
  return ap;
}

Result<proto::ControlResponse> CServ::request(
    proto::Packet pkt, const proto::ControlMessage& msg,
    const std::vector<AsId>& ases) {
  auto authed = build_authed(msg, pkt.resinfo, ases);
  if (!authed) return authed.error();
  pkt.payload = proto::encode_authed(authed.value());
  auto resp = originate(std::move(pkt));
  if (resp && !resp.value().success) {
    return Result<proto::ControlResponse>(
        resp.value().fail_code,
        bottleneck_context(ases, resp.value().fail_hop));
  }
  return resp;
}

Result<proto::ControlResponse> CServ::originate(proto::Packet pkt) {
  // The initiator is hop 0 of its own request; process locally, which
  // recursively forwards down the path via the bus. The full forward +
  // unwind wall time lands in the request-latency histogram.
  //
  // Distributed tracing: hop 0 never crosses the bus, so the root of the
  // trace is created here — a fresh trace id (derived from this AS's
  // Clock and the bus sequence, reproducible under SimClock) and a root
  // span covering the local processing. Downstream hops chain off it via
  // the context stamped into forwarded packets.
  const bool tracing = bus_->tracing_active();
  proto::TraceContext root_ctx;
  proto::TraceContext prev_ctx;
  std::size_t root_span = 0;
  const auto t0 = std::chrono::steady_clock::now();
  if (tracing) {
    root_ctx = bus_->new_root_context(clock_->now_ns());
    pkt.trace = root_ctx;
    pkt.has_trace = root_ctx.present();
    root_span = bus_->tracer().open(
        local_.to_string(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count(),
        pkt.wire_size());
    bus_->tracer().set_trace_ids(root_span, root_ctx.trace_hi,
                                 root_ctx.trace_lo, root_ctx.span_id,
                                 /*parent_span_id=*/0);
    prev_ctx = bus_->exchange_context(root_ctx);
  }
  const Bytes resp_wire = process_request_bridge(*this, std::move(pkt));
  const auto t1 = std::chrono::steady_clock::now();
  if (tracing) {
    (void)bus_->exchange_context(prev_ctx);
    bus_->tracer().close(root_span,
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             t1.time_since_epoch())
                             .count());
  }
  metrics_.request_latency_ns.record_shared(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count()));
  auto resp_pkt = proto::decode_packet(resp_wire);
  if (!resp_pkt) return Errc::kInternal;
  auto resp_ap = proto::decode_authed(resp_pkt->payload);
  if (!resp_ap) return Errc::kInternal;
  auto* resp = std::get_if<proto::ControlResponse>(&resp_ap->message);
  if (resp == nullptr) return Errc::kInternal;
  return *resp;
}

// --- SegR initiator API -------------------------------------------------------

Result<ReservationResult> CServ::setup_segr(const topology::PathSegment& seg,
                                            BwKbps min_bw, BwKbps max_bw) {
  if (seg.hops.empty() || seg.first_as() != local_) return Errc::kMalformed;
  return request_segr(proto::PacketType::kSegSetup, seg.type, seg.hops,
                      ResKey{local_, db_.next_res_id()}, 0, min_bw, max_bw);
}

Result<ReservationResult> CServ::renew_segr(const ResKey& key, BwKbps min_bw,
                                            BwKbps max_bw) {
  const auto rec = db_.segr_copy(key);
  if (!rec || key.src_as != local_) return Errc::kNoSuchReservation;
  return request_segr(proto::PacketType::kSegRenewal, rec->seg_type,
                      rec->hops, key,
                      static_cast<ResVer>(rec->active.version + 1), min_bw,
                      max_bw);
}

Result<ReservationResult> CServ::request_segr(
    proto::PacketType type, topology::SegType seg_type,
    const std::vector<topology::Hop>& hops, const ResKey& key,
    ResVer version, BwKbps min_bw, BwKbps max_bw) {
  proto::SegRequest msg;
  msg.seg_type = seg_type;
  msg.min_bw_kbps = min_bw;
  msg.max_bw_kbps = max_bw;
  for (const auto& h : hops) msg.ases.push_back(h.as);

  proto::Packet pkt;
  pkt.type = type;
  pkt.is_eer = false;
  pkt.path = hops;
  pkt.resinfo.src_as = key.src_as;
  pkt.resinfo.res_id = key.res_id;
  pkt.resinfo.bw_kbps = max_bw;
  pkt.resinfo.exp_time = clock_->now_sec() + cfg_.segr_lifetime_sec;
  pkt.resinfo.version = version;

  const UnixSec exp = pkt.resinfo.exp_time;
  return request(std::move(pkt), msg, msg.ases)
      .map([&](proto::ControlResponse resp) {
        segr_tokens_[key] = std::move(resp.tokens);
        return ReservationResult{key, resp.final_bw_kbps, exp, version};
      });
}

Result<void> CServ::activate_segr(const ResKey& key, ResVer version) {
  const auto rec = db_.segr_copy(key);
  if (!rec || key.src_as != local_) return Errc::kNoSuchReservation;
  if (!rec->pending || rec->pending->version != version) {
    return Errc::kBadVersion;
  }

  proto::SegActivation msg{version};
  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegActivation;
  pkt.is_eer = false;
  pkt.path = rec->hops;
  pkt.resinfo.src_as = local_;
  pkt.resinfo.res_id = key.res_id;
  pkt.resinfo.bw_kbps = rec->pending->bw_kbps;
  pkt.resinfo.exp_time = rec->pending->exp_time;
  pkt.resinfo.version = version;

  std::vector<AsId> ases;
  for (const auto& h : rec->hops) ases.push_back(h.as);
  return request(std::move(pkt), msg, ases)
      .map([](proto::ControlResponse) {});
}

bool CServ::publish_segr(const ResKey& key, std::vector<AsId> whitelist) {
  const auto rec = db_.segr_copy(key);
  if (!rec) return false;
  SegrAdvert a;
  a.key = key;
  a.seg_type = rec->seg_type;
  a.hops = rec->hops;
  a.bw_kbps = rec->active.bw_kbps;
  a.exp_time = rec->active.exp_time;
  a.whitelist = std::move(whitelist);
  registry_.register_segr(std::move(a));
  return true;
}

const std::vector<proto::Hvf>* CServ::segr_tokens(const ResKey& key) const {
  auto it = segr_tokens_.find(key);
  return it == segr_tokens_.end() ? nullptr : &it->second;
}

Result<ReservationResult> CServ::request_down_segr(
    const topology::PathSegment& down_seg, BwKbps min_bw, BwKbps max_bw) {
  if (down_seg.hops.empty() || down_seg.type != topology::SegType::kDown ||
      down_seg.last_as() != local_) {
    return Errc::kMalformed;
  }
  wire::DownSegrRequest q;
  q.requester = local_;
  q.min_bw_kbps = min_bw;
  q.max_bw_kbps = max_bw;
  q.hops = down_seg.hops;
  const Bytes resp_wire =
      bus_->call(down_seg.first_as(), wire::encode_down_request(q));
  auto resp = wire::decode_down_response(resp_wire);
  if (!resp) return Errc::kInternal;
  if (resp->code != Errc::kOk) return resp->code;
  // Cache the advert locally so the daemon can use the SegR right away.
  SegrAdvert advert;
  advert.key = resp->key;
  advert.seg_type = topology::SegType::kDown;
  advert.hops = down_seg.hops;
  advert.bw_kbps = resp->bw_kbps;
  advert.exp_time = resp->exp_time;
  advert.whitelist = {local_};
  registry_.cache_remote(std::move(advert));
  return ReservationResult{resp->key, resp->bw_kbps, resp->exp_time, 0};
}

Bytes CServ::handle_down_segr_request(BytesView body) {
  auto q = wire::decode_down_request(body);
  wire::DownSegrResponse resp;
  if (!q || q->hops.front().as != local_) {
    resp.code = Errc::kMalformed;
    return wire::encode_down_response(resp);
  }
  // Only the last AS of the segment may request it (§3.3).
  if (q->hops.back().as != q->requester) {
    resp.code = Errc::kPolicyDenied;
    return wire::encode_down_response(resp);
  }
  if (!rate_limiter_.allow_request(q->requester, clock_->now_ns()) ||
      denied_sources_.contains(q->requester)) {
    resp.code = Errc::kRateLimited;
    return wire::encode_down_response(resp);
  }
  topology::PathSegment seg;
  seg.type = topology::SegType::kDown;
  seg.hops = q->hops;
  auto r = setup_segr(seg, q->min_bw_kbps, q->max_bw_kbps);
  if (!r) {
    resp.code = r.error();
    return wire::encode_down_response(resp);
  }
  // Publish whitelisted for the requesting AS.
  publish_segr(r.value().key, {q->requester});
  resp.code = Errc::kOk;
  resp.key = r.value().key;
  resp.bw_kbps = r.value().bw_kbps;
  resp.exp_time = r.value().exp_time;
  return wire::encode_down_response(resp);
}

// --- EER initiator API ----------------------------------------------------------

Result<ReservationResult> CServ::setup_eer(const std::vector<ResKey>& segrs,
                                           const HostAddr& src_host,
                                           const HostAddr& dst_host,
                                           BwKbps min_bw, BwKbps max_bw) {
  if (segrs.empty() || segrs.size() > 3) return Errc::kMalformed;

  // Resolve advert metadata for every SegR (local registry, then the
  // initiating AS's registry — App. C) and stitch the full path.
  std::vector<SegrAdvert> adverts;
  for (const ResKey& sk : segrs) {
    auto local_hit = registry_.find(sk);
    if (!local_hit) {
      // Ask the SegR's initiator.
      const Bytes resp = bus_->call(
          sk.src_as,
          wire::encode_registry_query(wire::RegistryQuery{local_, sk.src_as,
                                                          AsId{}}));
      ByteReader r(resp);
      const auto n = r.read<std::uint16_t>();
      for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
        if (auto a = wire::get_advert(r)) {
          registry_.cache_remote(*a);
          if (a->key == sk) local_hit = *a;
        }
      }
    }
    if (!local_hit) return Errc::kNoSuchSegment;
    adverts.push_back(std::move(*local_hit));
  }

  // Stitch segments into the e2e path (transfer ASes merge, §4.1).
  std::vector<topology::Hop> path;
  for (const auto& a : adverts) {
    size_t start = 0;
    if (!path.empty()) {
      if (path.back().as != a.hops.front().as) return Errc::kNoSuchSegment;
      path.back().egress = a.hops.front().egress;
      start = 1;
    }
    path.insert(path.end(), a.hops.begin() + start, a.hops.end());
  }
  if (path.front().as != local_) return Errc::kMalformed;
  if (path.size() > dataplane::kMaxHops) return Errc::kMalformed;
  return request_eer(proto::PacketType::kEerSetup, path, segrs,
                     ResKey{local_, db_.next_res_id()}, 0,
                     proto::EerInfo{src_host, dst_host}, min_bw, max_bw);
}

Result<ReservationResult> CServ::renew_eer(const ResKey& key, BwKbps min_bw,
                                           BwKbps max_bw) {
  const auto rec = db_.eer_copy(key);
  if (!rec || key.src_as != local_) return Errc::kNoSuchReservation;
  ResVer next_ver = 0;
  for (const auto& v : rec->versions) {
    next_ver = std::max<ResVer>(next_ver, v.version);
  }
  return request_eer(proto::PacketType::kEerRenewal, rec->path, rec->segrs,
                     key, static_cast<ResVer>(next_ver + 1),
                     proto::EerInfo{rec->src_host, rec->dst_host}, min_bw,
                     max_bw);
}

Result<ReservationResult> CServ::request_eer(
    proto::PacketType type, const std::vector<topology::Hop>& path,
    const std::vector<ResKey>& segrs, const ResKey& key, ResVer version,
    const proto::EerInfo& hosts, BwKbps min_bw, BwKbps max_bw) {
  proto::EerRequest msg;
  msg.min_bw_kbps = min_bw;
  msg.path = path;
  for (const auto& h : path) msg.ases.push_back(h.as);
  msg.segrs = segrs;

  proto::Packet pkt;
  pkt.type = type;
  pkt.is_eer = true;
  pkt.path = path;
  pkt.resinfo.src_as = key.src_as;
  pkt.resinfo.res_id = key.res_id;
  pkt.resinfo.bw_kbps = max_bw;
  pkt.resinfo.exp_time = clock_->now_sec() + cfg_.eer_lifetime_sec;
  pkt.resinfo.version = version;
  pkt.eerinfo = hosts;

  proto::ResInfo final_ri = pkt.resinfo;
  return request(std::move(pkt), msg, msg.ases)
      .and_then([&](proto::ControlResponse resp) -> Result<ReservationResult> {
        // Unseal the hop authenticators (Eq. 5) with the per-AS DRKeys and
        // install the reservation at the gateway (Fig. 1b step 5).
        final_ri.bw_kbps = resp.final_bw_kbps;
        std::vector<dataplane::HopAuth> sigmas;
        sigmas.reserve(msg.ases.size());
        for (size_t i = 0; i < msg.ases.size(); ++i) {
          auto remote_key = fetch_remote_key(msg.ases[i]);
          if (!remote_key) return Errc::kAuthFailed;
          crypto::Eax eax(remote_key->bytes.data());
          const Bytes aad =
              wire::hopauth_aad(final_ri, static_cast<std::uint8_t>(i));
          if (i >= resp.sealed_hopauths.size()) return Errc::kInternal;
          auto opened = eax.open(aad, resp.sealed_hopauths[i]);
          if (!opened || opened->size() != 16) return Errc::kAuthFailed;
          dataplane::HopAuth sigma;
          std::copy(opened->begin(), opened->end(), sigma.begin());
          sigmas.push_back(sigma);
        }
        if (gateway_ != nullptr) {
          gateway_->install(final_ri, hosts, msg.path, sigmas);
        }
        return ReservationResult{key, final_ri.bw_kbps, final_ri.exp_time,
                                 version};
      });
}

// --- dissemination (App. C) --------------------------------------------------------

std::vector<SegrAdvert> CServ::lookup_segrs(
    AsId from, AsId to, std::optional<topology::SegType> type) {
  const UnixSec now = clock_->now_sec();
  auto local_query = [&]() {
    auto hits = to.valid() ? registry_.query(local_, from, to, now)
                           : registry_.query_from(local_, from, now);
    if (type) {
      std::erase_if(hits, [&](const SegrAdvert& a) {
        return a.seg_type != *type;
      });
    }
    return hits;
  };
  auto local_hits = local_query();
  if (!local_hits.empty()) return local_hits;

  // Miss: query remote CServs (the segment's initiator and, for
  // down-segments, the destination) and cache what comes back.
  for (AsId remote : {from, to}) {
    if (remote == local_ || !remote.valid()) continue;
    const Bytes resp = bus_->call(
        remote,
        wire::encode_registry_query(wire::RegistryQuery{local_, from, to}));
    ByteReader r(resp);
    const auto n = r.read<std::uint16_t>();
    for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
      if (auto a = wire::get_advert(r)) registry_.cache_remote(*a);
    }
  }
  return local_query();
}

std::vector<std::vector<SegrAdvert>> CServ::lookup_chains(AsId dst) {
  const UnixSec now = clock_->now_sec();
  std::vector<std::vector<SegrAdvert>> chains;

  // Direct segment local -> dst.
  for (auto& a : lookup_segrs(local_, dst)) chains.push_back({a});

  // Up (local -> core) [+ core] + down (core' -> dst).
  const auto ups = registry_.query_from(local_, local_, now);
  auto downs_to_dst = [&](AsId core_origin) {
    return lookup_segrs(core_origin, dst);
  };
  for (const auto& up : ups) {
    if (up.seg_type != topology::SegType::kUp) continue;
    const AsId joint = up.last_as();
    // up + down at the same core AS.
    for (auto& down : downs_to_dst(joint)) {
      if (down.seg_type != topology::SegType::kDown) continue;
      chains.push_back({up, down});
    }
    // up + core + down.
    for (auto& core :
         lookup_segrs(joint, AsId{}, topology::SegType::kCore)) {
      for (auto& down : downs_to_dst(core.last_as())) {
        if (down.seg_type != topology::SegType::kDown) continue;
        chains.push_back({up, core, down});
      }
    }
  }
  return chains;
}

// --- policing & housekeeping ---------------------------------------------------------

void CServ::report_offense(const dataplane::OffenseReport& offense) {
  // Misbehavior is established with certainty (cryptographic checks +
  // deterministic monitoring), so drastic measures are safe (§4.8):
  // deny all future reservations from the offender.
  const bool newly_denied = denied_sources_.insert(offense.offender).second;
  if (cfg_.events != nullptr && newly_denied) {
    cfg_.events
        ->emit(telemetry::Severity::kError, "cserv", "source.denied")
        .str("as", local_.to_string())
        .str("offender", offense.offender.to_string())
        .u64("res_id", offense.reservation)
        .u64("excess_bytes", offense.excess_bytes);
  }
}

void CServ::tick() {
  const UnixSec now = clock_->now_sec();
  // EERs first (their admission state gives back bandwidth on the SegR
  // records they ride). Sweeps are two-phase: callbacks run on copies
  // outside the shard locks, so release_eer may re-lock the db freely.
  db_.sweep_eers(now, [this](const reservation::EerRecord& rec) {
    eer_admission_.release(db_, rec.key);
    if (wal_ != nullptr) wal_->log_eer_erase(rec.key);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(telemetry::Severity::kInfo, "cserv", "eer.expired")
          .str("as", local_.to_string())
          .str("src_as", rec.key.src_as.to_string())
          .u64("res_id", rec.key.res_id);
    }
  });
  db_.sweep_segrs(now, [this](const reservation::SegrRecord& rec) {
    segr_admission_.release(rec.key);
    if (wal_ != nullptr) wal_->log_segr_erase(rec.key);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(telemetry::Severity::kInfo, "cserv", "segr.expired")
          .str("as", local_.to_string())
          .str("src_as", rec.key.src_as.to_string())
          .u64("res_id", rec.key.res_id);
    }
  });
  registry_.expire(now);
  key_cache_.expire(now);
  rate_limiter_.expire(clock_->now_ns());
}

size_t CServ::restore_from_wal() {
  if (wal_ == nullptr) return 0;
  const size_t applied = wal_->recover(db_);

  // Rebuild the admission ledgers (derived state): every recovered SegR
  // re-registers its active allocation; EER allocations are carried by
  // the recovered eer_allocated_kbps counters, which the recovery
  // re-derives below so EerAdmission's release bookkeeping stays exact.
  for (const auto& rec : db_.segr_snapshot()) {
    admission::SegrAdmissionRequest req;
    req.now = clock_->now_sec();
    req.src_as = rec.key.src_as;
    req.key = rec.key;
    req.ingress = rec.ingress();
    req.egress = rec.egress();
    req.min_bw_kbps = 0;
    req.demand_kbps = rec.active.bw_kbps;
    (void)segr_admission_.admit(req);
    // The per-SegR EER counter is rebuilt from the EER records next, so
    // reset whatever the snapshot carried.
    db_.with_segr(rec.key, [](reservation::SegrRecord* stored) {
      if (stored != nullptr) stored->eer_allocated_kbps = 0;
    });
  }

  const UnixSec now = clock_->now_sec();
  for (const auto& rec : db_.eer_snapshot()) {
    admission::EerAdmission::Request req;
    req.eer_key = rec.key;
    req.demand_kbps = rec.effective_bw(now);
    req.min_bw_kbps = 0;
    for (const ResKey& sk : rec.segrs) {
      if (!db_.contains_segr(sk)) continue;
      if (!req.segr_in) {
        req.segr_in = sk;
      } else if (!req.segr_out) {
        req.segr_out = sk;
      }
    }
    if (req.segr_in && req.demand_kbps > 0) {
      (void)eer_admission_.admit(db_, req, now);
    }
  }
  return applied;
}

CservStats CServ::snapshot() const {
  CservStats s;
  s.seg_requests = metrics_.seg_requests.value();
  s.seg_granted = metrics_.seg_granted.value();
  s.eer_requests = metrics_.eer_requests.value();
  s.eer_granted = metrics_.eer_granted.value();
  s.auth_failures = metrics_.auth_failures.value();
  s.rate_limited = metrics_.rate_limited.value();
  s.policy_denied = metrics_.policy_denied.value();
  return s;
}

void CServ::reset() {
  metrics_.seg_requests.reset();
  metrics_.seg_granted.reset();
  metrics_.eer_requests.reset();
  metrics_.eer_granted.reset();
  metrics_.auth_failures.reset();
  metrics_.rate_limited.reset();
  metrics_.policy_denied.reset();
  metrics_.request_latency_ns.reset();
}

void CServ::collect_metrics(telemetry::MetricSink& sink) const {
  sink.counter("cserv.seg_requests", metrics_.seg_requests.value());
  sink.counter("cserv.seg_granted", metrics_.seg_granted.value());
  sink.counter("cserv.eer_requests", metrics_.eer_requests.value());
  sink.counter("cserv.eer_granted", metrics_.eer_granted.value());
  sink.counter("cserv.deny.auth-failed", metrics_.auth_failures.value());
  sink.counter("cserv.deny.rate-limited", metrics_.rate_limited.value());
  sink.counter("cserv.deny.policy-denied", metrics_.policy_denied.value());
  const auto latency = metrics_.request_latency_ns.snapshot();
  if (latency.count != 0) {
    sink.histogram("cserv.request_latency_ns", latency);
  }
  sink.gauge("cserv.db.shards", static_cast<std::int64_t>(db_.num_shards()));
  sink.gauge("cserv.db.segr_count",
             static_cast<std::int64_t>(db_.segr_count()));
  sink.gauge("cserv.db.eer_count", static_cast<std::int64_t>(db_.eer_count()));
}

std::vector<telemetry::AlertRule> default_cserv_alert_rules(
    std::uint64_t admission_p99_ns, std::uint64_t renewal_backlog) {
  std::vector<telemetry::AlertRule> rules;
  {
    telemetry::AlertRule r;
    r.name = "cserv.admission-p99";
    r.series = "cserv.request_latency_ns";
    r.signal = telemetry::AlertSignal::kPercentile;
    r.quantile = 0.99;
    r.span_ns = 10 * kNsPerSec;
    r.cmp = telemetry::AlertCmp::kAbove;
    r.threshold = static_cast<double>(admission_p99_ns);
    r.for_ns = kNsPerSec;
    r.severity = telemetry::Severity::kWarn;
    rules.push_back(std::move(r));
  }
  {
    telemetry::AlertRule r;
    r.name = "cserv.renewal-backlog";
    r.series = "cserv.renewal.last_batch_max";
    r.signal = telemetry::AlertSignal::kGauge;
    r.cmp = telemetry::AlertCmp::kAbove;
    r.threshold = static_cast<double>(renewal_backlog);
    r.severity = telemetry::Severity::kWarn;
    rules.push_back(std::move(r));
  }
  return rules;
}

}  // namespace colibri::cserv
