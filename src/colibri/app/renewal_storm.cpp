#include "colibri/app/renewal_storm.hpp"

#include <algorithm>
#include <thread>

namespace colibri::app {

RenewalStorm::RenewalStorm(RenewalStormConfig cfg)
    : cfg_(cfg),
      owner_(AsId::from_raw(1)),
      db_(owner_, cfg_.shards),
      admission_(cfg_.shards) {}

std::vector<topology::Hop> RenewalStorm::eer_path() const {
  std::vector<topology::Hop> path;
  path.reserve(std::max<size_t>(1, cfg_.path_hops));
  path.push_back({owner_, kNoInterface, kNoInterface});
  for (size_t h = 1; h < cfg_.path_hops; ++h) {
    path.push_back(
        {AsId::from_raw(0x1000 + static_cast<std::uint64_t>(h)),
         kNoInterface, kNoInterface});
  }
  return path;
}

void RenewalStorm::populate() {
  const topology::Hop hop{owner_, kNoInterface, kNoInterface};
  segr_keys_.reserve(cfg_.num_segrs);
  for (size_t i = 0; i < cfg_.num_segrs; ++i) {
    reservation::SegrRecord rec;
    rec.key = ResKey{owner_, db_.next_res_id()};
    rec.seg_type = topology::SegType::kUp;
    rec.hops = {hop};
    rec.local_hop = 0;
    rec.active.version = 0;
    rec.active.bw_kbps = cfg_.segr_bw_kbps;
    rec.active.exp_time = cfg_.setup_time + reservation::kSegrLifetimeSec;
    segr_keys_.push_back(rec.key);
    db_.upsert_segr(std::move(rec));
  }

  const std::vector<topology::Hop> path = eer_path();
  eer_keys_.reserve(cfg_.num_eers);
  for (size_t i = 0; i < cfg_.num_eers; ++i) {
    const ResKey eer_key{owner_, db_.next_res_id()};
    const ResKey segr_key = segr_keys_[i % segr_keys_.size()];
    admission::EerAdmission::Request req;
    req.eer_key = eer_key;
    req.demand_kbps = cfg_.eer_bw_kbps;
    req.min_bw_kbps = 0;
    req.segr_in = segr_key;
    auto granted = admission_.admit(db_, req, cfg_.setup_time);
    if (!granted) continue;

    reservation::EerRecord rec;
    rec.key = eer_key;
    rec.src_host = HostAddr::from_u64(0x50 + i);
    rec.dst_host = HostAddr::from_u64(0xd0 + i);
    rec.path = path;
    rec.local_hop = 0;
    rec.segrs = {segr_key};
    reservation::EerVersion ver;
    ver.version = 0;
    ver.bw_kbps = granted.value();
    ver.exp_time = storm_expiry();  // the whole fleet comes due together
    rec.versions.push_back(ver);
    eer_keys_.push_back(eer_key);
    db_.upsert_eer(std::move(rec));
  }
}

bool RenewalStorm::renew_direct(const ResKey& eer_key, UnixSec now) {
  ResKey segr_key;
  const bool found =
      db_.with_eer(eer_key, [&](reservation::EerRecord* rec) {
        if (rec == nullptr || rec->segrs.empty()) return false;
        segr_key = rec->segrs.front();
        return true;
      });
  if (!found) return false;

  admission::EerAdmission::Request req;
  req.eer_key = eer_key;
  req.demand_kbps = cfg_.eer_bw_kbps;
  req.min_bw_kbps = 0;
  req.segr_in = segr_key;
  auto granted = admission_.admit(db_, req, now);
  if (!granted) return false;

  db_.with_eer(eer_key, [&](reservation::EerRecord* rec) {
    if (rec == nullptr) return;
    rec->prune(now);
    ResVer next = 0;
    for (const auto& v : rec->versions) next = std::max(next, v.version);
    reservation::EerVersion ver;
    ver.version = static_cast<ResVer>(next + 1);
    ver.bw_kbps = granted.value();
    ver.exp_time = now + cfg_.renew_lifetime_sec;
    rec->versions.push_back(ver);
  });
  return true;
}

RenewalStormStats RenewalStorm::drain_shard_range(UnixSec now,
                                                  size_t thread_idx) {
  RenewalStormStats st;
  const size_t stride = std::max<size_t>(1, cfg_.threads);
  for (size_t s = thread_idx; s < db_.num_shards(); s += stride) {
    const std::vector<ResKey> keys = db_.eer_keys_of_shard(s);
    if (keys.empty()) continue;
    ++st.batches;
    st.max_batch = std::max<std::uint64_t>(st.max_batch, keys.size());
    for (const ResKey& key : keys) {
      if (renew_direct(key, now)) {
        ++st.renewed;
      } else {
        ++st.failed;
      }
    }
  }
  return st;
}

RenewalStormStats RenewalStorm::drain_batched(UnixSec now) {
  if (cfg_.threads <= 1) return drain_shard_range(now, 0);
  std::vector<RenewalStormStats> per_thread(cfg_.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg_.threads);
  for (size_t t = 0; t < cfg_.threads; ++t) {
    workers.emplace_back(
        [this, now, t, &per_thread] { per_thread[t] = drain_shard_range(now, t); });
  }
  for (auto& w : workers) w.join();
  RenewalStormStats st;
  for (const RenewalStormStats& p : per_thread) {
    st.renewed += p.renewed;
    st.failed += p.failed;
    st.batches += p.batches;
    st.max_batch = std::max(st.max_batch, p.max_batch);
  }
  return st;
}

}  // namespace colibri::app
