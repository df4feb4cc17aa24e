// Renewal-storm scenario (paper §3.2 + §9 management scalability).
//
// SegRs set up together expire together: an AS that established its
// segment infrastructure in one batch sees hundreds of thousands of EER
// renewals come due in the same 16-second window. This harness builds
// that workload against the sharded ReservationDb and drains it in
// per-shard, ResId-ordered batches straight into the admission ledger —
// the RenewalManager drain shape, amortizing all per-item envelope work
// across the batch. The full per-renewal cost through the real bus
// (codecs, MACs, WAL, seals) is what BM_EerRenewal measures.
//
// bench_scale_controlplane sweeps the drain over shard count x
// reservation count; the stress tests drive it from multiple threads.
#pragma once

#include <cstdint>
#include <vector>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/reservation/db.hpp"

namespace colibri::app {

struct RenewalStormConfig {
  size_t num_eers = 100'000;
  size_t num_segrs = 64;
  size_t shards = 8;
  // drain_batched parallelism: threads > 1 split the shards round-robin.
  size_t threads = 1;
  // On-path ASes per EER (hop 0 is the owner), as BM_EerRenewal's chain
  // (up + core + down across two ISDs).
  size_t path_hops = 4;
  BwKbps segr_bw_kbps = 40'000'000;
  BwKbps eer_bw_kbps = 100;
  // Every EER version minted by populate() expires at exactly this
  // instant — the correlated storm.
  UnixSec setup_time = 1'000;
  std::uint32_t renew_lifetime_sec = reservation::kEerLifetimeSec;
};

struct RenewalStormStats {
  std::uint64_t renewed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
};

class RenewalStorm {
 public:
  explicit RenewalStorm(RenewalStormConfig cfg = {});

  RenewalStorm(const RenewalStorm&) = delete;
  RenewalStorm& operator=(const RenewalStorm&) = delete;

  reservation::ReservationDb& db() { return db_; }
  admission::EerAdmission& admission() { return admission_; }
  const RenewalStormConfig& config() const { return cfg_; }
  UnixSec storm_expiry() const { return cfg_.setup_time + cfg_.renew_lifetime_sec; }

  // Builds the SegRs and admits every EER, all with the same expiry.
  void populate();

  // Renews every live EER once, shard batch by shard batch.
  RenewalStormStats drain_batched(UnixSec now);

 private:
  // The synthetic multi-AS path every EER traverses (hop 0 = owner).
  std::vector<topology::Hop> eer_path() const;
  // Renews one EER directly against the admission ledger.
  bool renew_direct(const ResKey& eer_key, UnixSec now);
  RenewalStormStats drain_shard_range(UnixSec now, size_t thread_idx);

  RenewalStormConfig cfg_;
  AsId owner_;
  reservation::ReservationDb db_;
  admission::EerAdmission admission_;
  std::vector<ResKey> segr_keys_;
  std::vector<ResKey> eer_keys_;
};

}  // namespace colibri::app
