// End-to-end-reservation admission (paper §4.7, Fig. 4).
//
// Transit ASes: grant iff the underlying SegR has enough unallocated EER
// bandwidth — a constant-time counter check (that is Fig. 4's flat line).
// Transfer ASes additionally split the core-SegR bandwidth proportionally
// among the up-SegRs competing for it, using per-core-SegR aggregates
// (again O(1) per decision). Source/destination ASes apply a local policy
// on top (per-host caps, §4.7 "intra-AS admission policy").
//
// Concurrency: requests name their adjacent SegRs by *key*, never by
// pointer — the admission resolves and mutates the records under the
// ReservationDb's shard locks, so a SegR swept mid-flight is simply seen
// as absent instead of becoming a dangling pointer. Allocation
// bookkeeping is striped by a splitmix64 hash of the EER's ResId (the
// same routing as the db shards); the transfer ledger couples up- and
// core-SegRs across stripes and stays behind a single mutex. Lock order:
// stripe mutex -> db shard locks (ascending) -> transfer mutex.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "colibri/admission/tube.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/reservation/db.hpp"

namespace colibri::admission {

// Proportional splitter at a transfer AS: for each core-SegR, tracks the
// EER demand arriving through each feeding up-SegR (capped at that
// up-SegR's bandwidth) and the bandwidth already allocated per pair.
class TransferLedger {
 public:
  // Registers/updates the demand a request adds on (up, core); returns the
  // bandwidth the proportional-share rule allows to grant now. O(1).
  BwKbps evaluate(const ResKey& up, BwKbps up_bw_kbps, const ResKey& core,
                  BwKbps core_eer_capacity_kbps, BwKbps request_kbps) const;

  void record(const ResKey& up, BwKbps up_bw_kbps, const ResKey& core,
              BwKbps demand_kbps, BwKbps granted_kbps);
  void release(const ResKey& up, BwKbps up_bw_kbps, const ResKey& core,
               BwKbps demand_kbps, BwKbps granted_kbps);

  double total_capped_demand(const ResKey& core) const;

 private:
  struct PairKey {
    ResKey up;
    ResKey core;
    friend bool operator==(const PairKey&, const PairKey&) = default;
  };
  struct PairHash {
    size_t operator()(const PairKey& k) const noexcept {
      return std::hash<ResKey>{}(k.up) * 31 ^ std::hash<ResKey>{}(k.core);
    }
  };
  struct PairState {
    double raw_demand = 0;  // uncapped Σ of EER requests through this pair
    double allocated = 0;
  };
  struct CoreState {
    double total_capped = 0;  // Σ_up min(raw_demand(up), up_bw)
  };

  std::unordered_map<PairKey, PairState, PairHash> pairs_;
  std::unordered_map<ResKey, CoreState> cores_;
};

// Full per-AS EER admission: checks every adjacent SegR and maintains the
// per-SegR allocation counters. The caller (CServ) passes the keys of the
// SegR records the request rides at this AS (one for transit, two for a
// transfer AS); the records themselves are resolved against the passed
// ReservationDb under its shard locks.
class EerAdmission {
  // One EER's bookkeeping at this AS.
  struct Allocation {
    ResKey in_key;
    ResKey out_key;
    bool has_out = false;
    BwKbps in_allocated = 0;
    BwKbps out_allocated = 0;
    // Transfer-ledger contribution (only when in & out are distinct).
    bool transfer_recorded = false;
    ResKey up_key, core_key;
    BwKbps up_bw = 0;
    BwKbps demand = 0;
    BwKbps granted = 0;
    friend bool operator==(const Allocation&, const Allocation&) = default;
  };

 public:
  // `stripes` partitions the allocation bookkeeping for concurrent
  // admits; 1 stripe degenerates to the single-lock behavior.
  explicit EerAdmission(size_t stripes = 1);

  EerAdmission(const EerAdmission&) = delete;
  EerAdmission& operator=(const EerAdmission&) = delete;

  struct Request {
    ResKey eer_key;
    BwKbps demand_kbps = 0;
    BwKbps min_bw_kbps = 0;
    // Adjacent SegRs at this AS in traversal order (1 or 2 entries).
    std::optional<ResKey> segr_in;
    std::optional<ResKey> segr_out;
  };

  // The allocation a renewal's admit() replaced. The on-path handler
  // holds it across the forward pass (one synchronous call chain) and
  // hands it back to settle(); it stays empty for a setup.
  class Superseded {
   private:
    friend class EerAdmission;
    std::optional<Allocation> alloc_;
  };

  // Grants min over the adjacent SegRs' available bandwidth (and the
  // transfer share when two SegRs meet), records the allocation on each
  // SegR counter. A second admit for the same EER key adjusts the
  // existing allocation (renewal) and, with `superseded` set, keeps the
  // allocation it replaced there.
  Result<BwKbps> admit(reservation::ReservationDb& db, const Request& req,
                       UnixSec now, Superseded* superseded = nullptr);

  // Backward pass of an admitted request (§3.3), O(1). Granted
  // (`final_kbps` set): the allocation, its SegR counters and its
  // transfer share shrink to the end-to-end bandwidth. Refused: a
  // renewal reinstates the allocation it superseded; anything else is
  // released.
  void settle(reservation::ReservationDb& db, const ResKey& eer_key,
              std::optional<BwKbps> final_kbps,
              const Superseded& superseded);

  // Releases an EER's allocation (expiry or teardown). A SegR already
  // swept from the db is skipped — its counters died with it.
  void release(reservation::ReservationDb& db, const ResKey& eer_key);

  size_t stripes() const { return stripes_.size(); }
  // Read-side introspection; callers must be quiesced (tests/diagnostics).
  const TransferLedger& transfer_ledger() const { return transfer_; }
  size_t tracked() const;

  // Copy-out view of one tracked allocation, for cross-checking the
  // stripe bookkeeping against the ReservationDb (audit.hpp).
  struct AllocationView {
    ResKey eer_key;
    ResKey in_key;
    ResKey out_key;
    bool has_out = false;
    BwKbps in_allocated = 0;
    BwKbps out_allocated = 0;
  };
  // Visits every allocation stripe by stripe under that stripe's mutex;
  // `fn` must not re-enter the admission or touch the db.
  void for_each_allocation(
      const std::function<void(const AllocationView&)>& fn) const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<ResKey, Allocation> allocations;
  };

  Stripe& stripe(const ResKey& eer_key) {
    return stripes_[reservation::ReservationDb::shard_of(eer_key.res_id,
                                                         stripes_.size())];
  }

  // Adds (or takes back) `a` on the SegR counters among the locked
  // records `in`/`out` and on the transfer ledger.
  void apply(const Allocation& a, bool add, reservation::SegrRecord* in,
             reservation::SegrRecord* out);
  // Swaps `from` for `to` (whose SegRs are among `from`'s; an empty `to`
  // unwinds) under one pair lock, without touching the stripe map;
  // caller holds the owning stripe's mutex.
  void replace(reservation::ReservationDb& db, const Allocation& from,
               const Allocation& to);

  TransferLedger transfer_;
  mutable std::mutex transfer_mu_;
  std::vector<Stripe> stripes_;
};

}  // namespace colibri::admission
