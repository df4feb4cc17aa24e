#include "colibri/admission/eer_admission.hpp"

#include <algorithm>

namespace colibri::admission {

BwKbps TransferLedger::evaluate(const ResKey& up, BwKbps up_bw_kbps,
                                const ResKey& core,
                                BwKbps core_eer_capacity_kbps,
                                BwKbps request_kbps) const {
  const double core_cap = static_cast<double>(core_eer_capacity_kbps);
  const double up_cap = static_cast<double>(up_bw_kbps);

  double raw = 0, alloc = 0;
  if (auto it = pairs_.find(PairKey{up, core}); it != pairs_.end()) {
    raw = it->second.raw_demand;
    alloc = it->second.allocated;
  }
  double total = 0;
  if (auto it = cores_.find(core); it != cores_.end()) {
    total = it->second.total_capped;
  }

  // Prospective demand including this request.
  const double old_contrib = std::min(raw, up_cap);
  const double new_contrib =
      std::min(raw + static_cast<double>(request_kbps), up_cap);
  const double prospective_total = total - old_contrib + new_contrib;

  // Uncontended core-SegR: the share rule imposes no extra limit.
  if (prospective_total <= core_cap) return request_kbps;

  // Contended: this up-SegR's fair share of the core-SegR.
  const double share = core_cap * new_contrib / prospective_total;
  const double grantable = share - alloc;
  if (grantable <= 0) return 0;
  return static_cast<BwKbps>(
      std::min(grantable, static_cast<double>(request_kbps)));
}

void TransferLedger::record(const ResKey& up, BwKbps up_bw_kbps,
                            const ResKey& core, BwKbps demand_kbps,
                            BwKbps granted_kbps) {
  PairState& p = pairs_[PairKey{up, core}];
  CoreState& c = cores_[core];
  const double up_cap = static_cast<double>(up_bw_kbps);
  const double old_contrib = std::min(p.raw_demand, up_cap);
  p.raw_demand += static_cast<double>(demand_kbps);
  p.allocated += static_cast<double>(granted_kbps);
  c.total_capped += std::min(p.raw_demand, up_cap) - old_contrib;
}

void TransferLedger::release(const ResKey& up, BwKbps up_bw_kbps,
                             const ResKey& core, BwKbps demand_kbps,
                             BwKbps granted_kbps) {
  auto it = pairs_.find(PairKey{up, core});
  if (it == pairs_.end()) return;
  PairState& p = it->second;
  CoreState& c = cores_[core];
  const double up_cap = static_cast<double>(up_bw_kbps);
  const double old_contrib = std::min(p.raw_demand, up_cap);
  p.raw_demand = std::max(0.0, p.raw_demand - static_cast<double>(demand_kbps));
  p.allocated = std::max(0.0, p.allocated - static_cast<double>(granted_kbps));
  c.total_capped += std::min(p.raw_demand, up_cap) - old_contrib;
  if (c.total_capped < 0) c.total_capped = 0;
}

double TransferLedger::total_capped_demand(const ResKey& core) const {
  auto it = cores_.find(core);
  return it == cores_.end() ? 0 : it->second.total_capped;
}

EerAdmission::EerAdmission(size_t stripes)
    : stripes_(stripes == 0 ? 1 : stripes) {}

void EerAdmission::apply(const Allocation& a, bool add,
                         reservation::SegrRecord* in,
                         reservation::SegrRecord* out) {
  auto adjust = [&](const ResKey& k, BwKbps amount) {
    reservation::SegrRecord* r = nullptr;
    if (in != nullptr && in->key == k) r = in;
    if (out != nullptr && out->key == k) r = out;
    if (r == nullptr) return;
    // Min-guarded so a record re-created after a sweep can never
    // underflow its counter.
    r->eer_allocated_kbps = add ? r->eer_allocated_kbps + amount
                                : r->eer_allocated_kbps -
                                      std::min(amount, r->eer_allocated_kbps);
  };
  adjust(a.in_key, a.in_allocated);
  if (a.has_out) adjust(a.out_key, a.out_allocated);
  if (a.transfer_recorded) {
    std::lock_guard tl(transfer_mu_);
    if (add) {
      transfer_.record(a.up_key, a.up_bw, a.core_key, a.demand, a.granted);
    } else {
      transfer_.release(a.up_key, a.up_bw, a.core_key, a.demand, a.granted);
    }
  }
}

void EerAdmission::replace(reservation::ReservationDb& db,
                           const Allocation& from, const Allocation& to) {
  db.with_segr_pair(
      from.in_key,
      from.has_out ? std::optional<ResKey>(from.out_key) : std::nullopt,
      [&](reservation::SegrRecord* in, reservation::SegrRecord* out) {
        apply(from, /*add=*/false, in, out);
        apply(to, /*add=*/true, in, out);
      });
}

Result<BwKbps> EerAdmission::admit(reservation::ReservationDb& db,
                                   const Request& req, UnixSec now,
                                   Superseded* superseded) {
  (void)now;
  if (!req.segr_in) return Errc::kNoSuchSegment;

  Stripe& st = stripe(req.eer_key);
  std::lock_guard slock(st.mu);

  auto prev = st.allocations.find(req.eer_key);
  // If the previous allocation rides SegRs outside the requested pair
  // (an EER re-admitted over different segments), unwind it up front —
  // the renewal path always re-requests over the record's own SegRs, so
  // this branch is the exception, not the rule.
  if (prev != st.allocations.end()) {
    const Allocation& old = prev->second;
    auto in_pair = [&](const ResKey& k) {
      return k == *req.segr_in || (req.segr_out && k == *req.segr_out);
    };
    if (!in_pair(old.in_key) || (old.has_out && !in_pair(old.out_key))) {
      replace(db, old, Allocation{});
      st.allocations.erase(prev);
      prev = st.allocations.end();
    }
  }

  return db.with_segr_pair(
      *req.segr_in, req.segr_out,
      [&](reservation::SegrRecord* in,
          reservation::SegrRecord* out) -> Result<BwKbps> {
        if (in == nullptr) return Errc::kNoSuchSegment;

        // Renewal semantics: temporarily give back the EER's current
        // allocation so only the *increase* competes for free bandwidth
        // (all versions share one monitored flow; the max version is what
        // counts, §4.2/§4.8). Both records are locked, so the transient
        // state is invisible to concurrent admissions.
        const bool had_prev = prev != st.allocations.end();
        if (had_prev) apply(prev->second, /*add=*/false, in, out);

        // Availability in each adjacent SegR.
        BwKbps grant = std::min(req.demand_kbps, in->eer_available_kbps());
        const bool distinct = out != nullptr && out != in;
        bool up_core = false;
        if (distinct) {
          grant = std::min(grant, out->eer_available_kbps());
          // Transfer split between an up- and a core-SegR (§4.7).
          up_core = in->seg_type == topology::SegType::kUp &&
                    out->seg_type == topology::SegType::kCore;
          if (up_core) {
            std::lock_guard tl(transfer_mu_);
            grant = std::min(
                grant, transfer_.evaluate(in->key, in->active.bw_kbps,
                                          out->key, out->active.bw_kbps,
                                          req.demand_kbps));
          }
        }

        if (grant < req.min_bw_kbps || grant == 0) {
          if (had_prev) apply(prev->second, /*add=*/true, in, out);
          return Errc::kBandwidthUnavailable;
        }

        Allocation alloc{};
        alloc.in_key = in->key;
        alloc.in_allocated = grant;
        if (distinct) {
          alloc.out_key = out->key;
          alloc.has_out = true;
          alloc.out_allocated = grant;
          if (up_core) {
            alloc.transfer_recorded = true;
            alloc.up_key = in->key;
            alloc.core_key = out->key;
            alloc.up_bw = in->active.bw_kbps;
            alloc.demand = req.demand_kbps;
            alloc.granted = grant;
          }
        }
        apply(alloc, /*add=*/true, in, out);
        if (had_prev && superseded != nullptr) {
          superseded->alloc_ = prev->second;
        }
        st.allocations[req.eer_key] = alloc;
        return grant;
      });
}

void EerAdmission::settle(reservation::ReservationDb& db,
                          const ResKey& eer_key,
                          std::optional<BwKbps> final_kbps,
                          const Superseded& superseded) {
  Stripe& st = stripe(eer_key);
  std::lock_guard slock(st.mu);
  auto it = st.allocations.find(eer_key);
  if (it == st.allocations.end()) return;
  Allocation next{};  // refused setup: nothing stays
  if (final_kbps) {
    next = it->second;
    next.in_allocated = std::min(next.in_allocated, *final_kbps);
    next.out_allocated = std::min(next.out_allocated, *final_kbps);
    next.granted = std::min(next.granted, *final_kbps);
  } else if (superseded.alloc_) {
    next = *superseded.alloc_;
  }
  if (next == it->second) return;
  replace(db, it->second, next);
  if (final_kbps || superseded.alloc_) {
    it->second = next;
  } else {
    st.allocations.erase(it);
  }
}

void EerAdmission::release(reservation::ReservationDb& db,
                           const ResKey& eer_key) {
  settle(db, eer_key, std::nullopt, Superseded{});
}

size_t EerAdmission::tracked() const {
  size_t n = 0;
  for (const Stripe& st : stripes_) {
    std::lock_guard lock(st.mu);
    n += st.allocations.size();
  }
  return n;
}

void EerAdmission::for_each_allocation(
    const std::function<void(const AllocationView&)>& fn) const {
  for (const Stripe& st : stripes_) {
    std::lock_guard lock(st.mu);
    for (const auto& [key, a] : st.allocations) {
      fn(AllocationView{key, a.in_key, a.out_key, a.has_out, a.in_allocated,
                        a.out_allocated});
    }
  }
}

}  // namespace colibri::admission
