// Control-plane rate limiting (paper §4.2, §5.3).
//
// Two limiters guard the CServ against DoC-style resource exhaustion:
// a per-source-AS request limiter ("the CServ can very efficiently filter
// unauthentic packets and employ per-AS rate limiting") and a
// per-reservation renewal limiter ("CServs can rate-limit the amount of
// renewal requests for an EER, e.g., to one per second").
#pragma once

#include <unordered_map>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"

namespace colibri::cserv {

// Sliding-refill counter: allows `rate_per_sec` events per second with a
// burst of `burst`.
class RequestLimiter {
 public:
  RequestLimiter(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst) {}

  bool allow(std::uint64_t key, TimeNs now);

  size_t tracked() const { return state_.size(); }
  // Drops entries idle for more than `idle_ns` whose budget has refilled
  // to the full burst. Such an entry is indistinguishable from the fresh
  // one allow() would create, so dropping it changes no verdict.
  void expire(TimeNs now, TimeNs idle_ns);
  // Idle time after which any entry has refilled: burst / rate
  // (saturating; a zero rate never refills).
  TimeNs refill_ns() const;

 private:
  struct State {
    double tokens;
    TimeNs last;
  };
  double rate_;
  double burst_;
  std::unordered_map<std::uint64_t, State> state_;
};

struct RateLimitConfig {
  double per_as_requests_per_sec = 100.0;
  double per_as_burst = 200.0;
  double renewals_per_reservation_per_sec = 1.0;
  double renewal_burst = 2.0;
};

class ControlRateLimiter {
 public:
  explicit ControlRateLimiter(const RateLimitConfig& cfg = {})
      : cfg_(cfg),
        per_as_(cfg.per_as_requests_per_sec, cfg.per_as_burst),
        per_res_(cfg.renewals_per_reservation_per_sec, cfg.renewal_burst) {}

  bool allow_request(AsId src, TimeNs now) {
    return per_as_.allow(src.raw(), now);
  }
  bool allow_renewal(const ResKey& key, TimeNs now) {
    return per_res_.allow(key.src_as.raw() ^
                              (static_cast<std::uint64_t>(key.res_id) << 32),
                          now);
  }

  // Forgets sources and reservations idle for longer than their budget
  // takes to refill; CServ::tick calls this so both maps stay bounded by
  // the recently active keys.
  void expire(TimeNs now) {
    per_as_.expire(now, per_as_.refill_ns());
    per_res_.expire(now, per_res_.refill_ns());
  }
  size_t tracked() const { return per_as_.tracked() + per_res_.tracked(); }

  const RateLimitConfig& config() const { return cfg_; }

 private:
  RateLimitConfig cfg_;
  RequestLimiter per_as_;
  RequestLimiter per_res_;
};

}  // namespace colibri::cserv
