#include "colibri/cserv/ratelimit.hpp"

#include <limits>

namespace colibri::cserv {

bool RequestLimiter::allow(std::uint64_t key, TimeNs now) {
  auto [it, inserted] = state_.try_emplace(key, State{burst_, now});
  State& s = it->second;
  if (!inserted && now > s.last) {
    s.tokens += rate_ * static_cast<double>(now - s.last) / kNsPerSec;
    if (s.tokens > burst_) s.tokens = burst_;
    s.last = now;
  }
  if (s.tokens < 1.0) return false;
  s.tokens -= 1.0;
  return true;
}

void RequestLimiter::expire(TimeNs now, TimeNs idle_ns) {
  for (auto it = state_.begin(); it != state_.end();) {
    const State& s = it->second;
    const TimeNs idle = now - s.last;
    // allow()'s own refill arithmetic: a rounding error can never drop
    // an entry short of the full burst.
    if (idle > idle_ns &&
        s.tokens + rate_ * static_cast<double>(idle) / kNsPerSec >= burst_) {
      it = state_.erase(it);
    } else {
      ++it;
    }
  }
}

TimeNs RequestLimiter::refill_ns() const {
  const double ns = rate_ > 0.0 ? burst_ / rate_ * kNsPerSec : 1e19;
  return ns < 9e18 ? static_cast<TimeNs>(ns)
                   : std::numeric_limits<TimeNs>::max();
}

}  // namespace colibri::cserv
