#include "colibri/reservation/db.hpp"

namespace colibri::reservation {

std::vector<SegrRecord> ReservationDb::segr_snapshot() const {
  std::vector<SegrRecord> out;
  out.reserve(segr_count());
  for_each_segr([&](const SegrRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<EerRecord> ReservationDb::eer_snapshot() const {
  std::vector<EerRecord> out;
  out.reserve(eer_count());
  for_each_eer([&](const EerRecord& rec) { out.push_back(rec); });
  return out;
}

size_t ReservationDb::sweep_segrs(
    UnixSec now, const std::function<void(const SegrRecord&)>& on_remove) {
  size_t removed = 0;
  std::vector<SegrRecord> swept;
  for (auto& s : shards_) {
    {
      std::lock_guard lock(s.mu);
      removed += s.segrs.sweep(
          now, [&](const SegrRecord& rec) { swept.push_back(rec); });
    }
    // Callbacks outside the shard lock: they may release admission state
    // or log to the WAL without holding any db lock.
    if (on_remove) {
      for (const SegrRecord& rec : swept) on_remove(rec);
    }
    swept.clear();
  }
  return removed;
}

size_t ReservationDb::sweep_eers(
    UnixSec now, const std::function<void(const EerRecord&)>& on_remove) {
  size_t removed = 0;
  std::vector<EerRecord> swept;
  for (auto& s : shards_) {
    {
      std::lock_guard lock(s.mu);
      removed += s.eers.sweep(
          now, [&](const EerRecord& rec) { swept.push_back(rec); });
    }
    if (on_remove) {
      for (const EerRecord& rec : swept) on_remove(rec);
    }
    swept.clear();
  }
  return removed;
}

}  // namespace colibri::reservation
