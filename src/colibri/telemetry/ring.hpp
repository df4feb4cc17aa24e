// Fixed-capacity capture ring: the one bounded buffer behind the packet
// flight recorder and the profiler's span capture. Storage is allocated
// once, its capacity rounded up to a power of two, so a commit is one
// masked store over the oldest entry: no allocation, no division. The
// commit count is monotonic across wrap-around; readers copy the live
// entries oldest first. Single-writer, like the components owning one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace colibri::telemetry {

template <class T>
class CaptureRing {
 public:
  // 0 = no storage: the owner must not push().
  explicit CaptureRing(std::size_t capacity = 0)
      : slots_(capacity == 0 ? 0 : std::bit_ceil(capacity)) {}

  // Stores `v` over the oldest entry; returns the stored slot.
  T& push(const T& v) { return slots_[committed_++ & (capacity() - 1)] = v; }
  void clear() { committed_ = 0; }

  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t committed() const { return committed_; }
  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(committed_, capacity()));
  }
  std::uint64_t overwritten() const { return committed_ - size(); }

  // Oldest-first copy of the live entries.
  std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(size());
    for (std::uint64_t i = committed_ - size(); i < committed_; ++i) {
      out.push_back(slots_[i & (capacity() - 1)]);
    }
    return out;
  }

 private:
  std::vector<T> slots_;
  std::uint64_t committed_ = 0;
};

}  // namespace colibri::telemetry
