// Lock-free single-producer / single-consumer ring buffer.
//
// The sharded gateway runtime hands each worker thread its own ring, so
// every ring has exactly one producer (the submitting thread) and one
// consumer (the shard worker) — the setup needs no CAS loops, only one
// release store per side. Head/tail live on separate cache lines and
// each side caches the other's index, so in steady state a push or pop
// touches a single shared line only when its cached view runs out
// (the classic DPDK/folly SPSC layout).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace colibri::dataplane {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two; the ring holds up to
  // capacity() elements.
  explicit SpscRing(std::size_t capacity) {
    std::size_t c = 2;
    while (c < capacity) c <<= 1;
    buf_.resize(c);
    mask_ = c - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return buf_.size(); }

  // Queued elements as the producer sees them: exact up to pops it has
  // not observed yet, so it never under-reports and never exceeds
  // capacity(). Call from the producer thread.
  std::size_t size() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_acquire);
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // --- producer side ----------------------------------------------------
  bool try_push(const T& v) { return push_burst(&v, 1) == 1; }

  // Enqueues up to n items; returns how many fit.
  std::size_t push_burst(const T* items, std::size_t n) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free_slots = buf_.size() - (tail - head_cache_);
    if (free_slots < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free_slots = buf_.size() - (tail - head_cache_);
    }
    const std::size_t m = n < free_slots ? n : free_slots;
    for (std::size_t i = 0; i < m; ++i) buf_[(tail + i) & mask_] = items[i];
    tail_.store(tail + m, std::memory_order_release);
    return m;
  }

  // --- consumer side ----------------------------------------------------
  bool try_pop(T& out) { return pop_burst(&out, 1) == 1; }

  // Dequeues up to max items; returns how many were available.
  std::size_t pop_burst(T* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = tail_cache_ - head;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t m = max < avail ? max : avail;
    for (std::size_t i = 0; i < m; ++i) out[i] = buf_[(head + i) & mask_];
    head_.store(head + m, std::memory_order_release);
    return m;
  }

 private:
  std::vector<T> buf_;
  std::size_t mask_ = 0;
  // Indices are free-running (monotonically increasing, masked on use),
  // so full vs. empty needs no spare slot.
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(64) std::size_t tail_cache_ = 0;        // consumer's view of tail
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  alignas(64) std::size_t head_cache_ = 0;        // producer's view of head
};

}  // namespace colibri::dataplane
