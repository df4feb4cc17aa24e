// Fixed-capacity packet batch for the staged forwarding pipeline.
//
// The router and gateway pipelines (BorderRouter::process_batch,
// Gateway::process_batch; their single-packet process() is a batch of
// one) run each *stage* across the whole batch — header sanity,
// software prefetch of restable/dupsup state, multi-lane HVF crypto —
// before a sequential per-packet finalize. A PacketBatch is the unit
// the router pipeline operates on: a flat array of FastPacket slots, no
// allocation, capacity sized so the per-batch crypto scratch (one AES
// schedule and MAC lane per packet) stays comfortably on the stack.
#pragma once

#include <array>
#include <cstddef>

#include "colibri/common/bytes.hpp"
#include "colibri/dataplane/fastpacket.hpp"

namespace colibri::dataplane {

struct PacketBatch {
  static constexpr std::size_t kCapacity = 64;

  std::array<FastPacket, kCapacity> pkts;
  std::size_t size = 0;

  bool empty() const { return size == 0; }
  bool full() const { return size == kCapacity; }
  void clear() { size = 0; }

  // Appends a copy; returns false when full.
  bool push(const FastPacket& p) {
    if (full()) return false;
    pkts[size++] = p;
    return true;
  }

  // Claims the next slot for in-place filling (caller must not be full).
  FastPacket& push_slot() { return pkts[size++]; }

  FastPacket& operator[](std::size_t i) { return pkts[i]; }
  const FastPacket& operator[](std::size_t i) const { return pkts[i]; }
};

// Decodes one wire frame and appends it to the batch. Returns false —
// leaving the batch unchanged — if the frame does not parse, the batch
// is full, or the packet's hop count exceeds the FastPacket fixed
// capacity (such packets cannot round-trip through FastPacket and the
// router would reject them as malformed anyway).
bool batch_ingest(BytesView frame, PacketBatch& batch);

}  // namespace colibri::dataplane
