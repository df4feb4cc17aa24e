// Sharded gateway (paper §7.2).
//
// The paper scales the stateful gateway across cores by running
// "multiple gateways, each handling only a fraction of all
// reservations". ShardedGateway is that fraction-routing layer: N
// independent Gateway shards, packets routed by a stable hash of the
// reservation ID, so shards share no reservation state, no token
// buckets, and no counters — each shard's fast path stays exactly the
// single-gateway fast path. ShardedGatewayRuntime adds the threading:
// one worker and one SPSC ring per shard, replacing the bench-local
// mutexed shard map the fig. 6 benchmark used to carry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/spscring.hpp"
#include "colibri/telemetry/alerts.hpp"

namespace colibri::dataplane {

class ShardedGateway : public telemetry::MetricsSource {
 public:
  using Verdict = Gateway::Verdict;

  // Creates `num_shards` gateways (at least 1). The shards register
  // nowhere themselves; this container registers with `registry` and
  // re-exports each shard under "gateway_shard.<i>.*".
  ShardedGateway(AsId local_as, const Clock& clock, size_t num_shards,
                 const GatewayConfig& cfg = {},
                 telemetry::MetricsRegistry* registry =
                     &telemetry::MetricsRegistry::global());
  ~ShardedGateway() override = default;

  ShardedGateway(const ShardedGateway&) = delete;
  ShardedGateway& operator=(const ShardedGateway&) = delete;

  // Stable shard routing: depends only on (id, num_shards) — never on
  // table occupancy or insertion history — so a control plane can
  // recompute placements offline and resize() can re-route
  // deterministically.
  static size_t shard_of(ResId id, size_t num_shards) {
    return static_cast<size_t>(mix(id) % num_shards);
  }
  size_t shard_of(ResId id) const { return shard_of(id, shards_.size()); }

  size_t shard_count() const { return shards_.size(); }
  Gateway& shard(size_t i) { return *shards_[i]; }
  const Gateway& shard(size_t i) const { return *shards_[i]; }

  // --- control side -----------------------------------------------------
  bool install(const proto::ResInfo& resinfo, const proto::EerInfo& eerinfo,
               const std::vector<topology::Hop>& path,
               const std::vector<HopAuth>& sigmas);
  bool remove(ResId id);
  size_t reservation_count() const;

  // Re-shards to `new_count` gateways. Live entries move between shards
  // as raw GatewayEntry state, preserving token-bucket fill levels.
  // Shard verdict counters restart from zero (the aggregate history
  // belongs to the snapshot taken before resizing). Not thread-safe
  // against concurrent processing.
  void resize(size_t new_count);

  // --- fast path ---------------------------------------------------------
  Verdict process(ResId id, std::uint32_t payload_bytes, FastPacket& out);
  // Demultiplexes the batch by shard and runs each shard's staged batch
  // pipeline; verdicts/outputs land at the caller's original indices.
  size_t process_batch(const ResId* ids, const std::uint32_t* payload_bytes,
                       size_t n, FastPacket* out, Verdict* verdicts);

  // Aggregate across shards.
  GatewayStats snapshot() const;
  void reset();

  void collect_metrics(telemetry::MetricSink& sink) const override;

  AsId local_as() const { return local_as_; }

 private:
  // Same splitmix64 finalizer the reservation table uses; kept separate
  // so shard routing is pinned independently of table internals.
  static std::uint64_t mix(ResId id) {
    std::uint64_t h = id;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
  }

  AsId local_as_;
  const Clock* clock_;
  GatewayConfig cfg_;
  std::vector<std::unique_ptr<Gateway>> shards_;
  telemetry::ScopedSource registration_;
};

// One host request to the gateway: everything the fast path needs.
struct ShardRequest {
  ResId id = 0;
  std::uint32_t payload_bytes = 0;
};

// Multi-worker execution harness around a ShardedGateway: one thread
// and one SPSC request ring per shard. A single producer thread routes
// requests onto the rings (submit/submit_burst must not be called
// concurrently); each worker drains its ring in batches through its
// shard's process_batch. Output packets are consumed into worker-local
// scratch — the runtime is a throughput engine; verdict accounting
// lives in the per-shard gateway counters plus the worker stats here.
//
// Health surface: every shard continuously publishes its ring depth
// (submitted - processed, so a worker's in-flight burst included), the
// most requests the ring itself has ever held (high_watermark, at most
// its capacity), how many submissions bounced off a full ring
// (rejected), and a worker heartbeat that advances every loop
// iteration — idle spins included — so a monitor can tell "queue is
// deep but draining" from "worker is stuck". All of it is exported as
// "gateway_runtime.shard.<i>.*" when a registry is passed, and
// check_stalls() turns the heartbeats into a yes/no stall verdict.
class ShardedGatewayRuntime : public telemetry::MetricsSource {
 public:
  struct WorkerStats {
    std::uint64_t processed = 0;  // requests popped and classified
    std::uint64_t batches = 0;    // process_batch invocations
    std::uint64_t ok = 0;         // Verdict::kOk results
  };

  // Point-in-time health view of one shard (see shard_health()).
  struct ShardHealth {
    std::uint64_t submitted = 0;
    std::uint64_t processed = 0;
    std::uint64_t batches = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;        // submissions refused: ring full
    std::uint64_t heartbeats = 0;      // worker loop iterations
    std::uint64_t ring_depth = 0;      // submitted - processed
    std::uint64_t high_watermark = 0;  // max ring occupancy at a submit
  };

  // The runtime registers with `registry` (nullptr = none, the default
  // — benchmarks construct throwaway runtimes) and exports the health
  // gauges/counters under "gateway_runtime.*".
  explicit ShardedGatewayRuntime(ShardedGateway& gateway,
                                 size_t ring_capacity = 4096,
                                 telemetry::MetricsRegistry* registry = nullptr);
  ~ShardedGatewayRuntime() override;

  ShardedGatewayRuntime(const ShardedGatewayRuntime&) = delete;
  ShardedGatewayRuntime& operator=(const ShardedGatewayRuntime&) = delete;

  void start();
  // Waits for the rings to drain, then joins the workers. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Single-producer submission; false when the target ring is full
  // (caller may retry — the worker is draining it).
  bool submit(ResId id, std::uint32_t payload_bytes);
  // Enqueues up to n requests; returns how many were accepted.
  size_t submit_burst(const ShardRequest* reqs, size_t n);

  // True once every accepted request has been processed. Call from the
  // producer thread.
  bool idle() const;
  // Spins (yielding) until idle.
  void drain() const;

  size_t shard_count() const { return shards_.size(); }
  WorkerStats worker_stats(size_t shard) const;
  ShardHealth shard_health(size_t shard) const;

  // Stall detector: returns the indices of shards that have queued work
  // (ring_depth > 0) but whose worker heartbeat has not advanced since
  // the previous check_stalls() call. Call it from one monitoring
  // thread at whatever cadence defines "stalled" (two calls bracket the
  // observation window); the first call only baselines and returns
  // nothing for shards it has not observed before.
  //
  // The declarative monitoring plane subsumes this: the
  // default_alert_rules() pack expresses the same verdict as a
  // windowed heartbeat-rate rule guarded by ring depth, with debounce
  // and a firing/resolved audit trail. check_stalls() remains for
  // callers without a sampler loop.
  std::vector<size_t> check_stalls();

  // Default monitoring rule pack (see telemetry/alerts.hpp), two rules
  // per shard over the "gateway_runtime.shard.<i>.*" series this
  // runtime exports:
  //  * "runtime.shard<i>.stall" (error): the worker heartbeat rate
  //    drops below one beat per second while the shard's ring still
  //    holds work — the declarative form of check_stalls(), debounced
  //    by `stall_for_ns` so one slow scheduling quantum does not page.
  //  * "runtime.shard<i>.ring-depth" (warn): the ring depth stays
  //    above `ring_depth_threshold`, i.e. the producer is outrunning
  //    the worker and backpressure rejections are close.
  // The pack needs the registry the runtime registered with to be the
  // one the WindowedSampler samples.
  static std::vector<telemetry::AlertRule> default_alert_rules(
      size_t shard_count, std::uint64_t ring_depth_threshold,
      TimeNs stall_for_ns = kNsPerSec);

  // Health gauges/counters, "gateway_runtime.shard.<i>.*" plus the
  // "gateway_runtime.shard.count" gauge. Safe concurrently with the
  // producer and the workers (atomics only).
  void collect_metrics(telemetry::MetricSink& sink) const override;

 private:
  struct PerShard {
    explicit PerShard(size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<ShardRequest> ring;
    // Producer-side writes, monitor-side reads.
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> high_watermark{0};
    // Worker-side writes.
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> heartbeats{0};
    std::thread thread;
  };

  void worker_loop(size_t shard_index);

  ShardedGateway* gateway_;
  std::vector<std::unique_ptr<PerShard>> shards_;
  std::atomic<bool> running_{false};
  // check_stalls() baseline: heartbeat seen last call, one per shard.
  std::vector<std::uint64_t> stall_baseline_;
  std::vector<bool> stall_baselined_;
  telemetry::ScopedSource registration_;
};

}  // namespace colibri::dataplane
