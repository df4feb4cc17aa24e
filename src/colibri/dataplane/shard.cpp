#include "colibri/dataplane/shard.hpp"

#include <string>

namespace colibri::dataplane {

ShardedGateway::ShardedGateway(AsId local_as, const Clock& clock,
                               size_t num_shards, const GatewayConfig& cfg,
                               telemetry::MetricsRegistry* registry)
    : local_as_(local_as),
      clock_(&clock),
      cfg_(cfg),
      registration_(registry, this) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Gateway>(local_as_, *clock_, cfg_,
                                                /*registry=*/nullptr));
  }
}

bool ShardedGateway::install(const proto::ResInfo& resinfo,
                             const proto::EerInfo& eerinfo,
                             const std::vector<topology::Hop>& path,
                             const std::vector<HopAuth>& sigmas) {
  return shards_[shard_of(resinfo.res_id)]->install(resinfo, eerinfo, path,
                                                    sigmas);
}

bool ShardedGateway::remove(ResId id) {
  return shards_[shard_of(id)]->remove(id);
}

size_t ShardedGateway::reservation_count() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->reservation_count();
  return total;
}

void ShardedGateway::resize(size_t new_count) {
  if (new_count == 0) new_count = 1;
  std::vector<std::pair<ResId, GatewayEntry>> entries;
  entries.reserve(reservation_count());
  for (const auto& s : shards_) {
    s->for_each_entry([&](ResId id, const GatewayEntry& e) {
      entries.emplace_back(id, e);
    });
  }
  std::vector<std::unique_ptr<Gateway>> next;
  next.reserve(new_count);
  for (size_t i = 0; i < new_count; ++i) {
    next.push_back(std::make_unique<Gateway>(local_as_, *clock_, cfg_,
                                             /*registry=*/nullptr));
  }
  shards_ = std::move(next);
  for (auto& [id, e] : entries) {
    shards_[shard_of(id)]->install_entry(id, std::move(e));
  }
}

ShardedGateway::Verdict ShardedGateway::process(ResId id,
                                                std::uint32_t payload_bytes,
                                                FastPacket& out) {
  return shards_[shard_of(id)]->process(id, payload_bytes, out);
}

size_t ShardedGateway::process_batch(const ResId* ids,
                                     const std::uint32_t* payload_bytes,
                                     size_t n, FastPacket* out,
                                     Verdict* verdicts) {
  // Demux in chunks so the per-shard compaction scratch stays bounded.
  constexpr size_t kChunk = 64;
  size_t ok = 0;
  for (size_t done = 0; done < n; done += kChunk) {
    const size_t m = (n - done < kChunk) ? n - done : kChunk;
    const ResId* cids = ids + done;
    const std::uint32_t* cpl = payload_bytes + done;
    std::uint8_t shard_idx[kChunk];
    for (size_t i = 0; i < m; ++i) {
      shard_idx[i] = static_cast<std::uint8_t>(shard_of(cids[i]));
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      ResId sub_ids[kChunk];
      std::uint32_t sub_pl[kChunk];
      std::uint8_t slot[kChunk];
      size_t k = 0;
      for (size_t i = 0; i < m; ++i) {
        if (shard_idx[i] == s) {
          sub_ids[k] = cids[i];
          sub_pl[k] = cpl[i];
          slot[k] = static_cast<std::uint8_t>(i);
          ++k;
        }
      }
      if (k == 0) continue;
      FastPacket sub_out[kChunk];
      Verdict sub_v[kChunk];
      ok += shards_[s]->process_batch(sub_ids, sub_pl, k, sub_out, sub_v);
      for (size_t j = 0; j < k; ++j) {
        verdicts[done + slot[j]] = sub_v[j];
        if (sub_v[j] == Verdict::kOk) out[done + slot[j]] = sub_out[j];
      }
    }
  }
  return ok;
}

GatewayStats ShardedGateway::snapshot() const {
  GatewayStats total;
  for (const auto& s : shards_) {
    const GatewayStats g = s->snapshot();
    total.forwarded += g.forwarded;
    total.no_reservation += g.no_reservation;
    total.rate_limited += g.rate_limited;
    total.expired += g.expired;
  }
  return total;
}

void ShardedGateway::reset() {
  for (auto& s : shards_) s->reset();
}

void ShardedGateway::collect_metrics(telemetry::MetricSink& sink) const {
  sink.gauge("gateway_shard.count", static_cast<std::int64_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    telemetry::PrefixedSink prefixed(
        "gateway_shard." + std::to_string(i) + ".", sink);
    shards_[i]->collect_metrics_bare(prefixed);
  }
}

ShardedGatewayRuntime::ShardedGatewayRuntime(
    ShardedGateway& gateway, size_t ring_capacity,
    telemetry::MetricsRegistry* registry)
    : gateway_(&gateway),
      stall_baseline_(gateway.shard_count(), 0),
      stall_baselined_(gateway.shard_count(), false),
      registration_(registry, this) {
  shards_.reserve(gateway.shard_count());
  for (size_t i = 0; i < gateway.shard_count(); ++i) {
    shards_.push_back(std::make_unique<PerShard>(ring_capacity));
  }
}

ShardedGatewayRuntime::~ShardedGatewayRuntime() { stop(); }

void ShardedGatewayRuntime::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

void ShardedGatewayRuntime::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& ps : shards_) {
    if (ps->thread.joinable()) ps->thread.join();
  }
}

bool ShardedGatewayRuntime::submit(ResId id, std::uint32_t payload_bytes) {
  PerShard& ps = *shards_[gateway_->shard_of(id)];
  if (!ps.ring.try_push(ShardRequest{id, payload_bytes})) {
    ps.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t submitted =
      ps.submitted.load(std::memory_order_relaxed) + 1;
  ps.submitted.store(submitted, std::memory_order_release);
  // Ring occupancy right after the push. Not submitted - processed:
  // that also counts the burst a worker has popped but not yet
  // finished, so it can exceed the ring's capacity.
  const std::uint64_t depth = ps.ring.size();
  if (depth > ps.high_watermark.load(std::memory_order_relaxed)) {
    ps.high_watermark.store(depth, std::memory_order_relaxed);
  }
  return true;
}

size_t ShardedGatewayRuntime::submit_burst(const ShardRequest* reqs,
                                           size_t n) {
  size_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    if (submit(reqs[i].id, reqs[i].payload_bytes)) ++accepted;
  }
  return accepted;
}

bool ShardedGatewayRuntime::idle() const {
  for (const auto& ps : shards_) {
    if (ps->processed.load(std::memory_order_acquire) !=
        ps->submitted.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

void ShardedGatewayRuntime::drain() const {
  while (!idle()) std::this_thread::yield();
}

ShardedGatewayRuntime::WorkerStats ShardedGatewayRuntime::worker_stats(
    size_t shard) const {
  const PerShard& ps = *shards_[shard];
  WorkerStats s;
  s.processed = ps.processed.load(std::memory_order_acquire);
  s.batches = ps.batches.load(std::memory_order_acquire);
  s.ok = ps.ok.load(std::memory_order_acquire);
  return s;
}

ShardedGatewayRuntime::ShardHealth ShardedGatewayRuntime::shard_health(
    size_t shard) const {
  const PerShard& ps = *shards_[shard];
  ShardHealth h;
  // Load processed before submitted: a concurrently draining worker can
  // then only make depth look larger, never wrap below zero.
  h.processed = ps.processed.load(std::memory_order_acquire);
  h.submitted = ps.submitted.load(std::memory_order_acquire);
  h.batches = ps.batches.load(std::memory_order_acquire);
  h.ok = ps.ok.load(std::memory_order_acquire);
  h.rejected = ps.rejected.load(std::memory_order_acquire);
  h.heartbeats = ps.heartbeats.load(std::memory_order_acquire);
  h.ring_depth = h.submitted >= h.processed ? h.submitted - h.processed : 0;
  h.high_watermark = ps.high_watermark.load(std::memory_order_acquire);
  return h;
}

std::vector<size_t> ShardedGatewayRuntime::check_stalls() {
  std::vector<size_t> stalled;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardHealth h = shard_health(i);
    if (stall_baselined_[i] && h.ring_depth > 0 &&
        h.heartbeats == stall_baseline_[i]) {
      stalled.push_back(i);
    }
    stall_baseline_[i] = h.heartbeats;
    stall_baselined_[i] = true;
  }
  return stalled;
}

void ShardedGatewayRuntime::collect_metrics(
    telemetry::MetricSink& sink) const {
  sink.gauge("gateway_runtime.shard.count",
             static_cast<std::int64_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardHealth h = shard_health(i);
    const std::string prefix = "gateway_runtime.shard." + std::to_string(i);
    sink.gauge(prefix + ".ring_depth",
               static_cast<std::int64_t>(h.ring_depth));
    sink.gauge(prefix + ".ring_high_watermark",
               static_cast<std::int64_t>(h.high_watermark));
    sink.counter(prefix + ".submitted", h.submitted);
    sink.counter(prefix + ".processed", h.processed);
    sink.counter(prefix + ".batches", h.batches);
    sink.counter(prefix + ".ok", h.ok);
    sink.counter(prefix + ".rejected", h.rejected);
    sink.counter(prefix + ".heartbeats", h.heartbeats);
  }
}

std::vector<telemetry::AlertRule> ShardedGatewayRuntime::default_alert_rules(
    size_t shard_count, std::uint64_t ring_depth_threshold,
    TimeNs stall_for_ns) {
  std::vector<telemetry::AlertRule> rules;
  rules.reserve(shard_count * 2);
  for (size_t i = 0; i < shard_count; ++i) {
    const std::string prefix = "gateway_runtime.shard." + std::to_string(i);
    {
      telemetry::AlertRule r;
      r.name = "runtime.shard" + std::to_string(i) + ".stall";
      r.series = prefix + ".heartbeats";
      r.signal = telemetry::AlertSignal::kRate;
      r.span_ns = kNsPerSec;
      r.cmp = telemetry::AlertCmp::kBelow;
      r.threshold = 1.0;  // beats/s; a live worker spins far faster
      r.for_ns = stall_for_ns;
      r.severity = telemetry::Severity::kError;
      r.guard_series = prefix + ".ring_depth";
      r.guard_cmp = telemetry::AlertCmp::kAbove;
      r.guard_threshold = 0;
      rules.push_back(std::move(r));
    }
    {
      telemetry::AlertRule r;
      r.name = "runtime.shard" + std::to_string(i) + ".ring-depth";
      r.series = prefix + ".ring_depth";
      r.signal = telemetry::AlertSignal::kGauge;
      r.cmp = telemetry::AlertCmp::kAbove;
      r.threshold = static_cast<double>(ring_depth_threshold);
      r.for_ns = kNsPerSec;
      r.severity = telemetry::Severity::kWarn;
      rules.push_back(std::move(r));
    }
  }
  return rules;
}

void ShardedGatewayRuntime::worker_loop(size_t shard_index) {
  PerShard& ps = *shards_[shard_index];
  Gateway& shard = gateway_->shard(shard_index);
  constexpr size_t kBurst = 64;
  ShardRequest reqs[kBurst];
  ResId ids[kBurst];
  std::uint32_t payloads[kBurst];
  FastPacket out[kBurst];
  Gateway::Verdict verdicts[kBurst];
  while (true) {
    // Advances even on idle spins: liveness, not progress — the stall
    // detector keys off this never freezing while the thread is alive.
    ps.heartbeats.fetch_add(1, std::memory_order_release);
    const size_t m = ps.ring.pop_burst(reqs, kBurst);
    if (m == 0) {
      // Exit only once the stop signal is down AND the ring is drained
      // (stop() flips running_ before joining, so check order matters).
      if (!running_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      ids[i] = reqs[i].id;
      payloads[i] = reqs[i].payload_bytes;
    }
    const size_t okc = shard.process_batch(ids, payloads, m, out, verdicts);
    ps.ok.fetch_add(okc, std::memory_order_relaxed);
    ps.batches.fetch_add(1, std::memory_order_relaxed);
    ps.processed.fetch_add(m, std::memory_order_release);
  }
}

}  // namespace colibri::dataplane
