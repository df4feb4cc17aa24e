// Figure 6: gateway and border-router forwarding vs. number of cores
// {1, 2, 4, 8, 16}; paper shows near-linear scaling (BR ≈ 2.15 Mpps/core,
// GW with 4 ASes / 2^15 reservations ≈ 1.17 Mpps/core; 34.4 Mpps at 16
// cores ≈ 312 Gbps at 1000 B payloads — the §7.2 headline).
//
// Per-packet work is embarrassingly parallel: each thread runs its own
// router (stateless) or gateway shard (the paper: "multiple gateways,
// each handling only a fraction of all reservations"). The gateway side
// uses the library's ShardedGateway — install() hash-routes each
// reservation to its shard, and every benchmark thread drives the shard
// whose reservation subset it owns — plus BM_ShardedRuntime for the
// full submit/ring/worker path of ShardedGatewayRuntime. NOTE: this
// container exposes a single CPU; thread counts beyond the hardware
// parallelism time-slice one core, so aggregate Mpps saturates instead of
// scaling — per-core rates and the BR/GW ratio remain meaningful (see
// EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/dataplane/shard.hpp"

namespace {

using namespace colibri;
using dataplane::BorderRouter;
using dataplane::FastPacket;
using dataplane::Gateway;
using dataplane::ShardedGateway;

SystemClock g_clock;
constexpr int kPathLen = 4;

std::vector<topology::Hop> make_path() {
  std::vector<topology::Hop> path;
  for (int i = 0; i < kPathLen; ++i) {
    path.push_back(topology::Hop{AsId{1, static_cast<std::uint64_t>(100 + i)},
                                 static_cast<IfId>(i == 0 ? 0 : 1),
                                 static_cast<IfId>(i + 1 == kPathLen ? 0 : 2)});
  }
  return path;
}

drkey::Key128 router_key() {
  drkey::Key128 k;
  k.bytes.fill(0x5A);
  return k;
}

// r reservations hash-distributed over `shards` gateways; built once per
// (r, shards) configuration and reused across repetitions. The mutex
// only guards construction — the benchmark hot paths never take it.
ShardedGateway& sharded_for(std::int64_t r, size_t shards) {
  static std::mutex mu;
  static std::map<std::pair<std::int64_t, size_t>,
                  std::unique_ptr<ShardedGateway>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(r, shards);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  dataplane::GatewayConfig cfg;
  cfg.expected_reservations =
      static_cast<size_t>(r) / shards + 1;  // per-shard sizing
  auto sg = std::make_unique<ShardedGateway>(AsId{1, 100}, g_clock, shards,
                                             cfg, nullptr);
  const auto path = make_path();
  Rng rng(static_cast<std::uint64_t>(r) * 7 + shards);
  proto::EerInfo eerinfo;
  std::vector<dataplane::HopAuth> sigmas(kPathLen);
  for (std::int64_t i = 0; i < r; ++i) {
    proto::ResInfo ri;
    ri.src_as = AsId{1, 100};
    ri.res_id = static_cast<ResId>(i + 1);
    ri.bw_kbps = 0xFFFF'FFFF;
    ri.exp_time = g_clock.now_sec() + 100'000;
    for (auto& s : sigmas) rng.fill(s.data(), s.size());
    sg->install(ri, eerinfo, path, sigmas);
  }
  auto [ins, _] = cache.emplace(key, std::move(sg));
  return *ins->second;
}

// Random ids from [1, r] that land on shard `t` of `shards` — the
// subset of the worst-case id stream a shard's owning thread sees.
std::vector<ResId> shard_local_ids(std::int64_t r, size_t shards, size_t t,
                                   size_t count) {
  Rng rng(static_cast<std::uint64_t>(t) * 1000003 + shards);
  std::vector<ResId> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    const auto id =
        static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
    if (ShardedGateway::shard_of(id, shards) == t) ids.push_back(id);
  }
  return ids;
}

void BM_GatewayMulticore(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  // One ShardedGateway with threads() shards; thread t drives exactly
  // the shard whose reservation subset the hash assigns it, so the hot
  // path is the unmodified single-gateway fast path on private state.
  const auto shards = static_cast<size_t>(state.threads());
  const auto t = static_cast<size_t>(state.thread_index());
  ShardedGateway& sg = sharded_for(r, shards);
  Gateway& gw = sg.shard(t);
  const auto ids = shard_local_ids(r, shards, t, 1 << 14);

  FastPacket pkt;
  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gw.process(ids[i & (ids.size() - 1)], 0, pkt));
    ++i;
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["reservations(r)"] = static_cast<double>(r);
  state.counters["Mpps_total"] =
      benchmark::Counter(static_cast<double>(processed) / 1e6,
                         benchmark::Counter::kIsRate);
}

// r = 1 is omitted: a single hash-routed reservation lives on one
// shard, so every other thread would have nothing to forward.
BENCHMARK(BM_GatewayMulticore)
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 17, 1 << 20}})
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// End-to-end ShardedGatewayRuntime path: one producer (the benchmark
// thread) routes random-id requests onto the per-shard SPSC rings;
// worker threads drain them through the staged batch pipeline. Measures
// the full submit -> ring -> process_batch engine, including routing
// and ring back-pressure.
void BM_ShardedRuntime(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const auto workers = static_cast<size_t>(state.range(1));
  ShardedGateway& sg = sharded_for(r, workers);
  dataplane::ShardedGatewayRuntime rt(sg, 4096);
  rt.start();

  Rng rng(7);
  constexpr size_t kBurst = 64;
  dataplane::ShardRequest reqs[kBurst];
  std::uint64_t submitted = 0;
  for (auto _ : state) {
    for (auto& q : reqs) {
      q.id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
      q.payload_bytes = 0;
    }
    size_t done = 0;
    while (done < kBurst) {
      done += rt.submit_burst(reqs + done, kBurst - done);
    }
    submitted += kBurst;
  }
  rt.drain();
  rt.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(submitted));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["reservations(r)"] = static_cast<double>(r);
  state.counters["Mpps_total"] =
      benchmark::Counter(static_cast<double>(submitted) / 1e6,
                         benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ShardedRuntime)
    ->ArgsProduct({{1 << 15}, {1, 2, 4, 8, 16}});

// A transit-hop packet carrying a valid HVF for hop 1 under `cipher`.
FastPacket make_router_packet(Rng& rng, const crypto::Aes128& cipher,
                              const std::vector<topology::Hop>& path) {
  FastPacket pkt;
  pkt.is_eer = true;
  pkt.num_hops = kPathLen;
  pkt.current_hop = 1;
  pkt.resinfo.src_as = AsId{1, 100};
  pkt.resinfo.res_id = static_cast<ResId>(1 + rng.below(1 << 20));
  pkt.resinfo.bw_kbps = 1'000'000;
  pkt.resinfo.exp_time = g_clock.now_sec() + 100'000;
  pkt.eerinfo.src_host = HostAddr::from_u64(rng.next());
  pkt.eerinfo.dst_host = HostAddr::from_u64(rng.next());
  pkt.timestamp = static_cast<std::uint32_t>(rng.next());
  for (int i = 0; i < kPathLen; ++i) {
    pkt.ifaces[i] = dataplane::IfPair{path[i].ingress, path[i].egress};
  }
  const auto sigma = dataplane::compute_hopauth(
      cipher, pkt.resinfo, pkt.eerinfo, pkt.ifaces[1].in, pkt.ifaces[1].eg);
  pkt.hvfs[1] =
      dataplane::compute_data_hvf(sigma, pkt.timestamp, pkt.wire_size());
  return pkt;
}

// Border router: fully stateless; one instance per thread.
void BM_RouterMulticore(benchmark::State& state) {
  thread_local std::unique_ptr<BorderRouter> router;
  thread_local std::vector<FastPacket> pkts;
  if (!router) {
    router = std::make_unique<BorderRouter>(AsId{1, 101}, router_key(),
                                            g_clock);
    // Pre-authenticated packets at hop 1 (a transit AS), refreshed each
    // pass by resetting the cursor.
    const auto path = make_path();
    crypto::Aes128 cipher(router_key().bytes.data());
    Rng rng(9);
    pkts.resize(1024);
    for (auto& pkt : pkts) pkt = make_router_packet(rng, cipher, path);
  }

  std::uint64_t processed = 0;
  size_t i = 0;
  for (auto _ : state) {
    FastPacket& pkt = pkts[i & 1023];
    pkt.current_hop = 1;  // reset cursor consumed by process()
    benchmark::DoNotOptimize(router->process(pkt));
    ++i;
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["Mpps_total"] =
      benchmark::Counter(static_cast<double>(processed) / 1e6,
                         benchmark::Counter::kIsRate);
  // §7.2: Gbps when forwarding 1000 B-payload packets at this rate.
  const FastPacket ref = pkts[0];
  FastPacket sized = ref;
  sized.payload_bytes = 1000;
  state.counters["Gbps_at_1000B"] = benchmark::Counter(
      static_cast<double>(processed) * sized.wire_size() * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_RouterMulticore)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// Same pre-authenticated packet mix through the staged batch pipeline:
// one full PacketBatch per iteration, cursors reset between passes. The
// derived router_batched_over_scalar/<threads> JSON rows record the
// speedup over BM_RouterMulticore (one process() call, a batch of one,
// per packet) at the same thread count.
void BM_RouterMulticoreBatched(benchmark::State& state) {
  thread_local std::unique_ptr<BorderRouter> router;
  thread_local std::unique_ptr<dataplane::PacketBatch> batch;
  if (!router) {
    router = std::make_unique<BorderRouter>(AsId{1, 101}, router_key(),
                                            g_clock);
    const auto path = make_path();
    crypto::Aes128 cipher(router_key().bytes.data());
    Rng rng(9);
    batch = std::make_unique<dataplane::PacketBatch>();
    while (!batch->full()) {
      batch->push(make_router_packet(rng, cipher, path));
    }
  }

  BorderRouter::Verdict verdicts[dataplane::PacketBatch::kCapacity];
  std::uint64_t processed = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch->size; ++i) (*batch)[i].current_hop = 1;
    router->process_batch(*batch, verdicts);
    benchmark::DoNotOptimize(verdicts[0]);
    processed += batch->size;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["Mpps_total"] =
      benchmark::Counter(static_cast<double>(processed) / 1e6,
                         benchmark::Counter::kIsRate);
}

BENCHMARK(BM_RouterMulticoreBatched)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

[[maybe_unused]] const bool kRatioRows = benchjson::request_ratio(
    "router_batched_over_scalar", "BM_RouterMulticoreBatched",
    "BM_RouterMulticore");

}  // namespace

COLIBRI_BENCH_MAIN(bench_fig6_multicore);
