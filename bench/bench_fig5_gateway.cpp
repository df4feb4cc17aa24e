// Figure 5: gateway forwarding performance (one core) as a function of
// the number of on-path ASes {2,4,8,16} and the number of installed
// reservations r in {2^0, 2^10, 2^15, 2^17, 2^20}.
//
// Worst-case access pattern exactly as in the paper: packets arrive with
// *random* reservation IDs out of the set of valid ones, defeating the
// cache. Zero-payload packets (processing is payload-independent, App. E).
// Paper result: ~2.5 Mpps (2 ASes, 1 res) down to ~0.4 Mpps
// (16 ASes, 2^20 res); decreasing in both dimensions.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <map>
#include <memory>

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/history.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace {

using namespace colibri;
using dataplane::FastPacket;
using dataplane::Gateway;

SystemClock g_clock;

std::vector<topology::Hop> make_path(int num_ases) {
  std::vector<topology::Hop> path;
  for (int i = 0; i < num_ases; ++i) {
    path.push_back(topology::Hop{AsId{1, static_cast<std::uint64_t>(100 + i)},
                                 static_cast<IfId>(i == 0 ? 0 : 1),
                                 static_cast<IfId>(i + 1 == num_ases ? 0 : 2)});
  }
  return path;
}

// Gateways are expensive to populate (2^20 installs); build each (hops, r)
// configuration once and reuse across benchmark repetitions.
Gateway& gateway_for(int num_ases, std::int64_t reservations) {
  static std::map<std::pair<int, std::int64_t>, std::unique_ptr<Gateway>> cache;
  auto key = std::make_pair(num_ases, reservations);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  dataplane::GatewayConfig cfg;
  cfg.expected_reservations = static_cast<size_t>(reservations);
  auto gw = std::make_unique<Gateway>(AsId{1, 100}, g_clock, cfg);

  const auto path = make_path(num_ases);
  Rng rng(static_cast<std::uint64_t>(num_ases) * 1000003 + reservations);
  proto::EerInfo eerinfo;
  eerinfo.src_host = HostAddr::from_u64(1);
  eerinfo.dst_host = HostAddr::from_u64(2);
  std::vector<dataplane::HopAuth> sigmas(static_cast<size_t>(num_ases));

  for (std::int64_t i = 0; i < reservations; ++i) {
    proto::ResInfo ri;
    ri.src_as = AsId{1, 100};
    ri.res_id = static_cast<ResId>(i + 1);
    // High rate so the token bucket never throttles the benchmark.
    ri.bw_kbps = 0xFFFF'FFFF;
    ri.exp_time = g_clock.now_sec() + 100'000;
    ri.version = 0;
    for (auto& s : sigmas) rng.fill(s.data(), s.size());
    gw->install(ri, eerinfo, path, sigmas);
  }
  auto [ins, _] = cache.emplace(key, std::move(gw));
  return *ins->second;
}

void BM_GatewayForward(benchmark::State& state) {
  const int num_ases = static_cast<int>(state.range(0));
  const std::int64_t r = state.range(1);
  Gateway& gw = gateway_for(num_ases, r);

  // Pre-generated random ResId stream (worst case for the cache).
  Rng rng(42);
  std::vector<ResId> ids(1 << 16);
  for (auto& id : ids) {
    id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
  }

  FastPacket pkt;
  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    const auto verdict = gw.process(ids[i & 0xFFFF], 0, pkt);
    benchmark::DoNotOptimize(verdict);
    benchmark::DoNotOptimize(pkt.hvfs[0]);
    ++i;
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["on_path_ases"] = num_ases;
  state.counters["reservations(r)"] = static_cast<double>(r);
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(processed) / 1e6, benchmark::Counter::kIsRate);
}

BENCHMARK(BM_GatewayForward)
    ->ArgsProduct({{2, 4, 8, 16}, {1, 1 << 10, 1 << 15, 1 << 17, 1 << 20}})
    ->Unit(benchmark::kNanosecond);

// Same worst-case random-id stream through the staged batch pipeline
// (sequential lookup/expiry prepare, then multi-lane AES HVF
// computation): 64-packet batches via Gateway::process_batch. The
// derived gateway_batched_over_scalar/<ases>/<r> rows in the JSON
// record the speedup over BM_GatewayForward (one process() call, a
// batch of one, per packet) at identical arguments.
void BM_GatewayForwardBatched(benchmark::State& state) {
  const int num_ases = static_cast<int>(state.range(0));
  const std::int64_t r = state.range(1);
  Gateway& gw = gateway_for(num_ases, r);

  Rng rng(42);
  std::vector<ResId> ids(1 << 16);
  for (auto& id : ids) {
    id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
  }

  constexpr size_t kBatch = 64;
  std::uint32_t sizes[kBatch] = {};
  std::vector<FastPacket> pkts(kBatch);
  std::vector<Gateway::Verdict> verdicts(kBatch);

  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    gw.process_batch(ids.data() + i, sizes, kBatch, pkts.data(),
                     verdicts.data());
    benchmark::DoNotOptimize(pkts[0].hvfs[0]);
    i += kBatch;
    if (i + kBatch > ids.size()) i = 0;
    processed += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["on_path_ases"] = num_ases;
  state.counters["reservations(r)"] = static_cast<double>(r);
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(processed) / 1e6, benchmark::Counter::kIsRate);
}

BENCHMARK(BM_GatewayForwardBatched)
    ->ArgsProduct({{2, 4, 8, 16}, {1, 1 << 10, 1 << 15, 1 << 17, 1 << 20}})
    ->Unit(benchmark::kNanosecond);

[[maybe_unused]] const bool kRatioRows = benchjson::request_ratio(
    "gateway_batched_over_scalar", "BM_GatewayForwardBatched",
    "BM_GatewayForward");

// The batched pipeline again, with the stage profiler recording every
// batch. Two derived artifacts land in the JSON:
//  * gateway_profiler_overhead/<args>: throughput ratio of the
//    unprofiled run over this one (how much attribution costs);
//  * gateway_stage/<stage> rows: per-batch wall-time p50/p99 of each
//    pipeline stage, pulled from the profiler histograms after the
//    timed loop (ops_per_sec carries the sample count), plus a
//    gateway_batch_occupancy row whose percentiles are packets/batch.
void BM_GatewayForwardBatchedProfiled(benchmark::State& state) {
  const int num_ases = static_cast<int>(state.range(0));
  const std::int64_t r = state.range(1);
  Gateway& gw = gateway_for(num_ases, r);

  Rng rng(42);
  std::vector<ResId> ids(1 << 16);
  for (auto& id : ids) {
    id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
  }

  constexpr size_t kBatch = 64;
  std::uint32_t sizes[kBatch] = {};
  std::vector<FastPacket> pkts(kBatch);
  std::vector<Gateway::Verdict> verdicts(kBatch);

  telemetry::StageProfiler& prof = gw.profiler();
  prof.reset();
  prof.set_enabled(true);

  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    gw.process_batch(ids.data() + i, sizes, kBatch, pkts.data(),
                     verdicts.data());
    benchmark::DoNotOptimize(pkts[0].hvfs[0]);
    i += kBatch;
    if (i + kBatch > ids.size()) i = 0;
    processed += kBatch;
  }
  prof.set_enabled(false);  // the shared gateway cache stays unprofiled

  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(processed) / 1e6, benchmark::Counter::kIsRate);

  for (size_t s = 0; s < prof.stage_count(); ++s) {
    const telemetry::HistogramSnapshot h = prof.stage_snapshot(s);
    if (h.count == 0) continue;
    benchjson::add_extra_result(
        "gateway_stage/" + prof.stage_name(s),
        static_cast<double>(h.count),
        static_cast<double>(h.percentile(0.50)),
        static_cast<double>(h.percentile(0.99)));
  }
  const telemetry::HistogramSnapshot occ = prof.occupancy_snapshot();
  if (occ.count != 0) {
    benchjson::add_extra_result("gateway_batch_occupancy",
                                static_cast<double>(occ.count),
                                static_cast<double>(occ.percentile(0.50)),
                                static_cast<double>(occ.percentile(0.99)));
  }
  prof.reset();
}

// One representative grid point: the profiled run exists to price the
// profiler and attribute stage time, not to re-sweep the whole figure.
BENCHMARK(BM_GatewayForwardBatchedProfiled)
    ->Args({4, 1 << 15})
    ->Unit(benchmark::kNanosecond);

[[maybe_unused]] const bool kOverheadRow = benchjson::request_ratio(
    "gateway_profiler_overhead", "BM_GatewayForwardBatched",
    "BM_GatewayForwardBatchedProfiled");

// The batched pipeline with the live monitoring plane attached: a
// WindowedSampler over the global registry (which the cached gateways
// export into) polled once per batch — 10 ms windows, so ~100
// snapshots/s — and an alert rule evaluated at every cut window.
// Between windows poll() is one clock read plus one relaxed atomic
// load, so the derived gateway_sampler_overhead ratio over the
// unmonitored run should sit at ~1.0x; the bench gate pins that — live
// monitoring must stay off the fast path.
void BM_GatewayForwardBatchedSampled(benchmark::State& state) {
  const int num_ases = static_cast<int>(state.range(0));
  const std::int64_t r = state.range(1);
  Gateway& gw = gateway_for(num_ases, r);

  Rng rng(42);
  std::vector<ResId> ids(1 << 16);
  for (auto& id : ids) {
    id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
  }

  constexpr size_t kBatch = 64;
  std::uint32_t sizes[kBatch] = {};
  std::vector<FastPacket> pkts(kBatch);
  std::vector<Gateway::Verdict> verdicts(kBatch);

  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = 10'000'000;
  scfg.ring_capacity = 128;
  telemetry::WindowedSampler sampler(telemetry::MetricsRegistry::global(),
                                     g_clock, scfg);
  sampler.track_rate("gateway.forwarded");
  telemetry::AlertEngine engine(sampler, g_clock);
  telemetry::AlertRule rule;
  rule.name = "gateway.drop-spike";
  rule.series = "gateway.drop.";
  rule.signal = telemetry::AlertSignal::kRate;
  rule.span_ns = kNsPerSec;
  rule.cmp = telemetry::AlertCmp::kAbove;
  rule.threshold = 1e6;
  rule.for_ns = kNsPerSec;
  engine.add_rule(rule);

  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    gw.process_batch(ids.data() + i, sizes, kBatch, pkts.data(),
                     verdicts.data());
    benchmark::DoNotOptimize(pkts[0].hvfs[0]);
    if (sampler.poll()) (void)engine.evaluate();
    i += kBatch;
    if (i + kBatch > ids.size()) i = 0;
    processed += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(processed) / 1e6, benchmark::Counter::kIsRate);
  state.counters["windows"] =
      static_cast<double>(sampler.windows_sampled());
  state.counters["alert_evals"] = static_cast<double>(engine.evaluations());
}

// Same representative grid point as the profiled run; the row exists
// to price the monitoring loop, not to re-sweep the figure.
BENCHMARK(BM_GatewayForwardBatchedSampled)
    ->Args({4, 1 << 15})
    ->Unit(benchmark::kNanosecond);

[[maybe_unused]] const bool kSamplerRow = benchjson::request_ratio(
    "gateway_sampler_overhead", "BM_GatewayForwardBatched",
    "BM_GatewayForwardBatchedSampled");

// The monitored pipeline with the post-mortem trail attached: every
// window the sampler cuts is also encoded and appended into a
// HistoryStore (in-memory backend — the disk write is the OS's
// problem, the encode is ours). append_latest() is one frame encode
// per 10 ms window and a no-op between windows, so the derived
// history_append_overhead ratio over the sampler-only run should sit
// at ~1.0x; the bench gate pins that — the black box must not slow
// the plane it records.
void BM_GatewayForwardBatchedHistory(benchmark::State& state) {
  const int num_ases = static_cast<int>(state.range(0));
  const std::int64_t r = state.range(1);
  Gateway& gw = gateway_for(num_ases, r);

  Rng rng(42);
  std::vector<ResId> ids(1 << 16);
  for (auto& id : ids) {
    id = static_cast<ResId>(1 + rng.below(static_cast<std::uint64_t>(r)));
  }

  constexpr size_t kBatch = 64;
  std::uint32_t sizes[kBatch] = {};
  std::vector<FastPacket> pkts(kBatch);
  std::vector<Gateway::Verdict> verdicts(kBatch);

  telemetry::WindowedSamplerConfig scfg;
  scfg.period_ns = 10'000'000;
  scfg.ring_capacity = 128;
  telemetry::WindowedSampler sampler(telemetry::MetricsRegistry::global(),
                                     g_clock, scfg);
  sampler.track_rate("gateway.forwarded");
  telemetry::MemoryHistoryBackend backend;
  telemetry::HistoryStore history(backend);

  size_t i = 0;
  std::uint64_t processed = 0;
  for (auto _ : state) {
    gw.process_batch(ids.data() + i, sizes, kBatch, pkts.data(),
                     verdicts.data());
    benchmark::DoNotOptimize(pkts[0].hvfs[0]);
    if (sampler.poll()) (void)history.append_latest(sampler);
    i += kBatch;
    if (i + kBatch > ids.size()) i = 0;
    processed += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(processed) / 1e6, benchmark::Counter::kIsRate);
  state.counters["frames"] =
      static_cast<double>(history.stats().frames_appended);
}

// Same representative grid point again; the row prices the history
// sink relative to the sampler-only monitoring loop above.
BENCHMARK(BM_GatewayForwardBatchedHistory)
    ->Args({4, 1 << 15})
    ->Unit(benchmark::kNanosecond);

[[maybe_unused]] const bool kHistoryRow = benchjson::request_ratio(
    "history_append_overhead", "BM_GatewayForwardBatchedSampled",
    "BM_GatewayForwardBatchedHistory");

}  // namespace

COLIBRI_BENCH_MAIN(bench_fig5_gateway);
