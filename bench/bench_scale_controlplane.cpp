// Control-plane scalability on generated topologies (§6.2's claim that
// the control plane "will be able to scale to large, highly-
// interconnected networks like today's Internet").
//
// Sweeps the topology size and reports: beacon-discovered segments, full
// SegR provisioning time and per-request latency, bus message counts
// (communication overhead), and the time to establish an EER across the
// network. The scaling claim holds if per-request latency stays flat as
// the network grows.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <chrono>
#include <memory>

#include "colibri/app/testbed.hpp"
#include "colibri/topology/generator.hpp"

namespace {

using namespace colibri;

topology::GeneratorConfig config_for(int scale) {
  topology::GeneratorConfig cfg;
  cfg.isds = 2;
  cfg.cores_per_isd = 2;
  cfg.fanout = scale;
  cfg.depth = 2;
  cfg.multihome_prob = 0.2;
  cfg.seed = 12;
  return cfg;
}

void BM_ProvisionGeneratedTopology(benchmark::State& state) {
  const auto cfg = config_for(static_cast<int>(state.range(0)));
  std::uint64_t total_segments = 0;
  std::uint64_t total_messages = 0;
  size_t ases = 0;
  for (auto _ : state) {
    SimClock clock(1000 * kNsPerSec);
    app::Testbed bed(topology::generate_topology(cfg), clock);
    ases = bed.topology().as_count();
    const std::uint64_t before = bed.bus().snapshot().messages;
    const size_t provisioned = bed.provision_all_segments(100, 500'000);
    total_segments += provisioned;
    total_messages += bed.bus().snapshot().messages - before;
  }
  state.counters["ASes"] = static_cast<double>(ases);
  state.counters["segments_provisioned"] =
      static_cast<double>(total_segments) /
      static_cast<double>(state.iterations());
  state.counters["bus_msgs_per_segment"] =
      static_cast<double>(total_messages) /
      std::max<double>(1.0, static_cast<double>(total_segments));
}

BENCHMARK(BM_ProvisionGeneratedTopology)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_EerAcrossGeneratedTopology(benchmark::State& state) {
  const auto cfg = config_for(static_cast<int>(state.range(0)));
  SimClock clock(1000 * kNsPerSec);
  app::Testbed bed(topology::generate_topology(cfg), clock);
  bed.provision_all_segments(100, 500'000);

  AsId src, dst;
  for (AsId id : bed.topology().as_ids()) {
    if (bed.topology().node(id).core) continue;
    if (id.isd() == 1) src = id;
    if (id.isd() == 2) dst = id;
  }

  std::uint64_t ok = 0;
  std::uint64_t host = 1;
  for (auto _ : state) {
    auto r = bed.daemon(src).open_session(dst, HostAddr::from_u64(host++),
                                          HostAddr::from_u64(2), 1, 10);
    benchmark::DoNotOptimize(r);
    ok += r.ok();
    clock.advance(20'000'000);
    if ((host & 0x3F) == 0) bed.tick_all();
  }
  state.counters["ASes"] = static_cast<double>(bed.topology().as_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(ok));
  if (ok == 0) state.SkipWithError("no EER succeeded");
}

BENCHMARK(BM_EerAcrossGeneratedTopology)
    ->Arg(2)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(2000);

}  // namespace

COLIBRI_BENCH_MAIN(bench_scale_controlplane);
