// colibench: the repository benchmark.
//
//   colibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload on one thread for `seconds` of wall time with inputs
// generated from `seed`, checks every output, and prints as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct Name {
  const char* name;
  const char* unit;
};

// Every workload prints every metric. Workloads measure the layers they
// run; a layer a workload does not run (the control plane under the
// data-plane workloads, and the reverse) reads 0.
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},      {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},   {"latency_tail_us", "us"},
};

constexpr Name kPerLayer[] = {
    {"fail_ratio", "ratio"},
    {"e2e.samples", "count"},
    {"trace.residual_us", "us"},
    {"trace.overhead_pct", "%"},
    {"dp.delivered_pps", "1/s"},
    {"dp.goodput_mbps", "Mbit/s"},
    {"dp.batch_p50_us", "us"},
    {"dp.batch_p99_us", "us"},
    {"gateway.ns_per_pkt", "ns"},
    {"gateway.forwarded", "count"},
    {"gateway.drop", "count"},
    {"codec.emit_ns_per_frame", "ns"},
    {"codec.ingest_ns_per_frame", "ns"},
    {"codec.bytes_per_frame", "B"},
    {"codec.allocs_per_frame", "count"},
    {"router.ns_per_pkt_hop", "ns"},
    {"router.forwarded", "count"},
    {"router.delivered", "count"},
    {"router.bad_hvf", "count"},
    {"router.replayed", "count"},
    {"router.useful_hop_ratio", "ratio"},
    {"router.allocs_per_pkt", "count"},
    {"dupsup.duplicates", "count"},
    {"dupsup.false_drops", "count"},
    {"ofd.flagged", "count"},
    {"cp.requests_per_s", "1/s"},
    {"cp.setup_p50_us", "us"},
    {"cp.setup_p99_us", "us"},
    {"cp.renew_p50_us", "us"},
    {"cp.renew_p99_us", "us"},
    {"daemon.lookup_us", "us"},
    {"cserv.initiator_self_us", "us"},
    {"cserv.hop_self_p50_us", "us"},
    {"cserv.hop_self_p99_us", "us"},
    {"bus.msgs_per_req", "count"},
    {"bus.bytes_per_req", "B"},
    {"bus.key_fetches", "count"},
    {"bus.registry_queries", "count"},
    {"cserv.tick_us", "us"},
    {"cserv.segr_renew_us", "us"},
    {"admission.grant_ratio", "ratio"},
    {"wal.bytes_per_req", "B"},
    {"cserv.allocs_per_req", "count"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "colibench: %s\nusage: colibench --workload "
               "<dp_cold_table|dp_attack_long_path|cp_session_churn> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// Emits the metrics of `names`, in that order, from `got`. Returns false
// if a measured value is not finite or `got` holds an unlisted name.
bool emit(const Name* names, std::size_t n,
          const std::map<std::string, Metric>& got, std::string& json) {
  bool ok = true;
  std::size_t matched = 0;
  json += "{";
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    if (auto it = got.find(names[i].name); it != got.end()) {
      ++matched;
      v = it->second.value;
      if (it->second.unit != names[i].unit || !std::isfinite(v)) {
        std::fprintf(stderr, "colibench: bad metric %s\n", names[i].name);
        ok = false;
        v = 0.0;
      }
    }
    if (i != 0) json += ", ";
    json += "\"" + std::string(names[i].name) + "\": {\"value\": " +
            number(v) + ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}";
  return ok && matched == got.size();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      opt.trace = std::strcmp(val, "1") == 0;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage("missing or malformed argument");
  }

  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "dp_cold_table") run = perfbench::run_dp_cold_table;
  if (opt.workload == "dp_attack_long_path") {
    run = perfbench::run_dp_attack_long_path;
  }
  if (opt.workload == "cp_session_churn") run = perfbench::run_cp_session_churn;
  if (run == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  // The checks must be able to fail: a flipped HVF on a packet labelled
  // valid has to be counted as a failure before any result is trusted.
  const bool self_check = perfbench::dp_self_check();
  Outcome out = run(opt);
  if (!self_check) {
    out.correct = false;
    out.notes.push_back("self-check FAILED: a corrupted packet was not "
                        "counted as a failure");
  }
  if (out.attempted == 0) out.correct = false;

  std::string metrics;
  const bool named =
      opt.trace ? emit(kPerLayer, std::size(kPerLayer), out.per_layer, metrics)
                : emit(kEndToEnd, std::size(kEndToEnd), out.end_to_end, metrics);
  if (!named) out.correct = false;

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
