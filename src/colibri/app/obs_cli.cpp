#include "colibri/app/obs_cli.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "colibri/app/obs.hpp"
#include "colibri/telemetry/history.hpp"
#include "colibri/telemetry/incident.hpp"

namespace colibri::app {
namespace {

const char* arg_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return nullptr;
  return arg + n + 1;
}

// "1500000000000" (ns) or "1500s" (seconds).
TimeNs parse_time_ns(const char* v) {
  char* end = nullptr;
  const long long x = std::strtoll(v, &end, 10);
  if (end != nullptr && end[0] == 's' && end[1] == '\0') {
    return static_cast<TimeNs>(x) * kNsPerSec;
  }
  return static_cast<TimeNs>(x);
}

// --- offline forensics: colibri_obs incident ... ---------------------------
// Reads bundles a (possibly dead) process left under
// `<--dir>/incidents/`; never runs a scenario.
int run_incident_cli(const char* prog, int argc, const char* const* argv,
                     int argi) {
  const auto sub_usage = [&] {
    std::fprintf(stderr,
                 "usage: %s incident list|show|diff [--dir=FORENSICS_DIR]"
                 " [--id=N] [--a=N] [--b=N]\n",
                 prog);
    return 2;
  };
  if (argi >= argc || argv[argi][0] == '-') return sub_usage();
  const std::string sub = argv[argi++];
  std::string dir = ".";
  std::string id_s, a_s, b_s;
  for (int i = argi; i < argc; ++i) {
    if (const char* v = arg_value(argv[i], "--dir")) {
      dir = v;
    } else if (const char* v = arg_value(argv[i], "--id")) {
      id_s = v;
    } else if (const char* v = arg_value(argv[i], "--a")) {
      a_s = v;
    } else if (const char* v = arg_value(argv[i], "--b")) {
      b_s = v;
    } else {
      return sub_usage();
    }
  }
  const std::string inc_dir = dir + "/incidents";
  const std::vector<telemetry::IncidentFileInfo> infos =
      telemetry::list_incident_bundles(inc_dir);

  if (sub == "list") {
    if (infos.empty()) {
      std::printf("no incidents under %s\n", inc_dir.c_str());
      return 0;
    }
    for (const auto& info : infos) {
      std::printf("incident %06llu  t=%.3fs  rule=%s  %s\n",
                  static_cast<unsigned long long>(info.id),
                  static_cast<double>(info.time_ns) / 1e9, info.rule.c_str(),
                  info.path.c_str());
    }
    return 0;
  }

  const auto find_by_id = [&](const std::string& s)
      -> const telemetry::IncidentFileInfo* {
    const auto id = static_cast<std::uint64_t>(std::strtoull(s.c_str(),
                                                             nullptr, 10));
    for (const auto& info : infos) {
      if (info.id == id) return &info;
    }
    std::fprintf(stderr, "no incident %s under %s\n", s.c_str(),
                 inc_dir.c_str());
    return nullptr;
  };

  if (sub == "show") {
    if (infos.empty()) {
      std::fprintf(stderr, "no incidents under %s\n", inc_dir.c_str());
      return 1;
    }
    // Default: the newest bundle (highest id; list is filename-sorted).
    const telemetry::IncidentFileInfo* info =
        id_s.empty() ? &infos.back() : find_by_id(id_s);
    if (info == nullptr) return 1;
    std::printf("# incident %06llu  t=%.3fs  rule=%s\n",
                static_cast<unsigned long long>(info->id),
                static_cast<double>(info->time_ns) / 1e9, info->rule.c_str());
    std::fputs(info->json.c_str(), stdout);
    return 0;
  }

  if (sub == "diff") {
    if (a_s.empty() || b_s.empty()) {
      std::fprintf(stderr, "incident diff requires --a=N and --b=N\n");
      return sub_usage();
    }
    const telemetry::IncidentFileInfo* ia = find_by_id(a_s);
    const telemetry::IncidentFileInfo* ib = find_by_id(b_s);
    if (ia == nullptr || ib == nullptr) return 1;
    const std::string d = telemetry::diff_incident_bundles(ia->json, ib->json);
    if (d.empty()) {
      std::printf("incidents %s and %s are identical\n", a_s.c_str(),
                  b_s.c_str());
      return 0;
    }
    std::printf("--- incident %s\n+++ incident %s\n", a_s.c_str(),
                b_s.c_str());
    std::fputs(d.c_str(), stdout);
    return 1;
  }
  return sub_usage();
}

// --- offline forensics: colibri_obs history ... ----------------------------
// Reopens the history store under `<--dir>/history/` (recovering any
// torn tail) and answers queries against it.
int run_history_cli(const char* prog, int argc, const char* const* argv,
                    int argi) {
  const auto sub_usage = [&] {
    std::fprintf(stderr,
                 "usage: %s history query|rate|p99 --series=NAME"
                 " [--dir=FORENSICS_DIR] [--since=NS|Ns] [--until=NS|Ns]"
                 " [--prefix]\n",
                 prog);
    return 2;
  };
  if (argi >= argc || argv[argi][0] == '-') return sub_usage();
  const std::string sub = argv[argi++];
  if (sub != "query" && sub != "rate" && sub != "p99") return sub_usage();
  std::string dir = ".";
  std::string series;
  TimeNs since = 0;
  TimeNs until = telemetry::HistoryStore::kUntilEnd;
  bool prefix = false;
  for (int i = argi; i < argc; ++i) {
    if (const char* v = arg_value(argv[i], "--dir")) {
      dir = v;
    } else if (const char* v = arg_value(argv[i], "--series")) {
      series = v;
    } else if (const char* v = arg_value(argv[i], "--since")) {
      since = parse_time_ns(v);
    } else if (const char* v = arg_value(argv[i], "--until")) {
      until = parse_time_ns(v);
    } else if (std::strcmp(argv[i], "--prefix") == 0) {
      prefix = true;
    } else {
      return sub_usage();
    }
  }
  if (series.empty()) {
    std::fprintf(stderr, "history %s requires --series=NAME\n", sub.c_str());
    return sub_usage();
  }

  telemetry::DirectoryHistoryBackend backend(dir + "/history");
  telemetry::HistoryStore store(backend);
  const telemetry::HistoryStats st = store.stats();
  if (store.window_count() == 0) {
    std::fprintf(stderr, "history store under %s/history is empty\n",
                 dir.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "# history: %llu frames in %zu segments recovered"
               " (%llu corrupt, %llu bytes discarded)\n",
               static_cast<unsigned long long>(st.frames_recovered),
               store.segment_count(),
               static_cast<unsigned long long>(st.corrupt_segments),
               static_cast<unsigned long long>(st.discarded_bytes));

  if (sub == "query") {
    std::printf("counter %s = %llu\n", series.c_str(),
                static_cast<unsigned long long>(
                    store.counter_delta(series, since, until, prefix)));
    return 0;
  }
  if (sub == "rate") {
    std::printf("rate %s = %.3f/s\n", series.c_str(),
                store.rate(series, since, until, prefix));
    return 0;
  }
  const std::optional<double> p = store.percentile(series, 0.99, since, until);
  if (!p) {
    std::fprintf(stderr, "histogram %s recorded nothing in the span\n",
                 series.c_str());
    return 1;
  }
  std::printf("p99 %s = %.3f\n", series.c_str(), *p);
  return 0;
}

std::string scenario_list() {
  std::string out;
  for (const std::string& name : obs_scenario_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [trace|health|watch|fleet]"
               " [--dump=all|metrics|openmetrics|events|records]"
               " [--query=NAME] [--packets=N] [--sample-every=N]"
               " [--scenario=%s]"
               " [--perfetto[=]PATH] [--reservation[=]RES_ID]"
               " [--once] [--refresh-ms=N] [--forensics-dir=PATH]\n"
               "       %s incident list|show|diff [--dir=FORENSICS_DIR]"
               " [--id=N] [--a=N] [--b=N]\n"
               "       %s history query|rate|p99 --series=NAME"
               " [--dir=FORENSICS_DIR] [--since=NS|Ns] [--until=NS|Ns]"
               " [--prefix]\n",
               prog, scenario_list().c_str(), prog, prog);
  return 2;
}

int query(const colibri::telemetry::MetricsSnapshot& m, const char* name) {
  if (auto it = m.counters.find(name); it != m.counters.end()) {
    std::printf("counter %s = %llu\n", name,
                static_cast<unsigned long long>(it->second));
    return 0;
  }
  if (auto it = m.gauges.find(name); it != m.gauges.end()) {
    std::printf("gauge %s = %lld\n", name,
                static_cast<long long>(it->second));
    return 0;
  }
  if (auto it = m.histograms.find(name); it != m.histograms.end()) {
    std::printf("histogram %s: count=%llu sum=%llu p50=%llu p99=%llu\n", name,
                static_cast<unsigned long long>(it->second.count),
                static_cast<unsigned long long>(it->second.sum),
                static_cast<unsigned long long>(
                    it->second.percentile_bound(0.50)),
                static_cast<unsigned long long>(
                    it->second.percentile_bound(0.99)));
    return 0;
  }
  std::fprintf(stderr, "no series named '%s'\n", name);
  return 1;
}

}  // namespace

int run_obs_cli(int argc, const char* const* argv) {
  ObsOptions opts;
  std::string command;  // "" = dump/query, "trace", "health", "watch"
  std::string dump = "all";
  std::string query_name;
  std::string perfetto_path;
  std::string reservation;  // trace --reservation: waterfall for one res
  bool once = false;        // watch --once: print the final frame only
  int refresh_ms = 200;     // watch replay cadence
  int argi = 1;
  if (argi < argc && argv[argi][0] != '-') {
    // The forensics commands are offline: they read what a previous
    // (possibly dead) process wrote and never run a scenario.
    if (std::strcmp(argv[argi], "incident") == 0) {
      return run_incident_cli(argv[0], argc, argv, argi + 1);
    }
    if (std::strcmp(argv[argi], "history") == 0) {
      return run_history_cli(argv[0], argc, argv, argi + 1);
    }
    if (std::strcmp(argv[argi], "trace") == 0 ||
        std::strcmp(argv[argi], "health") == 0 ||
        std::strcmp(argv[argi], "watch") == 0 ||
        std::strcmp(argv[argi], "fleet") == 0) {
      command = argv[argi++];
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", argv[argi]);
      return usage(argv[0]);
    }
  }
  // The fleet command *is* the fleet scenario; an explicit conflicting
  // --scenario below still fails validation like any other bad name.
  if (command == "fleet") opts.scenario = "fleet";
  for (int i = argi; i < argc; ++i) {
    if (const char* v = arg_value(argv[i], "--dump")) {
      dump = v;
    } else if (const char* v = arg_value(argv[i], "--query")) {
      query_name = v;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (const char* v = arg_value(argv[i], "--refresh-ms")) {
      refresh_ms = std::atoi(v);
    } else if (const char* v = arg_value(argv[i], "--packets")) {
      opts.packets = std::atoi(v);
    } else if (const char* v = arg_value(argv[i], "--sample-every")) {
      opts.sample_every = static_cast<std::uint32_t>(std::atoi(v));
    } else if (const char* v = arg_value(argv[i], "--forensics-dir")) {
      opts.forensics_dir = v;
    } else if (const char* v = arg_value(argv[i], "--scenario")) {
      // A bad name fails the invocation instead of silently running
      // the default; the error names every valid scenario.
      const std::vector<std::string> names = obs_scenario_names();
      if (std::find(names.begin(), names.end(), v) == names.end()) {
        std::fprintf(stderr, "unknown scenario '%s' (valid: %s)\n", v,
                     scenario_list().c_str());
        return usage(argv[0]);
      }
      opts.scenario = v;
    } else if (const char* v = arg_value(argv[i], "--perfetto")) {
      perfetto_path = v;
    } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else if (const char* v = arg_value(argv[i], "--reservation")) {
      reservation = v;
    } else if (std::strcmp(argv[i], "--reservation") == 0 && i + 1 < argc) {
      reservation = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!reservation.empty() &&
      (command != "trace" ||
       reservation.find_first_not_of("0123456789") != std::string::npos)) {
    std::fprintf(stderr, "--reservation requires the trace command and a "
                         "numeric reservation id\n");
    return usage(argv[0]);
  }
  if (once && command != "watch" && command != "fleet") {
    std::fprintf(stderr, "--once requires the watch or fleet command\n");
    return usage(argv[0]);
  }

  const ObsArtifacts art = run_obs_scenario(opts);
  if (art.delivered == 0) {
    std::fprintf(stderr, "scenario failed: no packets delivered\n");
    return 1;
  }

  if (command == "trace") {
    if (!reservation.empty()) {
      // Hop-by-hop waterfall of the one trace that carried this
      // reservation's setup, bottleneck highlighted.
      const std::int64_t res_id = std::strtoll(reservation.c_str(), nullptr,
                                               10);
      const telemetry::AssembledTrace* t =
          telemetry::TraceAssembler::find_by_res_id(art.traces, res_id);
      if (t == nullptr) {
        std::fprintf(stderr, "no assembled trace for reservation %lld;"
                             " traced reservations:",
                     static_cast<long long>(res_id));
        for (const auto& tr : art.traces) {
          if (tr.res_id() >= 0) {
            std::fprintf(stderr, " %lld", static_cast<long long>(tr.res_id()));
          }
        }
        std::fputc('\n', stderr);
        return 1;
      }
      std::fputs(t->waterfall().c_str(), stdout);
      return 0;
    }
    if (perfetto_path.empty()) {
      std::fputs(art.perfetto_json.c_str(), stdout);
      return 0;
    }
    std::FILE* f = std::fopen(perfetto_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", perfetto_path.c_str());
      return 1;
    }
    std::fputs(art.perfetto_json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s: %zu trace events on %zu tracks "
                "(load in ui.perfetto.dev)\n",
                perfetto_path.c_str(), art.trace_events, art.trace_tracks);
    return 0;
  }
  if (command == "watch") {
    // The scenario already ran to completion under SimClock; watch
    // replays the dashboard frame rendered at each sampled window.
    // --once (tests, CI) skips the replay and prints the final frame.
    if (!once) {
      for (const std::string& frame : art.watch_frames) {
        std::fputs("\033[2J\033[H", stdout);
        std::fputs(frame.c_str(), stdout);
        std::fflush(stdout);
        if (refresh_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
        }
      }
      std::fputs("\033[2J\033[H", stdout);
    }
    std::fputs(art.watch_text.c_str(), stdout);
    // A monitoring surface that never sampled or evaluated anything is
    // a failure even when the scenario itself passed.
    return art.sampler_windows > 0 && art.alert_evaluations > 0 ? 0 : 1;
  }
  if (command == "fleet") {
    // Topology-wide federation table. --once (tests, CI) prints the
    // final table; the default replays the per-window tables like
    // watch does.
    if (!once) {
      for (const std::string& frame : art.watch_frames) {
        std::fputs("\033[2J\033[H", stdout);
        std::fputs(frame.c_str(), stdout);
        std::fflush(stdout);
        if (refresh_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
        }
      }
      std::fputs("\033[2J\033[H", stdout);
    }
    std::fputs(art.watch_text.c_str(), stdout);
    // A federation surface that never collected, or an audit that
    // found violations on this clean run, fails the invocation.
    return art.fleet_as_count > 0 && art.fleet_windows > 0 &&
                   art.audit_passes > 0 && art.audit_violations == 0
               ? 0
               : 1;
  }
  if (command == "health") {
    std::printf("# sharded gateway runtime: %zu shards, %llu rejected "
                "submissions, %zu stalled\n",
                art.health_shards,
                static_cast<unsigned long long>(art.health_rejected),
                art.stalled_shards);
    std::fputs(art.health_text.c_str(), stdout);
    return art.stalled_shards == 0 ? 0 : 1;
  }

  if (!query_name.empty()) return query(art.metrics, query_name.c_str());

  const bool all = dump == "all";
  if (all) {
    std::printf("# scenario: delivered=%d events=%zu flight_records=%zu\n\n",
                art.delivered, art.events_count, art.records_count);
  }
  if (all || dump == "metrics") {
    if (all) std::printf("## metrics (json)\n");
    std::printf("%s\n", art.metrics_json.c_str());
  }
  if (all || dump == "openmetrics") {
    if (all) std::printf("\n## metrics (openmetrics)\n");
    std::fputs(art.openmetrics.c_str(), stdout);
  }
  if (all || dump == "events") {
    if (all) std::printf("\n## events (jsonl)\n");
    std::fputs(art.events_jsonl.c_str(), stdout);
  }
  if (all || dump == "records") {
    if (all) std::printf("\n## flight records (jsonl)\n");
    std::fputs(art.records_jsonl.c_str(), stdout);
  }
  if (!(all || dump == "metrics" || dump == "openmetrics" ||
        dump == "events" || dump == "records")) {
    std::fprintf(stderr, "unknown --dump=%s\n", dump.c_str());
    return 2;
  }
  return 0;
}

}  // namespace colibri::app
