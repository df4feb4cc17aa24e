// Twin-universe chaos harness (deterministic fault injection, ISSUE 8).
//
// Runs one fully-wired two-ISD deployment through a scripted adversity
// timeline — a probability window of dropped/duplicated/delayed control
// messages, a core-link outage that triggers a backup-reservation
// failover, and a kill-and-restore of one AS's CServ that replays a
// fault-torn WAL under live traffic — all driven by a SimClock and one
// seeded FaultInjector, so the whole scenario is bit-reproducible from
// its seed.
//
// The proof obligation is the *twin universe* check: the same workload
// run once with faults and once without must converge, after the faults
// clear and the traffic re-establishes, to an equivalent reservation
// end-state (structural digest: which reservations exist, on which
// paths, at which bandwidths — ignoring volatile ids/versions that
// legitimately diverge under retries). Recovery is correct exactly when
// the chaos leaves no scar.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "colibri/common/faults.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/topology/segment.hpp"

namespace colibri::topology {
class Topology;
}

namespace colibri::app {

class Testbed;

// The protected core link of the two-ISD chaos/failover scenarios:
// c1a <-> c2a, registered with the FaultInjector under a fixed link id.
inline constexpr AsId kProtectedLinkA{1, 100};
inline constexpr AsId kProtectedLinkB{2, 200};
inline constexpr std::uint64_t kProtectedLinkId = 1;

// Series filter for forensic capture (WindowedSamplerConfig::
// series_filter): false for the histograms that time real host
// execution (cserv.request_latency_ns, bus.hop_latency_ns), which never
// replay the same, so same-seed runs write identical history segments
// and incident bundles.
bool replayable_series(std::string_view name);

// The primary of the protection pair: the direct c1a -> c2a core SegR
// (lowest res_id when several exist). nullopt if provisioning failed.
std::optional<ResKey> find_primary_core_segr(Testbed& bed);

// The link-disjoint detour c1a -> c1b -> c2a, built from the topology
// (beacons only discover the direct core segment; the detour is an
// operator-provisioned protection path).
topology::PathSegment protection_backup_segment(
    const topology::Topology& topo);

struct ChaosOptions {
  std::uint64_t seed = 0xC0A05EEDULL;
  // Master switch: false runs the identical workload with no injector
  // attached — the "clean twin".
  bool faults = true;
  // Control-plane message fault window (probabilities are per delivery).
  double drop_p = 0.05;
  double dup_p = 0.02;
  double delay_p = 0.02;
  // Fail the c1a<->c2a core link mid-storm (drives the failover).
  bool fail_link = true;
  // Kill-and-restore the c2a CServ mid-storm, tearing the WAL append the
  // crash interrupts, then recover via restore_from_wal().
  bool crash_cserv = true;
  // Long-lived end-host sessions (ISD-1 children -> ISD-2 children).
  int sessions = 4;
  // Post-mortem forensics trail (telemetry/history, telemetry/incident):
  // when non-empty, the run writes its telemetry history to
  // `<forensics_dir>/history/` and its incident bundles to
  // `<forensics_dir>/incidents/` — the store a dead process leaves for
  // `colibri_obs history`/`incident`. Empty keeps the same pipeline on
  // an in-memory backend (every run still exercises the recorders).
  // The kill-and-restore closes and reopens the history store at the
  // crash, so the trail proves segment recovery under live traffic.
  std::string forensics_dir;
};

// Outcome of one universe run. `digest` is the structural end-state used
// for twin comparison; `history` is the canonical event-log transition
// history (JSON lines, seq numbers excluded) used for same-seed
// reproducibility.
struct ChaosReport {
  std::uint64_t seed = 0;
  bool faulted = false;
  std::string digest;
  std::string history;

  // Failover (initiating AS c1a).
  std::uint64_t cutovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t unprotected = 0;
  // Detection-to-cutover latency of the last cutover (ns), from the
  // failover event log; 0 when no cutover happened.
  std::uint64_t failover_latency_ns = 0;

  // Injected adversity (all zero in the clean twin).
  FaultStats faults;
  std::uint64_t wal_appends_faulted = 0;

  // Crash recovery.
  bool crash_restored = false;
  std::uint64_t wal_records_recovered = 0;

  // Post-mortem forensics trail.
  std::uint64_t history_frames = 0;            // appended over the run
  std::uint64_t history_frames_recovered = 0;  // at the mid-crash reopen
  std::uint64_t history_segments = 0;          // at scenario end
  std::uint64_t incident_bundles = 0;
  std::uint64_t incidents_suppressed = 0;
  std::string first_incident_rule;  // what the first bundle fired on
  // Live sampler values at scenario end over the retained ring's span
  // [monitor_span_start_ns, monitor_span_end_ns] — the ground truth a
  // reopened on-disk store's queries must agree with.
  TimeNs monitor_span_start_ns = 0;
  TimeNs monitor_span_end_ns = 0;
  std::uint64_t monitored_counter_total = 0;  // prefix-sum of all series

  // Workload health.
  std::uint64_t data_delivered = 0;
  std::uint64_t data_lost = 0;
  std::uint64_t session_reopens = 0;
  std::uint64_t renew_failures = 0;
  std::uint64_t open_failures = 0;
  int sessions_up = 0;  // live sessions at the end (should == sessions)
};

struct ChaosTwinReport {
  ChaosReport faulted;
  ChaosReport clean;
  bool converged = false;  // faulted.digest == clean.digest (non-empty)
};

// Runs one universe under `opts` (honoring opts.faults).
ChaosReport run_chaos_universe(const ChaosOptions& opts);

// Runs the faulted universe and its clean twin and compares digests.
ChaosTwinReport run_chaos_twins(ChaosOptions opts);

}  // namespace colibri::app
