// Persistent telemetry history: an append-only time-series log of
// WindowedSampler windows that survives the process (post-mortem
// forensics, ISSUE 10).
//
// The live monitoring plane (timeseries.hpp, alerts.hpp) dies with the
// process — exactly when a kill-and-restore chaos run needs it most. A
// HistoryStore makes the window ring durable: every cut SampleWindow is
// encoded as one compact binary frame (kind byte, u32 length, payload,
// u32 CRC spanning the whole head — the same framing discipline as the
// reservation WAL in reservation/persist) and appended to the current
// *segment*. Segments rotate by size and by age, old segments are
// compacted away by retention (count- and time-based), and recovery
// after a crash replays, per segment, the longest intact frame prefix —
// a torn tail or a flipped bit discards that segment's damaged suffix
// and nothing else.
//
// Frames are delta-encoded per series: within a segment, series names
// are interned into a first-use dictionary (later frames carry only the
// id), window timestamps are encoded relative to the previous frame,
// and gauge levels relative to the series' previous value. Counter and
// histogram entries are *already* per-window deltas, so their varints
// stay small. Every segment is self-contained — the dictionary and the
// gauge baselines reset at rotation — which is what lets recovery drop
// a damaged suffix without poisoning later segments, and lets a
// reopened store seal its predecessor's segments and append to a fresh
// one (never into a possibly-torn tail).
//
// Everything is Clock-free: timestamps come from the windows
// themselves, so a SimClock scenario writes a bit-identical store on
// every same-seed run. Queries run on the window engine of
// timeseries.hpp over absolute half-open [since, until) spans.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/reservation/persist.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri::telemetry {

// Where segments live. A backend names segments with lexically ordered
// strings (the store mints "history-<8 digits>.seg"); open() returns a
// byte sink/source for one segment (the backend owns it), remove()
// deletes one (retention compaction).
class HistoryBackend {
 public:
  virtual ~HistoryBackend() = default;
  virtual std::vector<std::string> segments() const = 0;  // sorted
  virtual reservation::LogStorage& open(const std::string& name) = 0;
  virtual void remove(const std::string& name) = 0;
};

// In-memory backend (tests, fault injection). Segments persist across
// HistoryStore instances sharing the backend, so kill-and-restore is a
// store reopen over the same backend. open() is virtual on purpose:
// tests subclass to wrap the returned storage in sim::FaultyStorage.
class MemoryHistoryBackend : public HistoryBackend {
 public:
  std::vector<std::string> segments() const override;
  reservation::LogStorage& open(const std::string& name) override;
  void remove(const std::string& name) override;

  // Tests: corrupt a segment's raw bytes at will.
  reservation::MemoryStorage* segment(const std::string& name);

 private:
  std::map<std::string, std::unique_ptr<reservation::MemoryStorage>> segs_;
};

// One file per segment under `dir` (created on first append). This is
// the on-disk store the colibri_obs history/incident commands read
// after the writing process is gone.
class DirectoryHistoryBackend : public HistoryBackend {
 public:
  explicit DirectoryHistoryBackend(std::string dir);

  std::vector<std::string> segments() const override;
  reservation::LogStorage& open(const std::string& name) override;
  void remove(const std::string& name) override;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<reservation::FileStorage>> open_;
};

struct HistoryConfig {
  // Rotate the current segment once its encoded size would exceed this.
  std::size_t max_segment_bytes = 256 * 1024;
  // ...or once it spans this much window time (end of the appended
  // window minus start of the segment's first window).
  TimeNs max_segment_age_ns = 3600 * kNsPerSec;
  // Retention: keep at most this many segments (the current one
  // included); the oldest are removed first. 0 = unlimited.
  std::size_t max_segments = 16;
  // Time-based retention: segments whose newest window ended more than
  // this before the newest appended window are removed. 0 = unlimited.
  TimeNs retention_ns = 0;
};

// Counters of one store instance (appends since open + what recovery
// found). Exported as telemetry.history.* when a registry is attached.
struct HistoryStats {
  std::uint64_t frames_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t rotations = 0;
  std::uint64_t segments_dropped = 0;  // retention compaction
  std::uint64_t frames_recovered = 0;  // intact frames found at open
  std::uint64_t segments_recovered = 0;
  std::uint64_t corrupt_segments = 0;  // had a damaged suffix
  std::uint64_t discarded_bytes = 0;   // torn/corrupt suffix bytes
};

// --- frame codec (exposed for tests) ---------------------------------------
// Encoder/decoder state for one segment's per-series dictionary and
// gauge baselines. A frame encoded with some state decodes only with
// the equal state — which is why segments are self-contained.
struct HistoryCodecState {
  std::vector<std::string> names;  // id -> name (first-use order)
  std::map<std::string, std::uint32_t> ids;
  std::map<std::string, std::int64_t> gauge_base;
  TimeNs prev_end_ns = 0;
  bool first = true;
};

// Encodes one window into a full frame (header + payload + CRC),
// advancing `state` exactly as the decoder will.
Bytes encode_history_frame(const SampleWindow& w, HistoryCodecState& state);
// Decodes the frame at `data[off...]`; advances `off` past it and
// returns the window, or nullopt on a torn/corrupt/unknown frame
// (leaving `off` untouched).
std::optional<SampleWindow> decode_history_frame(BytesView data,
                                                 std::size_t& off,
                                                 HistoryCodecState& state);

class HistoryStore : public MetricsSource {
 public:
  // Opening *is* recovery: every existing segment replays its longest
  // intact frame prefix into the in-memory window index, and the store
  // positions itself to append into a fresh segment (sealing old ones,
  // torn or not). `registry` (nullable) re-exports the stats.
  explicit HistoryStore(HistoryBackend& backend, HistoryConfig cfg = {},
                        MetricsRegistry* registry = nullptr);
  ~HistoryStore() override = default;

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  // Appends one window (one frame), rotating/compacting as configured.
  void append(const SampleWindow& w);
  // Appends the sampler's latest window if it is newer than the last
  // appended one — the one-line wiring for a monitoring loop:
  //   if (sampler.poll()) history.append_latest(sampler);
  // Returns true when a frame was appended.
  bool append_latest(const WindowedSampler& sampler);

  // --- queries -------------------------------------------------------------
  // Each reads WindowSpan::overlapping (timeseries.hpp): the half-open
  // [since, until); until = kUntilEnd reads to the end.
  static constexpr TimeNs kUntilEnd = std::numeric_limits<TimeNs>::max();

  // Windows overlapping the span, oldest first.
  std::vector<SampleWindow> windows(TimeNs since_ns = 0,
                                    TimeNs until_ns = kUntilEnd) const;
  // Counter increment summed over the span (`prefix` sums every series
  // starting with `series`, same convention as the sampler).
  std::uint64_t counter_delta(std::string_view series, TimeNs since_ns,
                              TimeNs until_ns, bool prefix = false) const;
  // Per-second rate over the span: summed delta / summed window time.
  double rate(std::string_view series, TimeNs since_ns, TimeNs until_ns,
              bool prefix = false) const;
  // Histogram increments merged over the span (count == 0: nothing).
  HistogramSnapshot histogram_delta(std::string_view series, TimeNs since_ns,
                                    TimeNs until_ns) const;
  // Windowed percentile over the span; nullopt when nothing recorded.
  std::optional<double> percentile(std::string_view series, double q,
                                   TimeNs since_ns, TimeNs until_ns) const;
  // Gauge level at the newest window in the span holding the series
  // (prefix = max across matching names); nullopt when there is none.
  std::optional<std::int64_t> gauge_level(std::string_view series,
                                          TimeNs since_ns, TimeNs until_ns,
                                          bool prefix = false) const;

  std::size_t window_count() const;
  std::size_t segment_count() const;
  HistoryStats stats() const;

  void collect_metrics(MetricSink& sink) const override;

 private:
  struct Segment {
    std::string name;
    std::size_t windows = 0;  // its run in windows_
    std::size_t bytes = 0;
  };

  void rotate_locked();
  void compact_locked(TimeNs newest_end_ns);
  void recover_locked();
  WindowSpan span_locked(TimeNs since_ns, TimeNs until_ns) const {
    return WindowSpan::overlapping(windows_, since_ns, until_ns);
  }

  HistoryBackend* backend_;
  HistoryConfig cfg_;

  mutable std::mutex mu_;
  std::deque<Segment> segments_;     // oldest first; back() = writable
  std::vector<SampleWindow> windows_;  // every segment's, oldest first
  bool writable_open_ = false;       // back() accepts appends
  std::uint64_t next_segment_index_ = 0;
  TimeNs last_appended_end_ns_ = std::numeric_limits<TimeNs>::min();
  HistoryCodecState enc_;  // writer-side state of the current segment
  HistoryStats stats_;

  ScopedSource registration_;
};

}  // namespace colibri::telemetry
