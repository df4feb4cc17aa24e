#include "colibri/telemetry/history.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace colibri::telemetry {
namespace {

// Frame kinds. A decoder meeting an unknown kind treats the rest of the
// segment as damaged (same stance as the reservation WAL): a new kind
// means a newer writer, and guessing at its framing would desync.
constexpr std::uint8_t kWindowFrame = 1;

constexpr char kSegmentPrefix[] = "history-";
constexpr char kSegmentSuffix[] = ".seg";

std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return buf;
}

// Parses the numeric index out of "history-<n>.seg"; nullopt for
// foreign files a directory backend may list.
std::optional<std::uint64_t> segment_index(std::string_view name) {
  const std::string_view prefix = kSegmentPrefix;
  const std::string_view suffix = kSegmentSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : name.substr(prefix.size(),
                                  name.size() - prefix.size() -
                                      suffix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

// --- varints ----------------------------------------------------------------

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_svarint(Bytes& out, std::int64_t v) { put_varint(out, zigzag(v)); }

// Checked varint reader over a frame payload.
struct PayloadReader {
  BytesView data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (pos < data.size() && shift < 64) {
      const std::uint8_t b = data[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    ok = false;
    return 0;
  }
  std::int64_t svarint() { return unzigzag(varint()); }
  std::string str(std::size_t n) {
    if (data.size() - pos < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
};

// --- series dictionary ------------------------------------------------------
// First use writes id + length + name; later uses write the id alone.
// Ids are dense and first-use ordered, so writer and reader stay in
// lockstep without any table frame.

void put_series(Bytes& out, const std::string& name,
                HistoryCodecState& state) {
  if (const auto it = state.ids.find(name); it != state.ids.end()) {
    put_varint(out, it->second);
    return;
  }
  const auto id = static_cast<std::uint32_t>(state.names.size());
  state.ids.emplace(name, id);
  state.names.push_back(name);
  put_varint(out, id);
  put_varint(out, name.size());
  append_bytes(out, BytesView(
                        reinterpret_cast<const std::uint8_t*>(name.data()),
                        name.size()));
}

std::string get_series(PayloadReader& r, HistoryCodecState& state) {
  const std::uint64_t id = r.varint();
  if (!r.ok) return {};
  if (id < state.names.size()) return state.names[id];
  if (id != state.names.size()) {  // ids are dense; a gap is corruption
    r.ok = false;
    return {};
  }
  const std::uint64_t len = r.varint();
  std::string name = r.str(len);
  if (!r.ok) return {};
  state.ids.emplace(name, static_cast<std::uint32_t>(id));
  state.names.push_back(name);
  return name;
}

}  // namespace

// --- frame codec ------------------------------------------------------------

Bytes encode_history_frame(const SampleWindow& w, HistoryCodecState& state) {
  Bytes payload;
  // Timestamps: the first frame of a segment anchors absolute time;
  // later frames ride deltas (start relative to the previous end —
  // normally zero, windows being contiguous — and end relative to
  // start, i.e. the window's elapsed time).
  if (state.first) {
    put_svarint(payload, w.start_ns);
  } else {
    put_svarint(payload, w.start_ns - state.prev_end_ns);
  }
  put_varint(payload, static_cast<std::uint64_t>(w.end_ns - w.start_ns));

  put_varint(payload, w.counter_deltas.size());
  for (const auto& [name, delta] : w.counter_deltas) {
    put_series(payload, name, state);
    put_varint(payload, delta);
  }

  // Gauges delta-encode against the series' previous level in this
  // segment (baseline 0), so a steady gauge costs one byte per window.
  put_varint(payload, w.gauges.size());
  for (const auto& [name, level] : w.gauges) {
    put_series(payload, name, state);
    std::int64_t& base = state.gauge_base[name];
    put_svarint(payload, level - base);
    base = level;
  }

  put_varint(payload, w.histogram_deltas.size());
  for (const auto& [name, h] : w.histogram_deltas) {
    put_series(payload, name, state);
    put_varint(payload, h.count);
    put_varint(payload, h.sum);
    std::uint64_t nonzero = 0;
    for (const std::uint64_t b : h.buckets) nonzero += b != 0;
    put_varint(payload, nonzero);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      put_varint(payload, i);
      put_varint(payload, h.buckets[i]);
    }
  }

  state.prev_end_ns = w.end_ns;
  state.first = false;

  // Frame head: kind, u32 length, payload; CRC spans the whole head so
  // damage anywhere in the frame — length byte included — is rejected.
  Bytes frame;
  frame.reserve(1 + 4 + payload.size() + 4);
  frame.push_back(kWindowFrame);
  put_le<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  append_bytes(frame, payload);
  put_le<std::uint32_t>(frame, reservation::crc32(frame));
  return frame;
}

std::optional<SampleWindow> decode_history_frame(BytesView data,
                                                 std::size_t& off,
                                                 HistoryCodecState& state) {
  if (data.size() - off < 1 + 4 + 4) return std::nullopt;
  const std::uint8_t kind = data[off];
  const std::uint32_t len = get_le<std::uint32_t>(data.data() + off + 1);
  if (data.size() - off < 1 + 4 + static_cast<std::size_t>(len) + 4) {
    return std::nullopt;
  }
  const std::uint32_t stored =
      get_le<std::uint32_t>(data.data() + off + 1 + 4 + len);
  if (reservation::crc32(data.subspan(off, 1 + 4 + len)) != stored) {
    return std::nullopt;
  }
  if (kind != kWindowFrame) return std::nullopt;

  // The CRC passed, so the payload is exactly what the writer framed;
  // a decode failure past this point (truncated varint, dictionary
  // gap) still returns nullopt and the caller discards the suffix.
  HistoryCodecState tentative = state;
  PayloadReader r{data.subspan(off + 1 + 4, len)};
  SampleWindow w;
  const std::int64_t start_delta = r.svarint();
  w.start_ns = tentative.first ? start_delta
                               : tentative.prev_end_ns + start_delta;
  w.end_ns = w.start_ns + static_cast<TimeNs>(r.varint());

  const std::uint64_t n_counters = r.varint();
  for (std::uint64_t i = 0; r.ok && i < n_counters; ++i) {
    std::string name = get_series(r, tentative);
    const std::uint64_t delta = r.varint();
    if (r.ok) w.counter_deltas.emplace(std::move(name), delta);
  }
  const std::uint64_t n_gauges = r.varint();
  for (std::uint64_t i = 0; r.ok && i < n_gauges; ++i) {
    std::string name = get_series(r, tentative);
    const std::int64_t delta = r.svarint();
    if (!r.ok) break;
    std::int64_t& base = tentative.gauge_base[name];
    base += delta;
    w.gauges.emplace(std::move(name), base);
  }
  const std::uint64_t n_hists = r.varint();
  for (std::uint64_t i = 0; r.ok && i < n_hists; ++i) {
    std::string name = get_series(r, tentative);
    HistogramSnapshot h;
    h.count = r.varint();
    h.sum = r.varint();
    const std::uint64_t nonzero = r.varint();
    for (std::uint64_t b = 0; r.ok && b < nonzero; ++b) {
      const std::uint64_t idx = r.varint();
      const std::uint64_t cnt = r.varint();
      if (idx >= kHistogramBuckets) {
        r.ok = false;
        break;
      }
      h.buckets[idx] = cnt;
    }
    if (r.ok) w.histogram_deltas.emplace(std::move(name), h);
  }
  if (!r.ok || r.pos != len) return std::nullopt;

  tentative.prev_end_ns = w.end_ns;
  tentative.first = false;
  state = std::move(tentative);
  off += 1 + 4 + static_cast<std::size_t>(len) + 4;
  return w;
}

// --- backends ---------------------------------------------------------------

std::vector<std::string> MemoryHistoryBackend::segments() const {
  std::vector<std::string> out;
  out.reserve(segs_.size());
  for (const auto& [name, _] : segs_) out.push_back(name);
  return out;
}

reservation::LogStorage& MemoryHistoryBackend::open(const std::string& name) {
  auto& slot = segs_[name];
  if (!slot) slot = std::make_unique<reservation::MemoryStorage>();
  return *slot;
}

void MemoryHistoryBackend::remove(const std::string& name) {
  segs_.erase(name);
}

reservation::MemoryStorage* MemoryHistoryBackend::segment(
    const std::string& name) {
  const auto it = segs_.find(name);
  return it == segs_.end() ? nullptr : it->second.get();
}

DirectoryHistoryBackend::DirectoryHistoryBackend(std::string dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
}

std::vector<std::string> DirectoryHistoryBackend::segments() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (segment_index(name)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

reservation::LogStorage& DirectoryHistoryBackend::open(
    const std::string& name) {
  auto& slot = open_[name];
  if (!slot) {
    slot = std::make_unique<reservation::FileStorage>(
        (std::filesystem::path(dir_) / name).string());
  }
  return *slot;
}

void DirectoryHistoryBackend::remove(const std::string& name) {
  open_.erase(name);
  std::error_code ec;
  std::filesystem::remove(std::filesystem::path(dir_) / name, ec);
}

// --- store ------------------------------------------------------------------

HistoryStore::HistoryStore(HistoryBackend& backend, HistoryConfig cfg,
                           MetricsRegistry* registry)
    : backend_(&backend), cfg_(cfg), registration_() {
  if (cfg_.max_segment_bytes == 0) cfg_.max_segment_bytes = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recover_locked();
  }
  registration_.rebind(registry, this);
}

void HistoryStore::recover_locked() {
  for (const std::string& name : backend_->segments()) {
    const auto idx = segment_index(name);
    if (!idx) continue;
    next_segment_index_ = std::max(next_segment_index_, *idx + 1);

    const Bytes raw = backend_->open(name).read_all();
    Segment seg;
    seg.name = name;
    seg.bytes = raw.size();
    HistoryCodecState state;
    std::size_t off = 0;
    while (off < raw.size()) {
      auto w = decode_history_frame(raw, off, state);
      if (!w) break;  // torn tail / corrupt frame: seal the prefix
      ++seg.windows;
      last_appended_end_ns_ = std::max(last_appended_end_ns_, w->end_ns);
      windows_.push_back(std::move(*w));
      ++stats_.frames_recovered;
    }
    if (off < raw.size()) {
      ++stats_.corrupt_segments;
      stats_.discarded_bytes += raw.size() - off;
    }
    ++stats_.segments_recovered;
    segments_.push_back(std::move(seg));
  }
  // Appends never continue a recovered segment — its tail may be torn,
  // and its codec state would have to be replayed byte-exactly. The
  // next append opens a fresh segment instead.
  writable_open_ = false;
}

void HistoryStore::rotate_locked() {
  segments_.push_back(Segment{segment_name(next_segment_index_++)});
  enc_ = HistoryCodecState{};
  writable_open_ = true;
}

void HistoryStore::compact_locked(TimeNs newest_end_ns) {
  const auto drop_oldest = [&] {
    backend_->remove(segments_.front().name);
    windows_.erase(windows_.begin(),
                   windows_.begin() + static_cast<std::ptrdiff_t>(
                                          segments_.front().windows));
    segments_.pop_front();
    ++stats_.segments_dropped;
  };
  if (cfg_.max_segments > 0) {
    while (segments_.size() > cfg_.max_segments) drop_oldest();
  }
  // The oldest segment's windows lead windows_; an empty one ended at 0.
  const auto front_end_ns = [&]() -> TimeNs {
    const std::size_t n = segments_.front().windows;
    return n == 0 ? 0 : windows_[n - 1].end_ns;
  };
  if (cfg_.retention_ns > 0) {
    while (segments_.size() > 1 &&
           front_end_ns() < newest_end_ns - cfg_.retention_ns) {
      drop_oldest();
    }
  }
}

void HistoryStore::append(const SampleWindow& w) {
  std::lock_guard<std::mutex> lock(mu_);
  // The current segment's windows end windows_.
  const Segment* cur = writable_open_ ? &segments_.back() : nullptr;
  const bool full =
      cur != nullptr &&
      (cur->bytes >= cfg_.max_segment_bytes ||
       (cur->windows != 0 &&
        w.end_ns - windows_[windows_.size() - cur->windows].start_ns >=
            cfg_.max_segment_age_ns));
  if (full) ++stats_.rotations;
  if (cur == nullptr || full) rotate_locked();

  const Bytes frame = encode_history_frame(w, enc_);
  Segment& seg = segments_.back();
  backend_->open(seg.name).append(frame);
  seg.bytes += frame.size();
  ++seg.windows;
  windows_.push_back(w);
  last_appended_end_ns_ = std::max(last_appended_end_ns_, w.end_ns);
  ++stats_.frames_appended;
  stats_.bytes_appended += frame.size();

  compact_locked(w.end_ns);
}

bool HistoryStore::append_latest(const WindowedSampler& sampler) {
  const std::optional<SampleWindow> w = sampler.latest_window();
  if (!w) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (w->end_ns <= last_appended_end_ns_) return false;
  }
  append(*w);
  return true;
}

std::vector<SampleWindow> HistoryStore::windows(TimeNs since_ns,
                                                TimeNs until_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto span = span_locked(since_ns, until_ns).windows;
  return {span.begin(), span.end()};
}

std::uint64_t HistoryStore::counter_delta(std::string_view series,
                                          TimeNs since_ns, TimeNs until_ns,
                                          bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_locked(since_ns, until_ns).counter_delta(series, prefix);
}

double HistoryStore::rate(std::string_view series, TimeNs since_ns,
                          TimeNs until_ns, bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_locked(since_ns, until_ns).rate(series, prefix);
}

HistogramSnapshot HistoryStore::histogram_delta(std::string_view series,
                                                TimeNs since_ns,
                                                TimeNs until_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_locked(since_ns, until_ns).histogram_delta(series);
}

std::optional<double> HistoryStore::percentile(std::string_view series,
                                               double q, TimeNs since_ns,
                                               TimeNs until_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_locked(since_ns, until_ns).percentile(series, q);
}

std::optional<std::int64_t> HistoryStore::gauge_level(std::string_view series,
                                                      TimeNs since_ns,
                                                      TimeNs until_ns,
                                                      bool prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  return span_locked(since_ns, until_ns).gauge_level(series, prefix);
}

std::size_t HistoryStore::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.size();
}

std::size_t HistoryStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

HistoryStats HistoryStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void HistoryStore::collect_metrics(MetricSink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  sink.counter("telemetry.history.frames_appended", stats_.frames_appended);
  sink.counter("telemetry.history.bytes_appended", stats_.bytes_appended);
  sink.counter("telemetry.history.rotations", stats_.rotations);
  sink.counter("telemetry.history.segments_dropped", stats_.segments_dropped);
  sink.counter("telemetry.history.frames_recovered", stats_.frames_recovered);
  sink.counter("telemetry.history.discarded_bytes", stats_.discarded_bytes);
  sink.gauge("telemetry.history.segments",
             static_cast<std::int64_t>(segments_.size()));
  sink.gauge("telemetry.history.windows",
             static_cast<std::int64_t>(windows_.size()));
}

}  // namespace colibri::telemetry
