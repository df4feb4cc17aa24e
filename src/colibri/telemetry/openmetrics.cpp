#include "colibri/telemetry/openmetrics.hpp"

#include <cstdlib>

namespace colibri::telemetry {

namespace {

bool valid_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

void append_type_line(std::string& out, const std::string& name,
                      const char* type) {
  out += "# TYPE ";
  out += name;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

// Help text per series family, matched by longest internal-name prefix
// (order entries specific before generic).
struct HelpEntry {
  const char* prefix;
  const char* help;
};
constexpr HelpEntry kHelp[] = {
    {"router.stage.", "Wall time this border-router pipeline stage spent per batch, nanoseconds"},
    {"router.batch_occupancy", "Packets per processed border-router batch"},
    {"router.drop.", "Packets dropped by the border router, by reason"},
    {"router.forwarded", "Packets validated and forwarded to the next AS"},
    {"router.delivered", "Packets validated and delivered at the last hop"},
    {"gateway.stage.", "Wall time this gateway pipeline stage spent per batch chunk, nanoseconds"},
    {"gateway.batch_occupancy", "Packets per processed gateway batch chunk"},
    {"gateway.drop.", "Host packets refused by the gateway, by reason"},
    {"gateway.forwarded", "Host packets monitored, authenticated, and emitted"},
    {"gateway_shard.count", "Gateway shards currently configured"},
    {"gateway_shard.", "Per-shard gateway series (see the gateway family)"},
    {"gateway_runtime.shard.count", "Sharded-runtime worker shards"},
    {"gateway_runtime.", "Sharded-runtime health: ring depth, watermarks, rejections, heartbeats"},
    {"bus.", "Control-plane message bus"},
    {"events.", "Structured audit event log"},
    {"flight_recorder.", "Packet flight recorder"},
    {"telemetry.sampler.", "Windowed time-series sampler: windows cut and retained"},
    {"telemetry.alerts.", "Alert engine: rule states, evaluations, firing/resolved totals"},
    {"telemetry.slo.", "SLO error budgets: burn rate and remaining budget, milli-units"},
    {"telemetry.audit.", "Conservation auditor: passes, cross-AS checks, violations by kind"},
    {"fleet.rate.", "Fleet-wide per-second rollup of one counter family"},
    {"fleet.top.", "Space-saving heavy-hitter sketch: ranked reservation estimates"},
    {"fleet.", "Cross-AS metrics federation: members, links, windows, series budget"},
};

void append_help_line(std::string& out, const std::string& name,
                      std::string_view internal_name) {
  const char* help = openmetrics_help(internal_name);
  if (help == nullptr) return;
  out += "# HELP ";
  out += name;
  out.push_back(' ');
  out += openmetrics_escape_help(help);
  out.push_back('\n');
}

}  // namespace

const char* openmetrics_help(std::string_view internal_name) {
  const HelpEntry* best = nullptr;
  for (const HelpEntry& e : kHelp) {
    const std::string_view prefix(e.prefix);
    if (internal_name.substr(0, prefix.size()) == prefix &&
        (best == nullptr || prefix.size() > std::string_view(best->prefix).size())) {
      best = &e;
    }
  }
  return best == nullptr ? nullptr : best->help;
}

std::string openmetrics_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string openmetrics_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string openmetrics_name(std::string_view internal_name) {
  std::string out = "colibri_";
  for (const char c : internal_name) {
    out.push_back(valid_name_char(c) ? c : '_');
  }
  return out;
}

std::string to_openmetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(96 * (snapshot.counters.size() + snapshot.gauges.size()) +
              512 * snapshot.histograms.size() + 16);

  for (const auto& [name, v] : snapshot.counters) {
    const std::string n = openmetrics_name(name);
    append_help_line(out, n, name);
    append_type_line(out, n, "counter");
    out += n;
    out += "_total ";
    out += std::to_string(v);
    out.push_back('\n');
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string n = openmetrics_name(name);
    append_help_line(out, n, name);
    append_type_line(out, n, "gauge");
    out += n;
    out.push_back(' ');
    out += std::to_string(v);
    out.push_back('\n');
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = openmetrics_name(name);
    append_help_line(out, n, name);
    append_type_line(out, n, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // elide empty buckets (sparse)
      cumulative += h.buckets[i];
      // The last bucket is unbounded and folds into +Inf below.
      if (i + 1 >= h.buckets.size()) break;
      out += n;
      out += "_bucket{le=\"";
      out += openmetrics_escape_label(
          std::to_string(HistogramSnapshot::bucket_upper_bound(i)));
      out += "\"} ";
      out += std::to_string(cumulative);
      out.push_back('\n');
    }
    out += n;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(h.count);
    out.push_back('\n');
    out += n;
    out += "_sum ";
    out += std::to_string(h.sum);
    out.push_back('\n');
    out += n;
    out += "_count ";
    out += std::to_string(h.count);
    out.push_back('\n');
  }
  out += "# EOF\n";
  return out;
}

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// "<name>" or "<name>{<label>="<escaped>",...}"; returns false on
// malformed syntax. `name_end` gets the bare-name length.
bool valid_sample_name(std::string_view s, std::size_t& name_end) {
  std::size_t i = 0;
  while (i < s.size() && valid_name_char(s[i])) ++i;
  if (i == 0 || (s[0] >= '0' && s[0] <= '9')) return false;
  name_end = i;
  if (i == s.size()) return true;
  if (s[i] != '{') return false;
  ++i;
  while (i < s.size() && s[i] != '}') {
    std::size_t l = i;
    while (l < s.size() && valid_name_char(s[l])) ++l;
    if (l == i || s.substr(i, l - i).find(':') != std::string_view::npos) {
      return false;
    }
    if (l >= s.size() || s[l] != '=' || l + 1 >= s.size() ||
        s[l + 1] != '"') {
      return false;
    }
    i = l + 2;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;  // escaped char, skip its pair
      ++i;
    }
    if (i >= s.size()) return false;  // unterminated value
    ++i;
    if (i < s.size() && s[i] == ',') ++i;
  }
  if (i >= s.size()) return false;  // no closing '}'
  return i + 1 == s.size();
}

bool parse_value(std::string_view s, double& out) {
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

}  // namespace

std::optional<OpenMetricsExposition> parse_openmetrics(std::string_view text,
                                                       std::string* error) {
  OpenMetricsExposition exp;
  if (text.empty() || text.back() != '\n') {
    fail(error, "exposition must end with a newline");
    return std::nullopt;
  }
  bool saw_eof = false;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (saw_eof) {
      fail(error, where + "content after # EOF");
      return std::nullopt;
    }
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.empty()) {
      fail(error, where + "empty line");
      return std::nullopt;
    }
    if (line[0] == '#') {
      const bool is_type = line.substr(0, 7) == "# TYPE ";
      const bool is_help = line.substr(0, 7) == "# HELP ";
      if (!is_type && !is_help) {
        fail(error, where + "unknown comment line");
        return std::nullopt;
      }
      const std::string_view rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string_view::npos || sp == 0) {
        fail(error, where + "malformed metadata line");
        return std::nullopt;
      }
      const std::string family(rest.substr(0, sp));
      std::size_t name_end = 0;
      if (!valid_sample_name(family, name_end) || name_end != family.size()) {
        fail(error, where + "invalid family name '" + family + "'");
        return std::nullopt;
      }
      const std::string payload(rest.substr(sp + 1));
      if (is_type) {
        if (payload != "counter" && payload != "gauge" &&
            payload != "histogram") {
          fail(error, where + "unknown TYPE '" + payload + "'");
          return std::nullopt;
        }
        if (!exp.types.emplace(family, payload).second) {
          fail(error, where + "duplicate TYPE for " + family);
          return std::nullopt;
        }
      } else {
        if (exp.types.count(family) != 0) {
          // The spec orders HELP before TYPE; the emitter complies.
          fail(error, where + "HELP after TYPE for " + family);
          return std::nullopt;
        }
        if (!exp.helps.emplace(family, payload).second) {
          fail(error, where + "duplicate HELP for " + family);
          return std::nullopt;
        }
      }
      continue;
    }
    // Sample line: "<name>[{labels}] <value>". The value must consume
    // its whole field (timestamps are not emitted and not accepted).
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos || sp == 0 || sp + 1 >= line.size()) {
      fail(error, where + "malformed sample line");
      return std::nullopt;
    }
    const std::string name(line.substr(0, sp));
    std::size_t name_end = 0;
    if (!valid_sample_name(name, name_end)) {
      fail(error, where + "invalid sample name '" + name + "'");
      return std::nullopt;
    }
    double value = 0;
    if (!parse_value(line.substr(sp + 1), value)) {
      fail(error, where + "invalid sample value");
      return std::nullopt;
    }
    if (!exp.samples.emplace(name, value).second) {
      fail(error, where + "duplicate sample " + name);
      return std::nullopt;
    }
  }
  if (!saw_eof) {
    fail(error, "missing # EOF terminator");
    return std::nullopt;
  }
  return exp;
}

}  // namespace colibri::telemetry

