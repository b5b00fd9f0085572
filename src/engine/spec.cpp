#include "engine/spec.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "fault/plan.hpp"

namespace engine {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("campaign spec: " + what);
}

bool parseU64(std::string_view s, std::uint64_t& out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && p == end;
}

std::uint64_t requireU64(const std::string& value, const std::string& key) {
  std::uint64_t v = 0;
  if (!parseU64(value, v)) fail("'" + key + "' wants an integer, got '" +
                                value + "'");
  return v;
}

std::uint32_t requireU32(const std::string& value, const std::string& key) {
  const std::uint64_t v = requireU64(value, key);
  if (v > 0xffffffffULL) fail("'" + key + "' out of range: " + value);
  return static_cast<std::uint32_t>(v);
}

double requireDouble(const std::string& value, const std::string& key) {
  double v = 0.0;
  const char* begin = value.data();
  const char* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || p != end) {
    fail("'" + key + "' wants a number, got '" + value + "'");
  }
  // from_chars accepts "nan" and "inf", which slip past range checks.
  if (!std::isfinite(v)) {
    fail("'" + key + "' wants a finite number, got '" + value + "'");
  }
  return v;
}

/// Splits a line into ordered (key, rawValue) pairs.  Values may be quoted
/// with double quotes (the quotes are stripped); a '#' outside quotes starts
/// a comment.
std::vector<std::pair<std::string, std::string>> tokenize(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> tokens;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;
    const std::size_t eq = line.find('=', i);
    if (eq == std::string::npos ||
        line.find_first_of(" \t", i) < eq) {
      fail("expected key=value at '" + line.substr(i) + "'");
    }
    std::string key = line.substr(i, eq - i);
    std::string value;
    i = eq + 1;
    if (i < n && line[i] == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string::npos) fail("unterminated quote in '" + line +
                                           "'");
      value = line.substr(i + 1, close - i - 1);
      i = close + 1;
    } else {
      const std::size_t end = line.find_first_of(" \t#", i);
      value = line.substr(i, end == std::string::npos ? end : end - i);
      i = end == std::string::npos ? n : end;
    }
    if (value.empty()) fail("empty value for key '" + key + "'");
    for (const auto& [seen, unused] : tokens) {
      // Last-wins would silently ignore the earlier assignment — a typo'd
      // sweep line must fail loudly instead.
      if (seen == key) fail("duplicate key '" + key + "'");
    }
    tokens.emplace_back(std::move(key), std::move(value));
  }
  return tokens;
}

/// One key's sweep: the values of a "{a,b,c}" list or a single value, or
/// an integer range "lo..hi" (inclusive, either direction) kept as its
/// bounds, so every sweep's size is known before any value is built.
struct Sweep {
  std::vector<std::string> items;  ///< Empty for a range.
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] std::uint64_t size() const {
    if (!items.empty()) return items.size();
    return (lo <= hi ? hi - lo : lo - hi) + 1;
  }
  [[nodiscard]] std::string at(std::uint64_t i) const {
    if (!items.empty()) return items[i];
    return std::to_string(lo <= hi ? lo + i : lo - i);
  }
};

Sweep parseSweep(const std::string& key, const std::string& raw) {
  Sweep sweep;
  // topo values embed commas; sweep them via the m1/m2/w2 family instead.
  if (key != "topo" && raw.size() >= 2 && raw.front() == '{' &&
      raw.back() == '}') {
    const std::string body = raw.substr(1, raw.size() - 2);
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = body.find(',', start);
      sweep.items.push_back(body.substr(
          start, comma == std::string::npos ? comma : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    for (const std::string& v : sweep.items) {
      if (v.empty()) fail("empty element in list '" + raw + "'");
    }
    return sweep;
  }
  const std::size_t dots = raw.find("..");
  if (key != "topo" && dots != std::string::npos) {
    if (!parseU64(raw.substr(0, dots), sweep.lo) ||
        !parseU64(raw.substr(dots + 2), sweep.hi)) {
      fail("malformed range '" + raw + "'");
    }
    // The width before the size: a full-width range's size wraps to 0.
    const std::uint64_t width =
        sweep.lo <= sweep.hi ? sweep.hi - sweep.lo : sweep.lo - sweep.hi;
    if (width >= kMaxCampaignJobs) {
      fail("range '" + raw + "' spans more than " +
           std::to_string(kMaxCampaignJobs) + " values");
    }
    return sweep;
  }
  sweep.items.push_back(raw);
  return sweep;
}

ExperimentSpec specFromAssignments(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  ExperimentSpec spec;
  bool haveTopo = false;
  bool haveFamily = false;
  bool havePattern = false;
  bool haveLoad = false;
  std::uint32_t m1 = 16;
  std::uint32_t m2 = 16;
  std::uint32_t w2 = 16;
  for (const auto& [key, value] : kv) {
    if (key == "topo") {
      spec.topo = core::makeTopoParams(value);
      haveTopo = true;
    } else if (key == "m1" || key == "m2" || key == "w2") {
      const std::uint32_t v = requireU32(value, key);
      (key == "m1" ? m1 : key == "m2" ? m2 : w2) = v;
      haveFamily = true;
    } else if (key == "pattern") {
      // Validate the family name now (fail at parse time with the
      // registry's uniform error); arguments are checked at build time.
      (void)core::patternRegistry().at(core::splitSpec(value).name);
      spec.pattern = value;
      havePattern = true;
    } else if (key == "source") {
      (void)core::sourceRegistry().at(core::splitSpec(value).name);
      spec.source = value;
    } else if (key == "load") {
      spec.load = requireDouble(value, key);
      if (spec.load <= 0.0 || spec.load > 4.0) {
        fail("load must be in (0, 4]");
      }
      haveLoad = true;
    } else if (key == "routing") {
      spec.routing = core::schemeRegistry().canonical(value);
    } else if (key == "msg_scale") {
      spec.msgScale = requireDouble(value, key);
      if (spec.msgScale <= 0.0) fail("msg_scale must be > 0");
    } else if (key == "seed") {
      spec.seed = requireU64(value, key);
    } else if (key == "faults") {
      if (value == "none") {
        spec.faults.clear();  // faults=none == absent key, byte for byte.
      } else {
        // Validate and canonicalize the model name now, like pattern=.
        const core::SpecName name = core::splitSpec(value);
        (void)fault::planRegistry().at(name.name);
        spec.faults =
            core::joinSpec(fault::planRegistry().canonical(name.name),
                           name.args)
                .full;
      }
    } else if (key == "telemetry") {
      spec.telemetry = parseTelemetryLevel(value);
    } else {
      // Mirror the registries' uniform unknown-name diagnostic so every
      // bad token in a campaign file reads the same way.
      fail("unknown campaign key '" + key +
           "' (known: topo, m1, m2, w2, pattern, source, load, routing, "
           "msg_scale, seed, faults, telemetry)");
    }
  }
  if (haveTopo && haveFamily) {
    fail("give either topo= or the m1/m2/w2 family, not both");
  }
  if (havePattern && !spec.source.empty()) {
    fail("give either pattern= (closed loop) or source= (open loop), "
         "not both");
  }
  if (haveLoad && spec.source.empty()) {
    fail("load= needs an open-loop source=");
  }
  if (haveFamily) spec.topo = xgft::xgft2(m1, m2, w2);
  return spec;
}

/// Expands @p line as expandCampaignLine does, refusing it from its sweep
/// sizes alone when its product exceeds kMaxCampaignJobs or @p budget (the
/// campaign's jobs still allowed).
std::vector<ExperimentSpec> expandLine(const std::string& line,
                                       std::uint64_t budget) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return {};
  std::vector<Sweep> sweeps;
  sweeps.reserve(tokens.size());
  std::uint64_t count = 1;
  for (const auto& [key, raw] : tokens) {
    sweeps.push_back(parseSweep(key, raw));
    // Every sweep holds at least one value, so count >= 1 and the
    // division guards the product against overflow.
    const std::uint64_t n = sweeps.back().size();
    if (n > kMaxCampaignJobs / count) {
      fail("line expands to more than " + std::to_string(kMaxCampaignJobs) +
           " jobs");
    }
    count *= n;
  }
  if (count > budget) {
    fail("campaign expands to more than " +
         std::to_string(kMaxCampaignJobs) + " jobs");
  }

  std::vector<ExperimentSpec> jobs;
  std::vector<std::uint64_t> cursor(tokens.size(), 0);
  while (true) {
    std::vector<std::pair<std::string, std::string>> kv;
    kv.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      kv.emplace_back(tokens[i].first, sweeps[i].at(cursor[i]));
    }
    jobs.push_back(specFromAssignments(kv));
    // Odometer increment, last key fastest.
    std::size_t i = tokens.size();
    while (i > 0) {
      --i;
      if (++cursor[i] < sweeps[i].size()) break;
      cursor[i] = 0;
      if (i == 0) return jobs;
    }
  }
}

}  // namespace

TelemetryLevel parseTelemetryLevel(const std::string& value) {
  if (value == "off") return TelemetryLevel::kOff;
  if (value == "summary") return TelemetryLevel::kSummary;
  if (value == "trace") return TelemetryLevel::kTrace;
  fail("unknown telemetry level '" + value +
       "' (known: off, summary, trace)");
}

std::string_view telemetryLevelName(TelemetryLevel level) {
  switch (level) {
    case TelemetryLevel::kOff: return "off";
    case TelemetryLevel::kSummary: return "summary";
    case TelemetryLevel::kTrace: return "trace";
  }
  return "off";
}

std::string formatShortest(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) fail("cannot format double");
  return std::string(buf, end);
}

std::string formatFixed(double v, int precision) {
  // Fixed notation of a huge double spends one char per integer digit
  // (~310 for DBL_MAX) before the fraction even starts.
  char buf[400];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                    precision);
  if (ec != std::errc{}) fail("cannot format double");
  return std::string(buf, end);
}

core::Scenario ExperimentSpec::scenario(const sim::SimConfig& sim) const {
  core::Scenario sc;
  sc.topo = topo;
  sc.pattern = pattern;
  sc.routing = routing;
  sc.msgScale = msgScale;
  sc.seed = seed;
  sc.sim = sim;
  sc.source = source;
  sc.load = load;
  return sc;
}

std::string ExperimentSpec::toLine() const {
  std::ostringstream os;
  os << "topo=\"" << topo.toString() << "\"";
  if (source.empty()) {
    os << " pattern=" << pattern;
  } else {
    os << " source=" << source << " load=" << formatShortest(load);
  }
  os << " routing=" << routing << " msg_scale=" << formatShortest(msgScale)
     << " seed=" << seed;
  // faults= and telemetry= render only when set, so healthy pre-fault
  // lines round-trip byte-exactly.
  if (!faults.empty()) os << " faults=" << faults;
  if (telemetry != TelemetryLevel::kOff) {
    os << " telemetry=" << telemetryLevelName(telemetry);
  }
  return os.str();
}

ExperimentSpec parseSpecLine(const std::string& line) {
  const std::vector<ExperimentSpec> jobs = expandCampaignLine(line);
  if (jobs.size() != 1) {
    fail("expected a single job, got a sweep of " +
         std::to_string(jobs.size()));
  }
  return jobs.front();
}

std::vector<ExperimentSpec> expandCampaignLine(const std::string& line) {
  return expandLine(line, kMaxCampaignJobs);
}

std::vector<ExperimentSpec> parseCampaign(std::istream& in) {
  std::vector<ExperimentSpec> jobs;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    try {
      std::vector<ExperimentSpec> expanded =
          expandLine(line, kMaxCampaignJobs - jobs.size());
      jobs.insert(jobs.end(), std::make_move_iterator(expanded.begin()),
                  std::make_move_iterator(expanded.end()));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("line " + std::to_string(lineNo) + ": " +
                                  e.what());
    }
  }
  return jobs;
}

std::vector<ExperimentSpec> parseCampaign(const std::string& text) {
  std::istringstream in(text);
  return parseCampaign(in);
}

patterns::PhasedPattern makeWorkload(const ExperimentSpec& spec) {
  return spec.scenario().makeWorkload();
}

}  // namespace engine
