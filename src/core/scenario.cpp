#include "core/scenario.hpp"

#include <charconv>
#include <stdexcept>

#include "patterns/register.hpp"
#include "routing/register.hpp"
#include "trace/harness.hpp"
#include "xgft/io.hpp"
#include "xgft/register.hpp"
#include "xgft/rng.hpp"

namespace core {

Registry<SchemeInfo>& schemeRegistry() {
  return populatedRegistry<SchemeInfo, routing::registerBuiltinSchemes>(
      "routing scheme");
}

Registry<PatternInfo>& patternRegistry() {
  return populatedRegistry<PatternInfo, patterns::registerBuiltinPatterns>(
      "pattern");
}

Registry<TopologyInfo>& topologyRegistry() {
  return populatedRegistry<TopologyInfo, xgft::registerBuiltinTopologies>(
      "topology preset");
}

Registry<SourceInfo>& sourceRegistry() {
  return populatedRegistry<SourceInfo, patterns::registerBuiltinSources>(
      "traffic source");
}

void SpecName::requireArity(std::size_t n) const {
  if (args.size() != n) {
    throw std::invalid_argument("'" + full + "' wants " + std::to_string(n) +
                                " argument(s), got " +
                                std::to_string(args.size()));
  }
}

std::uint32_t SpecName::argU32(std::size_t i) const {
  if (i >= args.size()) {
    throw std::invalid_argument("'" + full + "' is missing argument " +
                                std::to_string(i + 1));
  }
  const std::string& a = args[i];
  std::uint32_t v = 0;
  const auto [p, ec] = std::from_chars(a.data(), a.data() + a.size(), v);
  if (ec != std::errc{} || p != a.data() + a.size()) {
    throw std::invalid_argument("'" + full + "': argument '" + a +
                                "' wants an integer");
  }
  return v;
}

SpecName splitSpec(const std::string& spec) {
  SpecName out;
  out.full = spec;
  std::size_t start = 0;
  bool first = true;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    std::string part = spec.substr(
        start, colon == std::string::npos ? colon : colon - start);
    if (first) {
      out.name = std::move(part);
      first = false;
    } else {
      out.args.push_back(std::move(part));
    }
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return out;
}

SpecName joinSpec(std::string name, std::vector<std::string> args) {
  SpecName s;
  s.full = name;
  for (const std::string& a : args) s.full += ":" + a;
  s.name = std::move(name);
  s.args = std::move(args);
  return s;
}

xgft::Params makeTopoParams(const std::string& spec) {
  if (spec.rfind("XGFT(", 0) == 0) return xgft::parseParams(spec);
  const SpecName parsed = splitSpec(spec);
  return topologyRegistry().at(parsed.name).make(parsed.args);
}

std::uint64_t deriveSeed(std::uint64_t base, std::string_view role) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis.
  for (const char c : role) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV-1a 64 prime.
  }
  return xgft::hashMix(base, h);
}

const SchemeInfo& requireTableScheme(const std::string& routing,
                                     std::string_view why,
                                     std::string_view label) {
  const SchemeInfo& info = schemeRegistry().at(routing);
  if (info.mode == RouteMode::kTable) return info;
  std::string tables;
  const auto names = schemeRegistry().names();
  for (const std::string& name : *names) {
    if (schemeRegistry().at(name).mode != RouteMode::kTable) continue;
    if (!tables.empty()) tables += ", ";
    tables += name;
  }
  throw std::invalid_argument("routing scheme '" + routing + "' " +
                              std::string(why) + " (" + std::string(label) +
                              ": " + tables + ")");
}

const SchemeInfo& Scenario::schemeInfo() const {
  return schemeRegistry().at(routing);
}

bool Scenario::patternSeeded() const {
  return patternRegistry().at(splitSpec(pattern).name).seeded;
}

patterns::PhasedPattern Scenario::makeWorkload() const {
  const SpecName parsed = splitSpec(pattern);
  const PatternInfo& info = patternRegistry().at(parsed.name);
  PatternContext ctx;
  ctx.seed = deriveSeed(seed, "pattern");
  patterns::PhasedPattern app = info.make(parsed.args, ctx);
  app.name = pattern;
  if (msgScale != 1.0) {
    app = trace::scaleMessages(app, msgScale);
    app.name = pattern;
  }
  return app;
}

routing::RouterPtr Scenario::makeRouter(
    const xgft::Topology& t, const patterns::PhasedPattern& app) const {
  const SchemeInfo& info = requireTableScheme(
      routing,
      "builds no router: it picks ports per segment inside the simulator",
      "router schemes");
  RouterContext ctx;
  ctx.seed = seed;
  ctx.app = &app;
  return info.make(t, ctx);
}

std::unique_ptr<patterns::TrafficSource> Scenario::makeSource(
    patterns::Rank numRanks, sim::TimeNs startNs, sim::TimeNs stopNs) const {
  const SpecName parsed = splitSpec(source);
  const SourceInfo& info = sourceRegistry().at(parsed.name);
  SourceContext ctx;
  ctx.numRanks = numRanks;
  ctx.load = load;
  ctx.messageBytes = trace::scaledBytes(4096, msgScale);
  ctx.hostBytesPerNs = sim.linkGbps / 8.0;
  ctx.startNs = startNs;
  ctx.stopNs = stopNs;
  ctx.seed = deriveSeed(seed, "source");
  return info.make(parsed.args, ctx);
}

}  // namespace core
