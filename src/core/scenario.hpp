// scenario.hpp — The registry-driven Scenario construction API.
//
// The paper's evaluation is a cross-product of {topology, routing scheme,
// traffic pattern} (Figs. 2/4/5).  This layer makes each axis an open,
// string-keyed registry instead of a hard-coded if-chain:
//
//  * schemeRegistry()   "d-mod-k", "Random", "colored", ... -> SchemeInfo
//  * patternRegistry()  "cg128", "ring", "uniform", ...     -> PatternInfo
//  * topologyRegistry() "xgft2", "kary", "paper-slim", ...  -> TopologyInfo
//  * sourceRegistry()   "poisson", "bursty", ...            -> SourceInfo
//
// The built-in entries self-register from their home modules (see
// routing/register.cpp, patterns/register.cpp, xgft/register.cpp), so
// adding a scheme or workload is one file in its own module — the engine,
// CLI and bench harnesses consume names only.  A Scenario is the value type
// tying one of each together (plus message scale, seed and simulator
// config); its make*() methods are the single construction path everything
// above the registries uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "patterns/pattern.hpp"
#include "patterns/source.hpp"
#include "routing/router.hpp"
#include "sim/config.hpp"
#include "xgft/params.hpp"

namespace core {

/// How the simulator consumes a scheme.  kTable schemes assign one static
/// route per (s, d) pair — they build a Router and can be compiled to flat
/// forwarding tables (CompiledRoutes).  kAdaptive and kSpray route per
/// segment inside the simulator; they have no Router factory and no static
/// contention analysis.  The engine turns the mode into a job's one
/// trace::Routing value (router, table, spray or adaptive).
enum class RouteMode : std::uint8_t { kTable, kAdaptive, kSpray };

/// Everything a Router factory may consult besides the topology.
struct RouterContext {
  std::uint64_t seed = 1;
  /// The workload, for pattern-aware schemes (Colored); null otherwise.
  const patterns::PhasedPattern* app = nullptr;
};

/// One registered routing scheme: behavioural traits plus the factory.
struct SchemeInfo {
  RouteMode mode = RouteMode::kTable;
  /// Route choice depends on the seed (Random, r-NCA-u/d, spray).
  bool seeded = false;
  /// Construction consults the workload (Colored) — cache keys must then
  /// include the pattern, scale and seed.
  bool patternAware = false;
  std::string summary;  ///< One line for --list-schemes.
  /// Builds the router; null for per-segment schemes (kAdaptive/kSpray).
  std::function<routing::RouterPtr(const xgft::Topology&,
                                   const RouterContext&)>
      make;
};

/// Seed handed to seeded pattern factories (derived from the job seed).
struct PatternContext {
  std::uint64_t seed = 1;
};

/// One registered workload family, keyed by the name before the first ':'.
struct PatternInfo {
  std::string usage;    ///< e.g. "ring:N" — shown by --list-patterns.
  std::string summary;  ///< One line for --list-patterns.
  /// The generated flows depend on PatternContext::seed (uniform,
  /// permutations) — such workloads cannot share a crossbar reference
  /// across seeds.
  bool seeded = false;
  std::function<patterns::PhasedPattern(const std::vector<std::string>& args,
                                        const PatternContext&)>
      make;
};

/// One registered topology preset, keyed like patterns ("xgft2:16:16:10").
struct TopologyInfo {
  std::string usage;
  std::string summary;
  std::function<xgft::Params(const std::vector<std::string>& args)> make;
};

/// Everything a traffic-source factory needs besides its spec args: the
/// run-derived parameters (rank count, offered load, message size, link
/// rate, measurement horizon) come from the Scenario, not the spec string,
/// so one registered source serves every topology and load point.
struct SourceContext {
  patterns::Rank numRanks = 0;
  double load = 0.5;  ///< Offered fraction of the per-host link rate.
  patterns::Bytes messageBytes = 4096;
  double hostBytesPerNs = 0.25;  ///< linkGbps / 8.
  sim::TimeNs startNs = 0;
  sim::TimeNs stopNs = 0;  ///< Arrivals stop here (end of measurement).
  std::uint64_t seed = 1;  ///< Already derived for the "source" role.
};

/// One registered open-loop traffic-source family ("poisson:uniform").
struct SourceInfo {
  std::string usage;    ///< e.g. "poisson:hotspot:PCT" — for --list-sources.
  std::string summary;  ///< One line for --list-sources.
  std::function<std::unique_ptr<patterns::TrafficSource>(
      const std::vector<std::string>& args, const SourceContext&)>
      make;
};

/// The process-wide registries.  First access registers the built-ins from
/// routing/, patterns/ and xgft/; later self-registrations (plugins, tests)
/// may add entries at any time — lookups are thread-safe.
[[nodiscard]] Registry<SchemeInfo>& schemeRegistry();
[[nodiscard]] Registry<PatternInfo>& patternRegistry();
[[nodiscard]] Registry<TopologyInfo>& topologyRegistry();
[[nodiscard]] Registry<SourceInfo>& sourceRegistry();

/// A colon-separated spec "name:arg1:arg2" split for registry dispatch.
struct SpecName {
  std::string full;
  std::string name;
  std::vector<std::string> args;

  /// Throws std::invalid_argument unless exactly @p n args were given.
  void requireArity(std::size_t n) const;

  /// Arg @p i parsed as u32; throws std::invalid_argument on malformed or
  /// missing values.
  [[nodiscard]] std::uint32_t argU32(std::size_t i) const;
};

[[nodiscard]] SpecName splitSpec(const std::string& spec);

/// Reassembles a SpecName from a registry key and its raw args (the inverse
/// of splitSpec) — used by factory adapters to report the full spec in
/// arity/parse errors.
[[nodiscard]] SpecName joinSpec(std::string name,
                                std::vector<std::string> args);

/// Resolves a topology spec: the paper notation "XGFT(h; m...; w...)" goes
/// through xgft::parseParams, anything else through topologyRegistry().
[[nodiscard]] xgft::Params makeTopoParams(const std::string& spec);

/// Derives an independent sub-seed for a named role ("pattern", "spray",
/// ...) from a base seed.  Stable across platforms and releases: FNV-1a
/// over the role name mixed through SplitMix64.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t base,
                                       std::string_view role);

/// The SchemeInfo of @p routing when it is a table scheme, the kind that
/// builds a Router.  Otherwise throws std::invalid_argument in the
/// registry-error shape — "routing scheme '<routing>' <why> (<label>: ...)"
/// listing every table scheme — as it does for an unknown name.
[[nodiscard]] const SchemeInfo& requireTableScheme(const std::string& routing,
                                                   std::string_view why,
                                                   std::string_view label);

/// One fully-specified simulation scenario: the unit the engine runs, the
/// CLI sweeps and the bench harnesses construct.
struct Scenario {
  xgft::Params topo = xgft::karyNTree(16, 2);
  std::string pattern = "cg128";     ///< patternRegistry() spec.
  std::string routing = "d-mod-k";   ///< schemeRegistry() name (canonical).
  double msgScale = 1.0;
  std::uint64_t seed = 1;
  sim::SimConfig sim = {};

  /// Open-loop streaming workload: a sourceRegistry() spec, or empty for
  /// closed-loop phase replay of `pattern`.  `load` is the offered load
  /// per host as a fraction of the link rate (only meaningful with a
  /// source).
  std::string source;
  double load = 0.5;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Traits of the configured scheme (throws on unknown names).
  [[nodiscard]] const SchemeInfo& schemeInfo() const;

  /// True when the workload's flows depend on the job seed.
  [[nodiscard]] bool patternSeeded() const;

  /// Instantiates the workload with message sizes already scaled by
  /// msgScale; seeded patterns draw from deriveSeed(seed, "pattern").
  /// Throws std::invalid_argument when a scaled size does not fit 64 bits
  /// (trace::scaledBytes).
  [[nodiscard]] patterns::PhasedPattern makeWorkload() const;

  /// Builds the router on @p t.  Per-segment schemes (adaptive, spray)
  /// have none: they throw requireTableScheme's error.  @p app is only
  /// consulted by pattern-aware schemes.
  [[nodiscard]] routing::RouterPtr makeRouter(
      const xgft::Topology& t, const patterns::PhasedPattern& app) const;

  /// Instantiates the open-loop source named by `source` for @p numRanks
  /// injecting hosts, offering in [startNs, stopNs).  Message size is
  /// 4096 bytes scaled by msgScale; the seed is deriveSeed(seed, "source").
  /// Throws on an empty/unknown source spec, and std::invalid_argument
  /// when the scaled size does not fit 64 bits (trace::scaledBytes).
  [[nodiscard]] std::unique_ptr<patterns::TrafficSource> makeSource(
      patterns::Rank numRanks, sim::TimeNs startNs, sim::TimeNs stopNs) const;
};

}  // namespace core
