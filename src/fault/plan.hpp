// plan.hpp — Deterministic, seed-derived link-failure plans.
//
// A FaultPlan is the fault subsystem's workload analogue: a validated list
// of link outages (each with a fail time and an optional restore time)
// built from a string spec through a registry, exactly like routing schemes
// and traffic patterns:
//
//   planRegistry()  "links:PCT", "switches:PCT", "uplinks-of:L:I",
//                   "timed:LINK:DOWN[:UP]", "none"     -> PlanInfo
//
// Static models (links/switches/uplinks-of) fail their selection at t = 0
// and never restore — the degraded-routing layer (degraded.hpp) recompiles
// forwarding tables around them before traffic starts.  The timed model
// fails one specific link mid-run (and optionally restores it), exercising
// the event core's kLinkDown/kLinkUp machinery.
//
// Determinism: seeded models (links/switches) draw their selection from a
// caller-provided seed via the shared SplitMix64 generator, so a plan is a
// pure function of (spec, topology, seed) — byte-identical across
// platforms, thread counts and repeats.  The engine derives the seed as
// deriveSeed(jobSeed, "fault").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "sim/config.hpp"
#include "xgft/topology.hpp"

namespace sim {
class Network;
}

namespace fault {

/// "Never restores" sentinel for LinkFault::upNs.
inline constexpr sim::TimeNs kNeverNs = std::numeric_limits<sim::TimeNs>::max();

/// One link outage: the link fails at downNs and restores at upNs
/// (kNeverNs: stays down for the rest of the run).
struct LinkFault {
  xgft::LinkId link = 0;
  sim::TimeNs downNs = 0;
  sim::TimeNs upNs = kNeverNs;

  friend bool operator==(const LinkFault&, const LinkFault&) = default;
};

/// A validated failure plan: which links fail, when, and whether they come
/// back.  Build through makeFaultPlan (registry specs) or aggregate-style
/// and call validate() before use.
struct FaultPlan {
  std::string spec;  ///< Canonical registry spec ("links:10"); "" for none.
  std::vector<LinkFault> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }

  /// Any fault whose transition happens after t = 0 (a mid-run failure or
  /// any restore)?  Static-only plans are fully handled by table
  /// recompilation; timed plans additionally need kLinkDown/kLinkUp events.
  [[nodiscard]] bool hasTimed() const;

  /// The links that are down at simulated time @p t, sorted ascending.
  [[nodiscard]] std::vector<xgft::LinkId> failedAt(sim::TimeNs t) const;

  /// Every distinct time > 0 at which the failed set changes (fail or
  /// restore instants), sorted ascending — the resolver-recompile points.
  [[nodiscard]] std::vector<sim::TimeNs> transitionTimes() const;

  /// Checks every link id against @p topo and every restore against its
  /// fail time; throws std::invalid_argument with the offending entry.
  void validate(const xgft::Topology& topo) const;

  /// Schedules every transition on @p net (scheduleLinkDown/scheduleLinkUp).
  /// The caller picks the sim::FaultPolicy separately.
  void scheduleOn(sim::Network& net) const;
};

/// One registered failure model, keyed by the name before the first ':'.
struct PlanInfo {
  std::string usage;    ///< e.g. "links:PCT" — shown by --list-faults.
  std::string summary;  ///< One line for --list-faults.
  /// The selection depends on the seed (percentage draws); deterministic
  /// models (uplinks-of, timed, none) ignore it, letting caches share the
  /// plan across seed sweeps.
  bool seeded = false;
  std::function<std::vector<LinkFault>(const core::SpecName& spec,
                                       const xgft::Topology& topo,
                                       std::uint64_t seed)>
      make;
};

/// The process-wide failure-model registry (uniform unknown-name errors,
/// same contract as core::schemeRegistry()).
[[nodiscard]] core::Registry<PlanInfo>& planRegistry();

/// Builds and validates the plan @p spec names against @p topo.  The spec
/// "none" (or "") yields an empty plan.  Seeded models draw from @p seed.
/// Throws the uniform registry error for unknown models and
/// std::invalid_argument for malformed arguments.
[[nodiscard]] FaultPlan makeFaultPlan(const std::string& spec,
                                      const xgft::Topology& topo,
                                      std::uint64_t seed);

}  // namespace fault
