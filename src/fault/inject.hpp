// inject.hpp — Wiring a FaultPlan into a live simulation.
//
// installFaultPlan() is the one call sites use to make a network honour a
// failure plan:
//
//  1. the network's FaultPolicy is set (what happens to segments already
//     committed to a dead port — wait / strand / reroute);
//  2. every LinkFault is scheduled on the event queue
//     (kLinkDown/kLinkUp events, FaultPlan::scheduleOn);
//  3. when a resolver is supplied, each transition instant additionally
//     gets a callback that patches the job's healthy forwarding table
//     around the then-failed link set (compileDegraded) and swaps the
//     result into the resolver — messages injected after the transition
//     route around the failures, while messages already added keep the
//     choices they were resolved to and their old paths (that is what the
//     reroute policy is for).  A transition to an empty failed set (the
//     last restore) swaps the healthy table itself back in.
//
// Table swaps happen after the same-instant link events (insertion order
// at equal timestamps), so a patch always sees the network state it
// describes.  Identical failed-link sets share one patched table.
//
// The returned handle owns the patched tables and keeps the healthy one
// alive; keep it until the run completes, because the resolver holds a
// raw pointer to the table it currently reads.
#pragma once

#include <cstdint>
#include <memory>

#include "core/compiled_routes.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "sim/network.hpp"
#include "trace/route_resolver.hpp"

namespace fault {

struct InstallOptions {
  /// Applied via sim::Network::setFaultPolicy before anything is scheduled.
  sim::FaultPolicy policy = sim::FaultPolicy::kReroute;

  /// What a patch does with partitioned pairs.  kThrow aborts the run from
  /// inside the transition callback (the error surfaces out of
  /// Network::run); kDrop marks them unroutable so injection refuses and
  /// counts them.
  UnreachablePolicy unreachable = UnreachablePolicy::kDrop;

  /// Worker threads per degraded-table patch (0 = hardware concurrency).
  std::uint32_t compileThreads = 1;

  /// Skip the t = 0 table swap (transitions > 0 still patch).  Engines
  /// that memoize the static degraded table across jobs pass it to the run
  /// directly and set this false.
  bool applyStatic = true;
};

/// Installs @p plan on @p net as described above.  @p resolver may be null:
/// link events still fire and the fault policy still applies, but no table
/// is patched (per-segment schemes, or closed-loop runs that pre-compiled a
/// static degraded table).  When @p resolver is non-null it must be in
/// compiled mode and @p healthy must be the healthy table it was built
/// with (throws std::invalid_argument when it is null).  Returns the
/// keep-alive handle owning every patched table.
std::shared_ptr<void> installFaultPlan(
    sim::Network& net, const FaultPlan& plan,
    std::shared_ptr<const core::CompiledRoutes> healthy,
    trace::RouteSetResolver* resolver, const InstallOptions& opt = {});

}  // namespace fault
