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
//     gets a callback that recompiles the scheme's forwarding tables
//     against the then-failed link set (compileDegraded) and swaps them
//     into the resolver — messages injected after the transition route
//     around the failures, while messages already added keep pointing
//     into the table they were resolved through and keep their old paths
//     (that is what the reroute policy is for).
//
// Table swaps happen after the same-instant link events (insertion order
// at equal timestamps), so a recompile always sees the network state it
// describes.  Identical failed-link sets share one compiled table.
//
// The returned handle owns the recompiled tables; keep it alive until the
// run completes (the resolver and the messages hold raw pointers into
// them).
#pragma once

#include <cstdint>
#include <memory>

#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "routing/router.hpp"
#include "sim/network.hpp"
#include "trace/route_resolver.hpp"

namespace fault {

struct InstallOptions {
  /// Applied via sim::Network::setFaultPolicy before anything is scheduled.
  sim::FaultPolicy policy = sim::FaultPolicy::kReroute;

  /// What a recompile does with partitioned pairs.  kThrow aborts the run
  /// from inside the recompile callback (the error surfaces out of
  /// Network::run); kDrop marks them unroutable so injection refuses and
  /// counts them.
  UnreachablePolicy unreachable = UnreachablePolicy::kDrop;

  /// Worker threads per degraded-table compile (0 = hardware concurrency).
  std::uint32_t compileThreads = 1;

  /// Skip the t = 0 table swap (transitions > 0 still recompile).  Engines
  /// that memoize the static degraded table across jobs pass it to the run
  /// directly and set this false.
  bool applyStatic = true;
};

/// Installs @p plan on @p net as described above.  @p resolver may be null:
/// link events still fire and the fault policy still applies, but no table
/// recompilation happens (per-segment schemes, or closed-loop runs that
/// pre-compiled a static degraded table).  When @p resolver is non-null it
/// must be in compiled mode and @p router must be the scheme it resolves
/// for.  Returns the keep-alive handle owning every recompiled table.
std::shared_ptr<void> installFaultPlan(
    sim::Network& net, const FaultPlan& plan,
    std::shared_ptr<const routing::Router> router,
    trace::RouteSetResolver* resolver, const InstallOptions& opt = {});

}  // namespace fault
