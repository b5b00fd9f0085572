#include "fault/inject.hpp"

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fault {

namespace {

/// Owns every table patched for the plan, keyed by failed-link set so
/// repeated sets (a link failing, restoring, failing again) share one
/// patch, and the healthy table the restores swap back in.  The resolver
/// holds a raw pointer to the current one, which is why the caller keeps
/// the handle alive for the whole run.
struct InstalledState {
  std::shared_ptr<const core::CompiledRoutes> healthy;
  std::map<std::vector<xgft::LinkId>,
           std::shared_ptr<const core::CompiledRoutes>>
      tables;
};

}  // namespace

std::shared_ptr<void> installFaultPlan(
    sim::Network& net, const FaultPlan& plan,
    std::shared_ptr<const core::CompiledRoutes> healthy,
    trace::RouteSetResolver* resolver, const InstallOptions& opt) {
  if (resolver != nullptr && !healthy) {
    throw std::invalid_argument(
        "installFaultPlan: a resolver needs the healthy table it was built "
        "with");
  }
  net.setFaultPolicy(opt.policy);
  auto state = std::make_shared<InstalledState>();
  state->healthy = std::move(healthy);
  if (plan.empty()) return state;

  plan.scheduleOn(net);
  if (resolver == nullptr) return state;

  const auto tableFor =
      [state, &net,
       opt](std::vector<xgft::LinkId> failed) -> const core::CompiledRoutes* {
    if (failed.empty()) return state->healthy.get();
    auto it = state->tables.find(failed);
    if (it == state->tables.end()) {
      const DegradedTopology view(net.topology(), failed);
      it = state->tables
               .emplace(std::move(failed),
                        compileDegraded(state->healthy, view, opt.unreachable,
                                        opt.compileThreads)
                            .table)
               .first;
    }
    return it->second.get();
  };

  if (opt.applyStatic) {
    const std::vector<xgft::LinkId> atStart = plan.failedAt(0);
    if (!atStart.empty()) resolver->setCompiled(tableFor(atStart));
  }
  // Scheduled after scheduleOn's link events, so at an equal instant the
  // swap runs once the links have actually transitioned.  The failed set
  // at each transition is precomputed (it is a pure function of the plan),
  // so the callbacks do not reference the caller's plan object.
  for (const sim::TimeNs t : plan.transitionTimes()) {
    net.scheduleCallback(t, [resolver, tableFor,
                             failed = plan.failedAt(t)] {
      resolver->setCompiled(tableFor(failed));
    });
  }
  return state;
}

}  // namespace fault
