// openloop.hpp — The windowed open-loop experiment runner.
//
// One call runs a streaming traffic source against an XGFT under a routing
// scheme and reports a load–latency operating point: the run is split into
// warmup / measurement / drain windows (analysis/latency.hpp explains why
// that makes the point stationary), the source stops offering at the end
// of the measurement window, and the network then drains completely.
// Per-window accepted throughput comes from the delivery account; latency
// percentiles come from the fixed-bucket histogram over messages injected
// inside the measurement window.
//
// The execution stack is the shared streaming mechanism (DESIGN.md §8):
// sim::InjectionProcess pumps the source on the event queue and
// trace::RouteSetResolver adds each message as the run's Routing value
// says, so an open-loop run exercises exactly the injection/routing paths
// that phase replay does.  Window boundaries are Network::run(until)
// partial runs — the process is resumed across them with all queue state
// intact.
#pragma once

#include <functional>

#include "analysis/latency.hpp"
#include "patterns/source.hpp"
#include "sim/network.hpp"
#include "trace/route_resolver.hpp"

namespace trace {

struct OpenLoopOptions {
  /// Measurement windows: [0, warmup) settles the network, [warmup,
  /// warmup + measure) is measured, then the source stops and the run
  /// drains.  Callers configure the source's stop time to warmup + measure
  /// (engine::RunnerOptions and Scenario::makeSource do).
  sim::TimeNs warmupNs = 500'000;
  sim::TimeNs measureNs = 2'000'000;

  /// Latency histogram shape (see analysis::LatencyHistogram).
  std::uint64_t histBucketNs = 512;
  std::size_t histBuckets = std::size_t{1} << 16;

  /// Optional observation probe, attached to the run's Network before any
  /// traffic (sim/probe.hpp; non-perturbing).  Must outlive the call.
  sim::Probe* probe = nullptr;

  /// Optional fault-installation hook, called once the network and
  /// resolver exist and before any traffic: set the fault policy, schedule
  /// kLinkDown/kLinkUp events, swap in degraded forwarding tables
  /// (fault::installFaultPlan).  When set, unroutable pairs are refused
  /// and counted (NetworkStats::messagesDropped) instead of throwing.
  std::function<void(sim::Network&, RouteSetResolver&)> prepare;
};

struct OpenLoopResult {
  /// Latency digest of messages injected in the measurement window.
  analysis::LatencySummary latency;

  /// Delivery accounts: [0] warmup, [1] measurement, [2] drain.
  std::vector<analysis::WindowAccount> windows;

  /// Measured loads over the measurement window, as fractions of the
  /// per-host link payload rate.  offeredLoad counts bytes *injected* in
  /// the window (gap rounding and the bursty clamp make it deviate from
  /// the configured nominal, especially near line rate); acceptedLoad
  /// counts bytes delivered in it.
  double offeredLoad = 0.0;
  double acceptedLoad = 0.0;

  sim::TimeNs lastDeliveryNs = 0;
  sim::NetworkStats stats;

  /// Wire utilization over the whole run (warmup through drain), from
  /// Network::wireBusyNs: busiest wire and the mean over wires that
  /// carried traffic.
  double utilMax = 0.0;
  double utilMean = 0.0;
};

/// Runs @p source (ranks map to hosts sequentially; numRanks() must not
/// exceed the topology's hosts) on @p topo routed as @p mode says, exactly
/// as for trace::Replayer.
[[nodiscard]] OpenLoopResult runOpenLoop(const xgft::Topology& topo,
                                         Routing mode,
                                         patterns::TrafficSource& source,
                                         const OpenLoopOptions& opt = {},
                                         const sim::SimConfig& cfg = {});

}  // namespace trace
