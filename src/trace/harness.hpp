// harness.hpp — One-call experiment driver.
//
// Reproduces the paper's measurement loop (Sec. VI-B): replay an application's
// phases (trace::Replayer) on an XGFT under a routing scheme, replay the same
// phases on the ideal single-stage Full-Crossbar, and report the slowdown
// ratio — the y-axis of Figs. 2 and 5.  A run routes as its trace::Routing
// value says (route_resolver.hpp): a router or table for the paper's static
// schemes, trace::Spray or trace::Adaptive for the per-segment extensions.
#pragma once

#include <memory>

#include "patterns/pattern.hpp"
#include "sim/network.hpp"
#include "trace/mapping.hpp"
#include "trace/replayer.hpp"

namespace trace {

struct RunResult {
  sim::TimeNs makespanNs = 0;
  sim::NetworkStats stats;
};

/// Replays @p app on @p topo routed as @p mode says (a router converts
/// implicitly; trace::Spray and trace::Adaptive route per segment), with
/// sequential placement.
[[nodiscard]] RunResult runApp(const xgft::Topology& topo, Routing mode,
                               const patterns::PhasedPattern& app,
                               const sim::SimConfig& cfg = {});

/// As runApp with an explicit placement.
[[nodiscard]] RunResult runApp(const xgft::Topology& topo, Routing mode,
                               const patterns::PhasedPattern& app,
                               const Mapping& mapping,
                               const sim::SimConfig& cfg);

/// Replays @p app on the ideal single-stage crossbar connecting exactly
/// app.numRanks hosts: same link speed and segmentation, unbounded switch
/// buffering, no routing choices — the paper's Full-Crossbar reference.
[[nodiscard]] RunResult runCrossbarReference(const patterns::PhasedPattern& app,
                                             const sim::SimConfig& cfg = {});

/// makespan(topo, mode) / makespan(Full-Crossbar): the paper's slowdown.
[[nodiscard]] double slowdownVsCrossbar(const xgft::Topology& topo,
                                        Routing mode,
                                        const patterns::PhasedPattern& app,
                                        const sim::SimConfig& cfg = {});

/// @p bytes times @p factor, rounded down and clamped to at least one byte.
/// Throws std::invalid_argument, naming the scaled size, when it does not
/// fit a 64-bit byte count (or is not a number).
[[nodiscard]] patterns::Bytes scaledBytes(patterns::Bytes bytes,
                                          double factor);

/// Scales every message of @p app by @p factor (>= 0) through scaledBytes.
/// Used by the bench harnesses' --msg-scale knob: the runs are
/// bandwidth-dominated, so slowdown ratios are insensitive to the scale
/// while wall-clock simulation cost drops linearly.
[[nodiscard]] patterns::PhasedPattern scaleMessages(
    const patterns::PhasedPattern& app, double factor);

}  // namespace trace
