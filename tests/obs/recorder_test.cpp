// Tests for the telemetry recorder (sim::Probe): the non-perturbation
// guarantee pinned by sim/probe.hpp — attaching a probe changes neither
// the makespan nor any NetworkStats field — plus hook-side accounting
// balance, bounded downsampling with period doubling, and event-log caps.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "../sim/route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace obs {
namespace {

using xgft::Topology;

/// The hotspot workload: every other host sends @p bytes to host 0.  The
/// fan-in guarantees queueing, blocking and multi-level wire activity.
sim::NetworkStats runHotspot(const Topology& topo, sim::Probe* probe,
                             sim::Bytes bytes) {
  const routing::RouterPtr router = routing::makeDModK(topo);
  sim::Network net(topo, sim::SimConfig{});
  if (probe != nullptr) net.setProbe(probe);
  for (xgft::NodeIndex s = 1; s < topo.numHosts(); ++s) {
    const sim::MsgId m = sim::addRouted(net, s, 0, bytes, router->route(s, 0));
    net.release(m, 0);
  }
  net.run();
  return net.stats();
}

TEST(Recorder, ObservationDoesNotPerturbTheSimulation) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const sim::NetworkStats plain = runHotspot(topo, nullptr, 16 * 1024);

  RecorderConfig cfg;
  cfg.samplePeriodNs = 1000;  // Deliberately misaligned with event times.
  cfg.recordEvents = true;
  Recorder rec(cfg);
  const sim::NetworkStats observed = runHotspot(topo, &rec, 16 * 1024);

  EXPECT_EQ(observed.lastDeliveryNs, plain.lastDeliveryNs);
  EXPECT_EQ(observed.messagesDelivered, plain.messagesDelivered);
  EXPECT_EQ(observed.segmentsInjected, plain.segmentsInjected);
  EXPECT_EQ(observed.segmentsDelivered, plain.segmentsDelivered);
  EXPECT_EQ(observed.maxOutputQueueDepth, plain.maxOutputQueueDepth);
  EXPECT_EQ(observed.maxInputQueueDepth, plain.maxInputQueueDepth);
  // Sampling ticks are excluded from the event count (network.hpp).
  EXPECT_EQ(observed.eventsProcessed, plain.eventsProcessed);
}

TEST(Recorder, HookAccountingBalances) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.recordEvents = true;
  Recorder rec(cfg);
  const sim::NetworkStats stats = runHotspot(topo, &rec, 16 * 1024);
  const RecorderSummary sum = rec.summary();

  EXPECT_EQ(sum.messagesReleased, 15u);
  EXPECT_EQ(sum.messagesDelivered, stats.messagesDelivered);
  // Exact peak == the network's own high-water marks.
  EXPECT_EQ(sum.peakQueueDepth,
            std::max(stats.maxOutputQueueDepth, stats.maxInputQueueDepth));
  EXPECT_GT(sum.peakInFlight, 0u);
  EXPECT_EQ(sum.eventsDropped, 0u);
  EXPECT_EQ(sum.eventsRecorded, rec.events().size());

  std::uint64_t releases = 0;
  std::uint64_t delivers = 0;
  std::uint64_t blocked = 0;
  std::uint64_t woken = 0;
  for (const TraceEvent& ev : rec.events()) {
    switch (ev.kind) {
      case EventKind::kRelease:
        ++releases;
        break;
      case EventKind::kDeliver:
        ++delivers;
        break;
      case EventKind::kBlocked:
        ++blocked;
        break;
      case EventKind::kWake:
        ++woken;
        break;
      case EventKind::kWireBusy:
        EXPECT_GT(ev.durNs, 0u);
        break;
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
        break;  // Healthy run: no fault transitions expected.
    }
  }
  EXPECT_EQ(releases, sum.messagesReleased);
  EXPECT_EQ(delivers, sum.messagesDelivered);
  // The run drains, so every parked input was eventually woken.
  EXPECT_EQ(blocked, woken);
  EXPECT_GT(blocked, 0u);  // The fan-in must block under default buffers.

  // Released endpoints are retrievable for span labelling.
  const MessageMeta meta = rec.messageMeta(rec.events().front().a);
  EXPECT_EQ(meta.dst, 0u);
  EXPECT_EQ(meta.bytes, 16u * 1024);
}

TEST(Recorder, SeriesStaysBoundedAndPeriodDoubles) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.samplePeriodNs = 64;
  cfg.maxSamples = 8;
  Recorder rec(cfg);
  runHotspot(topo, &rec, 64 * 1024);  // Makespan >> 8 * 64 ns.

  const SummarySeries& s = rec.series();
  ASSERT_GE(s.size(), cfg.maxSamples / 2);
  ASSERT_LE(s.size(), cfg.maxSamples);
  const RecorderSummary sum = rec.summary();
  EXPECT_GT(sum.effectivePeriodNs, 64u);
  // Doubling only: the effective period is 64 * 2^k.
  EXPECT_EQ(sum.effectivePeriodNs % 64, 0u);
  const sim::TimeNs ratio = sum.effectivePeriodNs / 64;
  EXPECT_EQ(ratio & (ratio - 1), 0u);

  ASSERT_EQ(s.numGroups(), s.groupLabels.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(s.t[i - 1], s.t[i]);
    }
    for (std::size_t g = 0; g < s.numGroups(); ++g) {
      EXPECT_GE(s.utilAt(i, g), 0.0);
      EXPECT_LE(s.utilAt(i, g), 1.0);
    }
  }
  // A two-level tree has all four link classes.
  EXPECT_EQ(s.groupLabels,
            (std::vector<std::string>{"hosts>L1", "L1>hosts", "L1>L2",
                                      "L2>L1"}));
}

TEST(Recorder, EventLogCapsAndCountsDrops) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.recordEvents = true;
  cfg.maxEvents = 4;
  Recorder rec(cfg);
  runHotspot(topo, &rec, 16 * 1024);

  EXPECT_EQ(rec.events().size(), 4u);
  const RecorderSummary sum = rec.summary();
  EXPECT_EQ(sum.eventsRecorded, 4u);
  EXPECT_GT(sum.eventsDropped, 0u);
  // Drop accounting never loses the scalar digests.
  EXPECT_EQ(sum.messagesDelivered, 15u);
}

TEST(Recorder, SamplingDisabledStillTracksExactPeaks) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.samplePeriodNs = 0;
  Recorder rec(cfg);
  const sim::NetworkStats stats = runHotspot(topo, &rec, 16 * 1024);

  EXPECT_EQ(rec.series().size(), 0u);
  const RecorderSummary sum = rec.summary();
  EXPECT_EQ(sum.samples, 0u);
  EXPECT_EQ(sum.peakQueueDepth,
            std::max(stats.maxOutputQueueDepth, stats.maxInputQueueDepth));
  EXPECT_EQ(sum.messagesDelivered, stats.messagesDelivered);
}

TEST(Recorder, RejectsUselessSeriesCapacity) {
  RecorderConfig cfg;
  cfg.samplePeriodNs = 100;
  cfg.maxSamples = 1;  // Cannot halve: would never admit a second sample.
  EXPECT_THROW(Recorder{cfg}, std::invalid_argument);
}

TEST(Recorder, SummaryPeaksEnvelopeSurvivesDownsampling) {
  // The sampled series may be halved many times, but pairwise-max merging
  // must keep every sampled gauge under the exact hook-side peak.
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.samplePeriodNs = 64;
  cfg.maxSamples = 4;
  Recorder rec(cfg);
  runHotspot(topo, &rec, 64 * 1024);
  const SummarySeries& s = rec.series();
  const RecorderSummary sum = rec.summary();
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(s.inFlight[i], sum.peakInFlight);
    EXPECT_LE(s.queuedSegments[i], sum.peakQueuedSegments);
    EXPECT_LE(s.maxQueueDepth[i], sum.peakQueueDepth);
    EXPECT_LE(s.blockedInputs[i], sum.peakBlockedInputs);
  }
}

}  // namespace
}  // namespace obs
