// Tests for the conservative parallel engine (sim/shard.hpp): bit-exact
// equivalence with the serial core across shard counts — stats, delivery
// times, per-wire busy times, sink call order, run(until) resume points —
// plus the planner's fallback conditions and the mid-run fault abort.
#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "delivery_recorder.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "sim/probe.hpp"
#include "xgft/rng.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

using xgft::Topology;

/// A completion recorder whose deliveries are pure observations — the
/// deferrable contract the parallel engine needs from a sink.
class PassiveRecorder : public DeliveryRecorder {
 public:
  [[nodiscard]] bool deliveriesDeferrable() const override { return true; }
  /// Completion time per handle for @p messages messages added before the
  /// run (so no slot was recycled and handles are 0..messages-1); fails the
  /// test unless every one completed.
  [[nodiscard]] std::vector<TimeNs> timesByHandle(
      std::uint32_t messages) const {
    std::vector<TimeNs> times(messages, 0);
    for (const auto& [m, t] : deliveries) times.at(m) = t;
    EXPECT_EQ(deliveries.size(), messages);
    return times;
  }
};

/// Every NCA route of an (s, d) pair, in candidate order.
std::vector<xgft::Route> allRoutes(const Topology& topo, xgft::NodeIndex s,
                                   xgft::NodeIndex d) {
  std::vector<xgft::Route> routes;
  for (xgft::Count c = 0; c < topo.numNcas(s, d); ++c) {
    routes.push_back(routeViaNca(topo, s, d, c));
  }
  return routes;
}

/// A deterministic mixed workload: adaptive, sprayed-set and self messages
/// with hashed sources/destinations/sizes, released over [0, 40 us)
/// (dense enough that conservative windows hold real parallel batches).
void loadWorkload(Network& net, const Topology& topo, std::uint32_t count) {
  const auto hosts = static_cast<std::uint32_t>(topo.numHosts());
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto src =
        static_cast<xgft::NodeIndex>(xgft::hashMix(11, i, 0) % hosts);
    auto dst = static_cast<xgft::NodeIndex>(xgft::hashMix(11, i, 1) % hosts);
    if (i % 17 == 0) dst = src;  // Keep some local deliveries in the mix.
    const Bytes bytes = 1024 + 4096 * (xgft::hashMix(11, i, 2) % 4);
    const TimeNs release = xgft::hashMix(11, i, 3) % 40'000;
    MsgId m = 0;
    if (src == dst) {
      m = net.addMessage(src, dst, bytes, xgft::Route{});
    } else if (i % 3 == 0) {
      m = net.addMessageAdaptive(src, dst, bytes);
    } else {
      const RouteSet set = net.internRoutes(src, dst,
                                            allRoutes(topo, src, dst));
      m = net.addMessageSet(src, dst, bytes, set,
                            i % 3 == 1 ? SprayPolicy::kRoundRobin
                                       : SprayPolicy::kRandom,
                            /*spraySeed=*/99);
    }
    net.release(m, release);
  }
}

/// Everything the serial engine observably produces for one run.
struct RunOutput {
  NetworkStats stats;
  TimeNs end = 0;
  std::vector<TimeNs> delivery;
  std::vector<std::uint64_t> wire;
  std::vector<std::pair<MsgId, TimeNs>> sinkSeq;
};

void expectSameStats(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.segmentsInjected, b.segmentsInjected);
  EXPECT_EQ(a.segmentsDelivered, b.segmentsDelivered);
  EXPECT_EQ(a.messagesDelivered, b.messagesDelivered);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.lastDeliveryNs, b.lastDeliveryNs);
  EXPECT_EQ(a.maxOutputQueueDepth, b.maxOutputQueueDepth);
  EXPECT_EQ(a.maxInputQueueDepth, b.maxInputQueueDepth);
  EXPECT_EQ(a.segmentsRerouted, b.segmentsRerouted);
  EXPECT_EQ(a.segmentsStranded, b.segmentsStranded);
  EXPECT_EQ(a.messagesDropped, b.messagesDropped);
  EXPECT_EQ(a.linkDownNs, b.linkDownNs);
}

void expectSameOutput(const RunOutput& serial, const RunOutput& parallel) {
  expectSameStats(serial.stats, parallel.stats);
  EXPECT_EQ(serial.end, parallel.end);
  ASSERT_EQ(serial.delivery.size(), parallel.delivery.size());
  for (std::size_t m = 0; m < serial.delivery.size(); ++m) {
    EXPECT_EQ(serial.delivery[m], parallel.delivery[m]) << "message " << m;
  }
  ASSERT_EQ(serial.wire.size(), parallel.wire.size());
  for (std::size_t p = 0; p < serial.wire.size(); ++p) {
    EXPECT_EQ(serial.wire[p], parallel.wire[p]) << "gport " << p;
  }
  EXPECT_EQ(serial.sinkSeq, parallel.sinkSeq);
}

/// The large test fabric: XGFT(2; 16,16; 1,10), 256 hosts, 832 ports —
/// comfortably above the planner's minimum cut size.
xgft::Params bigParams() { return xgft::xgft2(16, 16, 10); }

RunOutput runWorkload(const Topology& topo, std::uint32_t messages,
                      std::uint32_t simThreads,
                      const std::vector<TimeNs>& resumePoints = {}) {
  Network net(topo, SimConfig{});
  PassiveRecorder rec;
  net.setSink(&rec);
  loadWorkload(net, topo, messages);
  for (const TimeNs until : resumePoints) {
    if (simThreads <= 1) {
      net.run(until);
    } else {
      runParallel(net, until, simThreads);
    }
  }
  if (simThreads <= 1) {
    net.run();
  } else {
    runParallel(net, std::numeric_limits<TimeNs>::max(), simThreads);
  }
  RunOutput out;
  out.stats = net.stats();
  out.end = net.now();
  out.delivery = rec.timesByHandle(messages);
  for (std::uint32_t p = 0; p < net.numGlobalPorts(); ++p) {
    out.wire.push_back(net.wireBusyNs(p));
  }
  out.sinkSeq = std::move(rec.deliveries);
  return out;
}

TEST(ParallelRun, PlansShardingOnTheBigFabric) {
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  const ParallelPlan plan = planParallelRun(net, 4);
  ASSERT_TRUE(plan.parallel);
  EXPECT_EQ(plan.shards, 4u);
  // W = min(switchLatencyNs = 100, serializationNs(0) = 32 at 2 Gb/s with
  // an 8 B header) — the serialization of a bare header bounds it.
  EXPECT_EQ(plan.windowNs, 32u);
  EXPECT_EQ(plan.fallbackReason, nullptr);
}

TEST(ParallelRun, ByteIdenticalAcrossShardCounts) {
  const Topology topo(bigParams());
  const RunOutput serial = runWorkload(topo, 1200, 1);
  // All messages must actually flow for the comparison to mean anything.
  EXPECT_EQ(serial.stats.messagesDelivered, 1200u);
  for (const std::uint32_t threads : {2u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    expectSameOutput(serial, runWorkload(topo, 1200, threads));
  }
}

TEST(ParallelRun, ByteIdenticalAcrossRunUntilResumes) {
  const Topology topo(bigParams());
  // Boundaries in mid-flight, at an exact event-free instant, and beyond
  // the drain; the engine must leave the queue in the serial state at
  // every one of them.
  const std::vector<TimeNs> resumes = {20'000, 20'000, 45'001, 10'000'000};
  const RunOutput serial = runWorkload(topo, 800, 1, resumes);
  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    expectSameOutput(serial, runWorkload(topo, 800, threads, resumes));
  }
}

TEST(ParallelRun, WorkloadActuallyExercisesShardWorkers) {
  // Guards the identity tests against silently degenerating into the
  // inline small-batch path: a meaningful share of events must run on
  // shard workers for the comparisons above to prove anything.
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  loadWorkload(net, topo, 1200);
  ParallelRunStats st;
  runParallel(net, std::numeric_limits<TimeNs>::max(), 4, &st);
  EXPECT_FALSE(st.fellBack);
  EXPECT_FALSE(st.aborted);
  EXPECT_GT(st.parallelBatches, 100u);
  EXPECT_GT(st.parallelEvents, 10'000u);
  EXPECT_GT(st.parallelEvents + st.inlineEvents + st.serialEvents, 50'000u);
}

TEST(ParallelRun, FallsBackWithOneThread) {
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  const ParallelPlan plan = planParallelRun(net, 1);
  EXPECT_FALSE(plan.parallel);
  EXPECT_NE(plan.fallbackReason, nullptr);
}

TEST(ParallelRun, FallsBackOnSmallTopology) {
  const Topology topo(xgft::xgft2(4, 4, 2));  // 48 ports.
  Network net(topo, SimConfig{});
  EXPECT_FALSE(planParallelRun(net, 4).parallel);
}

TEST(ParallelRun, FallsBackOnZeroLookahead) {
  const Topology topo(bigParams());
  SimConfig cfg;
  cfg.switchLatencyNs = 0;  // The ideal-crossbar configuration.
  Network net(topo, cfg);
  EXPECT_FALSE(planParallelRun(net, 4).parallel);
}

TEST(ParallelRun, FallsBackOnNonDeferrableSink) {
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  class ClosedLoopSink : public TrafficSink {
   public:
    void onMessageDelivered(MsgId, TimeNs) override {}
  } sink;
  net.setSink(&sink);
  EXPECT_FALSE(planParallelRun(net, 4).parallel);
  PassiveRecorder passive;
  net.setSink(&passive);
  EXPECT_TRUE(planParallelRun(net, 4).parallel);
}

TEST(ParallelRun, FallsBackOnAttachedProbe) {
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  class NullProbe : public Probe {
  } probe;
  net.setProbe(&probe);
  EXPECT_FALSE(planParallelRun(net, 4).parallel);
  net.setProbe(nullptr);
  EXPECT_TRUE(planParallelRun(net, 4).parallel);
}

TEST(ParallelRun, FallsBackOnScheduledFaults) {
  const Topology topo(bigParams());
  Network net(topo, SimConfig{});
  net.setFaultPolicy(FaultPolicy::kWait);
  net.scheduleLinkDown(1'000, topo.upLink(0, 0, 0));
  EXPECT_FALSE(planParallelRun(net, 4).parallel);
}

TEST(ParallelRun, PreScheduledFaultRunsIdenticallyViaFallback) {
  // runParallel with a pre-scheduled outage must quietly take the serial
  // path and still match the serial run byte for byte.
  const Topology topo(bigParams());
  const xgft::LinkId link = topo.upLink(1, 3, 2);
  const auto run = [&](std::uint32_t threads) {
    Network net(topo, SimConfig{});
    PassiveRecorder rec;
    net.setSink(&rec);
    net.setFaultPolicy(FaultPolicy::kWait);
    net.scheduleLinkDown(20'000, link);
    net.scheduleLinkUp(120'000, link);
    loadWorkload(net, topo, 200);
    if (threads <= 1) {
      net.run();
    } else {
      runParallel(net, std::numeric_limits<TimeNs>::max(), threads);
    }
    RunOutput out;
    out.stats = net.stats();
    out.end = net.now();
    out.delivery = rec.timesByHandle(200);
    return out;
  };
  const RunOutput serial = run(1);
  const RunOutput parallel = run(4);
  expectSameStats(serial.stats, parallel.stats);
  EXPECT_EQ(serial.end, parallel.end);
  EXPECT_EQ(serial.delivery, parallel.delivery);
  EXPECT_GT(serial.stats.linkDownNs, 0u);
}

TEST(ParallelRun, MidRunFaultScheduleAbortsToSerialIdentically) {
  // A healthy-looking run whose callback schedules a kLinkDown mid-run:
  // the parallel engine starts sharded, hits the callback, and must hand
  // the rest to the serial core with the total order intact.
  const Topology topo(bigParams());
  const xgft::LinkId link = topo.upLink(1, 5, 4);
  const auto run = [&](std::uint32_t threads) {
    Network net(topo, SimConfig{});
    net.setFaultPolicy(FaultPolicy::kWait);
    PassiveRecorder rec;
    net.setSink(&rec);
    loadWorkload(net, topo, 300);
    net.scheduleCallback(60'000, [&net, link] {
      net.scheduleLinkDown(75'000, link);
      net.scheduleLinkUp(110'000, link);
    });
    if (threads <= 1) {
      net.run();
    } else {
      EXPECT_TRUE(planParallelRun(net, threads).parallel);
      ParallelRunStats st;
      runParallel(net, std::numeric_limits<TimeNs>::max(), threads, &st);
      // The run must have started sharded and handed off at the fault.
      EXPECT_FALSE(st.fellBack);
      EXPECT_TRUE(st.aborted);
      EXPECT_GT(st.parallelEvents, 0u);
    }
    RunOutput out;
    out.stats = net.stats();
    out.end = net.now();
    out.delivery = rec.timesByHandle(300);
    for (std::uint32_t p = 0; p < net.numGlobalPorts(); ++p) {
      out.wire.push_back(net.wireBusyNs(p));
    }
    out.sinkSeq = std::move(rec.deliveries);
    return out;
  };
  const RunOutput serial = run(1);
  EXPECT_GT(serial.stats.linkDownNs, 0u);
  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    expectSameOutput(serial, run(threads));
  }
}

}  // namespace
}  // namespace sim
