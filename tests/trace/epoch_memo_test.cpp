// Tests for replay-epoch reuse (trace/epoch_memo.hpp): a replay that
// fast-forwards through recorded epochs ends exactly where one that
// simulates them ends, whichever end of a delivery an epoch was recorded
// and reused at; reuse stays off where an epoch's outcome is not a
// function of its key (a probe, a link fault); and an entry's size follows
// the ports an epoch touched, not its messages.
#include "trace/epoch_memo.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/recorder.hpp"
#include "patterns/synthetic.hpp"
#include "routing/relabel.hpp"
#include "trace/replayer.hpp"

namespace trace {
namespace {

using xgft::Topology;

/// Everything a replay leaves behind that a fast-forward could get wrong.
struct Outcome {
  sim::TimeNs makespan = 0;
  sim::NetworkStats stats;
  std::vector<sim::TimeNs> barriers;
  std::vector<sim::TimeNs> busy;
  std::uint32_t reused = 0;
  std::uint32_t simulated = 0;
  std::uint64_t eventsReused = 0;
};

Outcome replay(const Topology& topo, const patterns::PhasedPattern& app,
               const routing::Router& router, EpochMemo* memo) {
  sim::Network net(topo, sim::SimConfig{});
  const Mapping mapping = Mapping::sequential(app.numRanks);
  Replayer replayer(net, app, mapping, router, memo);
  Outcome out;
  out.makespan = replayer.run();
  out.stats = net.stats();
  out.barriers = replayer.barrierTimes();
  for (std::uint32_t g = 0; g < net.numGlobalPorts(); ++g) {
    out.busy.push_back(net.wireBusyNs(g));
  }
  out.reused = replayer.epochsReused();
  out.simulated = replayer.epochsSimulated();
  out.eventsReused = replayer.eventsReused();
  return out;
}

void expectSame(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.segmentsInjected, b.stats.segmentsInjected);
  EXPECT_EQ(a.stats.segmentsDelivered, b.stats.segmentsDelivered);
  EXPECT_EQ(a.stats.messagesDelivered, b.stats.messagesDelivered);
  EXPECT_EQ(a.stats.eventsProcessed, b.stats.eventsProcessed);
  EXPECT_EQ(a.stats.lastDeliveryNs, b.stats.lastDeliveryNs);
  EXPECT_EQ(a.stats.maxOutputQueueDepth, b.stats.maxOutputQueueDepth);
  EXPECT_EQ(a.stats.maxInputQueueDepth, b.stats.maxInputQueueDepth);
  EXPECT_EQ(a.stats.segmentsRerouted, b.stats.segmentsRerouted);
  EXPECT_EQ(a.stats.segmentsStranded, b.stats.segmentsStranded);
  EXPECT_EQ(a.stats.messagesDropped, b.stats.messagesDropped);
  EXPECT_EQ(a.stats.linkDownNs, b.stats.linkDownNs);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.busy, b.busy);
}

patterns::PhasedPattern phases(const std::vector<patterns::Pattern>& list) {
  patterns::PhasedPattern app;
  app.numRanks = list.front().numRanks();
  app.phases = list;
  return app;
}

TEST(EpochReuse, CountsEventsAlikeAtTheStartAndInsideADelivery) {
  // P's second replay starts inside the delivery that closes Q, its first
  // at t = 0, and Q's the other way round.  Q closes at rank 3, which
  // sends nothing in P, so P releases in rank order either way.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::Pattern p(4);
  p.add(0, 1, 4096);
  p.add(2, 3, 4096);
  patterns::Pattern q(4);
  q.add(1, 3, 8192);
  const patterns::PhasedPattern pq = phases({p, q});
  const patterns::PhasedPattern qp = phases({q, p});

  for (const bool pqFirst : {true, false}) {
    SCOPED_TRACE(pqFirst ? "P,Q then Q,P" : "Q,P then P,Q");
    const patterns::PhasedPattern& first = pqFirst ? pq : qp;
    const patterns::PhasedPattern& second = pqFirst ? qp : pq;
    EpochMemo memo;
    const Outcome recorded = replay(topo, first, *router, &memo);
    EXPECT_EQ(recorded.reused, 0u);
    EXPECT_EQ(recorded.simulated, 2u);
    expectSame(recorded, replay(topo, first, *router, nullptr));
    EXPECT_EQ(memo.stats().entries, 2u);

    const Outcome reused = replay(topo, second, *router, &memo);
    EXPECT_EQ(reused.reused, 2u);
    EXPECT_EQ(reused.simulated, 0u);
    EXPECT_EQ(reused.eventsReused, reused.stats.eventsProcessed);
    expectSame(reused, replay(topo, second, *router, nullptr));
  }
}

TEST(EpochReuse, StaysOffUnderAProbeOrAfterALinkFault) {
  // The two phases share one recorded epoch; a replay with a probe
  // attached, or on a network whose unused link went down and came back,
  // reuses it in neither.
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::Pattern p(4);
  p.add(0, 1, 4096);
  const patterns::PhasedPattern app = phases({p, p});
  EpochMemo memo;
  (void)replay(topo, app, *router, &memo);
  ASSERT_EQ(memo.stats().entries, 1u);

  obs::Recorder recorder(obs::RecorderConfig{});
  sim::Network observed(topo, sim::SimConfig{});
  observed.setProbe(&recorder);
  sim::Network faulted(topo, sim::SimConfig{});
  faulted.scheduleLinkDown(0, topo.numLinks() - 1);
  faulted.scheduleLinkUp(1, topo.numLinks() - 1);
  for (sim::Network* net : {&observed, &faulted}) {
    const Mapping mapping = Mapping::sequential(4);
    Replayer replayer(*net, app, mapping, *router, &memo);
    (void)replayer.run();
    EXPECT_EQ(replayer.epochsReused(), 0u);
    EXPECT_EQ(replayer.epochsSimulated(), 2u);
  }
}

TEST(EpochReuse, AnEntryHoldsThePortsAnEpochTouchedNotItsMessages) {
  // Fig. 4's workload: one alltoall:256 epoch of 65,280 messages.  A memo
  // keyed on the message list would hold megabytes; the entry holds one
  // busy time per wire at most.
  const Topology topo(xgft::xgft2(16, 16, 16));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::PhasedPattern app = phases({patterns::allToAll(256, 64)});
  EpochMemo memo;
  const Outcome outcome = replay(topo, app, *router, &memo);
  ASSERT_EQ(outcome.stats.messagesDelivered, 65'280u);
  const EpochMemoStats stats = memo.stats();
  ASSERT_EQ(stats.entries, 1u);
  const std::uint64_t ports = outcome.busy.size();
  EXPECT_LE(stats.bytes, ports * sizeof(sim::IdleDelta::PortBusy) + 1024);
  EXPECT_LT(stats.bytes, outcome.stats.messagesDelivered);
}

}  // namespace
}  // namespace trace
