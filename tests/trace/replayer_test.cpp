// Tests for the trace IR and the replay engine's MPI-like semantics.
#include "trace/replayer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "../sim/route_sets.hpp"
#include "patterns/applications.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

namespace trace {
namespace {

using xgft::Topology;

TEST(Trace, FromPhasesStructure) {
  const patterns::PhasedPattern cg = patterns::cgD128(1024);
  const Trace t = traceFromPhases(cg);
  EXPECT_EQ(t.numRanks, 128u);
  // Four full phases of 128 plus phase 5's 112 non-self flows.
  EXPECT_EQ(t.numMessages(), 4u * 128u + 112u);
  // Every rank's program ends with WaitAll + Barrier.
  for (const auto& program : t.programs) {
    ASSERT_GE(program.size(), 2u);
    EXPECT_EQ(program[program.size() - 2].kind, OpKind::kWaitAll);
    EXPECT_EQ(program.back().kind, OpKind::kBarrier);
  }
}

TEST(Trace, SelfFlowsAreDropped) {
  patterns::Pattern p(4);
  p.add(2, 2, 100);
  p.add(0, 1, 100);
  const Trace t = traceFromPattern(p);
  EXPECT_EQ(t.numMessages(), 1u);
}

TEST(Replayer, SingleExchangeCompletes) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::Pattern p(16);
  p.add(0, 9, 4096);
  p.add(9, 0, 4096);
  sim::Network net(topo, sim::SimConfig{});
  const Trace t = traceFromPattern(p);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(16);
  Replayer replayer(net, t, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  EXPECT_GT(makespan, 0u);
  EXPECT_EQ(net.stats().messagesDelivered, 2u);
  // Both ranks finish at the barrier, i.e. at the same time.
  EXPECT_EQ(replayer.finishTimeOf(0), replayer.finishTimeOf(9));
}

TEST(Replayer, PhasesDoNotOverlap) {
  // Two identical phases must take (almost exactly) twice one phase.
  const Topology topo(xgft::xgft2(4, 4, 4));
  patterns::Pattern p(16);
  for (patterns::Rank r = 0; r < 16; ++r) p.add(r, (r + 4) % 16, 64 * 1024);
  const routing::RouterPtr router = routing::makeDModK(topo);

  const auto timeOf = [&](std::uint32_t phases) {
    patterns::PhasedPattern app;
    app.numRanks = 16;
    for (std::uint32_t i = 0; i < phases; ++i) app.phases.push_back(p);
    return runApp(topo, *router, app).makespanNs;
  };
  const sim::TimeNs one = timeOf(1);
  const sim::TimeNs two = timeOf(2);
  EXPECT_NEAR(static_cast<double>(two), 2.0 * static_cast<double>(one),
              0.02 * static_cast<double>(one));
}

TEST(Replayer, BarrierSynchronizesUnequalRanks) {
  // Rank 0 computes for 1 ms while the others idle at the barrier; all
  // finish together at ~1 ms.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 4;
  t.programs.resize(4);
  t.programs[0].push_back(Op::compute(1'000'000));
  for (patterns::Rank r = 0; r < 4; ++r) {
    t.programs[r].push_back(Op::barrier());
  }
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(4);
  Replayer replayer(net, t, mapping, *router);
  EXPECT_EQ(replayer.run(), 1'000'000u);
  for (patterns::Rank r = 0; r < 4; ++r) {
    EXPECT_EQ(replayer.finishTimeOf(r), 1'000'000u);
  }
}

TEST(Replayer, ARankArrivesAtABarrierOnce) {
  // Rank 0 waits at the barrier when its isend is delivered, and the
  // delivery wakes it there; rank 2 is still computing.  The barrier must
  // wait for rank 2 (regression: the wake counted rank 0 a second time, so
  // the barrier completed at the delivery, 20,780 ns, and passed rank 2
  // while it computed — rank 2 never arrived at all).
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 3;
  t.programs.resize(3);
  t.programs[0] = {Op::isend(1, 4096, 0), Op::barrier(), Op::waitAll()};
  t.programs[1] = {Op::barrier(), Op::irecv(0, 0), Op::waitAll()};
  t.programs[2] = {Op::compute(1'000'000), Op::barrier()};
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(3);
  Replayer replayer(net, t, mapping, *router);
  EXPECT_EQ(replayer.run(), 1'000'000u);
  EXPECT_EQ(net.stats().lastDeliveryNs, 20'780u);
  EXPECT_EQ(replayer.barrierTimes(), std::vector<sim::TimeNs>{1'000'000});
  for (patterns::Rank r = 0; r < 3; ++r) {
    EXPECT_EQ(replayer.finishTimeOf(r), 1'000'000u) << "rank " << r;
  }
}

TEST(Replayer, BlockingSendRecvPair) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 2;
  t.programs.resize(2);
  t.programs[0].push_back(Op::send(1, 1024, 7));
  t.programs[0].push_back(Op::compute(100));
  t.programs[1].push_back(Op::recv(0, 7));
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(2);
  Replayer replayer(net, t, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  // Rank 0's compute starts only after the delivery.
  EXPECT_EQ(makespan, net.stats().lastDeliveryNs + 100);
}

TEST(Replayer, UnexpectedMessagesBufferUntilPosted) {
  // The receive is posted after a compute delay longer than the message's
  // flight time: the arrival must be buffered and matched on post.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 2;
  t.programs.resize(2);
  t.programs[0].push_back(Op::isend(1, 1024, 0));
  t.programs[0].push_back(Op::waitAll());
  t.programs[1].push_back(Op::compute(10'000'000));
  t.programs[1].push_back(Op::recv(0, 0));
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(2);
  Replayer replayer(net, t, mapping, *router);
  EXPECT_EQ(replayer.run(), 10'000'000u);
}

TEST(Replayer, UnmatchedReceiveThrows) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 2;
  t.programs.resize(2);
  t.programs[1].push_back(Op::recv(0, 0));  // Nobody sends.
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(2);
  Replayer replayer(net, t, mapping, *router);
  EXPECT_THROW(replayer.run(), std::runtime_error);
}

TEST(Replayer, SingleUse) {
  // The replayer is documented single-use: a second run() must throw
  // (regression: it used to re-walk consumed rank state and return silent
  // garbage) and must leave the first run's results readable.
  const Topology topo(xgft::xgft2(4, 4, 2));
  patterns::Pattern p(4);
  p.add(0, 3, 4096);
  const Trace t = traceFromPattern(p);
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(4);
  Replayer replayer(net, t, mapping, *router);
  const sim::TimeNs makespan = replayer.run();
  EXPECT_GT(makespan, 0u);
  EXPECT_THROW(replayer.run(), std::logic_error);
  EXPECT_THROW(replayer.run(), std::logic_error);  // Still, on every retry.
  // The failed re-runs perturbed nothing.
  EXPECT_EQ(replayer.finishTimeOf(0), makespan);
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Replayer, TagsDisambiguateSameSourceMessages) {
  // Two messages of different sizes with distinct tags; the receiver posts
  // them in reverse order — counts must still match up.
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 2;
  t.programs.resize(2);
  t.programs[0].push_back(Op::isend(1, 1024, 1));
  t.programs[0].push_back(Op::isend(1, 2048, 2));
  t.programs[0].push_back(Op::waitAll());
  t.programs[1].push_back(Op::irecv(0, 2));
  t.programs[1].push_back(Op::irecv(0, 1));
  t.programs[1].push_back(Op::waitAll());
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping mapping = Mapping::sequential(2);
  Replayer replayer(net, t, mapping, *router);
  EXPECT_GT(replayer.run(), 0u);
  EXPECT_EQ(net.stats().messagesDelivered, 2u);
}

TEST(Replayer, RejectedConstructionLeavesNoSinkBehind) {
  // A throwing constructor must not leave the network pointing at the
  // destroyed replayer's injection process (regression: the rank-mismatch
  // check used to run after the sink was installed).
  const Topology topo(xgft::xgft2(4, 4, 2));
  Trace t;
  t.numRanks = 2;
  t.programs.resize(2);
  sim::Network net(topo, sim::SimConfig{});
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Mapping tooSmall = Mapping::sequential(1);
  EXPECT_THROW(Replayer(net, t, tooSmall, *router), std::invalid_argument);
  // Driving the network directly afterwards must not touch a dangling
  // sink.
  const sim::MsgId m = sim::addRouted(net, 0, 1, 1024, router->route(0, 1));
  net.release(m, 0);
  net.run();
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Mapping, SequentialAndValidation) {
  const Mapping m = Mapping::sequential(8);
  EXPECT_EQ(m.numRanks(), 8u);
  EXPECT_EQ(m.hostOf(5), 5u);
  EXPECT_THROW(Mapping::custom({0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Mapping::random(10, 5, 1), std::invalid_argument);
}

TEST(Mapping, RandomIsInjectiveAndDeterministic) {
  const Mapping a = Mapping::random(64, 256, 9);
  const Mapping b = Mapping::random(64, 256, 9);
  std::set<xgft::NodeIndex> hosts;
  for (patterns::Rank r = 0; r < 64; ++r) {
    EXPECT_EQ(a.hostOf(r), b.hostOf(r));
    EXPECT_TRUE(hosts.insert(a.hostOf(r)).second);
    EXPECT_LT(a.hostOf(r), 256u);
  }
}

}  // namespace
}  // namespace trace
