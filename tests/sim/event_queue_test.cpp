// Tests for the per-delay FIFO lane event core: exact (t, insertion-seq)
// service order against a std::priority_queue reference model — lanes
// alone, lanes plus the overflow heap (more live delays than lanes, pushes
// earlier than their lane's tail, equal-time ties across both), ring growth,
// lane retagging, and every way a push can change the runner-up the
// one-compare pop path trusts — plus the until semantics Network::run(until)
// relies on, and the claims that the paper's workloads never need the heap
// and rarely rescan the lanes.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

#include "patterns/applications.hpp"
#include "patterns/source.hpp"
#include "routing/relabel.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"
#include "trace/harness.hpp"
#include "trace/mapping.hpp"
#include "trace/replayer.hpp"
#include "trace/route_resolver.hpp"
#include "xgft/rng.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

/// Reference model: the (t, seq) min-queue the event core must match.
struct RefEvent {
  TimeNs t;
  std::uint64_t seq;
  std::uint32_t a;
  bool operator>(const RefEvent& o) const {
    if (t != o.t) return t > o.t;
    return seq > o.seq;
  }
};

class Reference {
 public:
  void push(TimeNs t, std::uint32_t a) { q_.push(RefEvent{t, seq_++, a}); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] RefEvent pop() {
    RefEvent e = q_.top();
    q_.pop();
    return e;
  }
  [[nodiscard]] TimeNs topTime() const { return q_.top().t; }

 private:
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<RefEvent>>
      q_;
  std::uint64_t seq_ = 0;
};

/// Drains both queues fully, asserting identical (t, payload) order.
void expectSameDrain(EventQueue& q, Reference& ref) {
  EventRecord got{};
  while (ref.empty() ? false : true) {
    const RefEvent want = ref.pop();
    ASSERT_TRUE(q.popUntil(std::numeric_limits<TimeNs>::max(), got));
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.a, want.a);
  }
  EXPECT_FALSE(q.popUntil(std::numeric_limits<TimeNs>::max(), got));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyPopsNothing) {
  EventQueue q;
  EventRecord out{};
  EXPECT_FALSE(q.popUntil(std::numeric_limits<TimeNs>::max(), out));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 100; ++i) q.push(500, 0, i, 0);
  EventRecord out{};
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.popUntil(1000, out));
    EXPECT_EQ(out.a, i);
  }
}

TEST(EventQueue, KindRidesInTheTag) {
  EventQueue q;
  q.push(10, 5, 1, 2);
  EventRecord out{};
  ASSERT_TRUE(q.popUntil(10, out));
  EXPECT_EQ(out.kind(), 5);
  EXPECT_EQ(out.a, 1u);
  EXPECT_EQ(out.seg, 2u);
}

TEST(EventQueue, MatchesReferenceOnMixedRandomLoad) {
  // Interleaved pushes and pops over several time scales — six delays and
  // same-instant bursts, so lanes fill, drain and grow — all against the
  // reference order.
  EventQueue q;
  Reference ref;
  xgft::Rng rng(42);
  TimeNs now = 0;
  std::uint32_t id = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t r = rng.next() % 100;
    if (r < 60) {
      // Simulator-like deltas: 0, 20, 100, ~4096, plus occasional far
      // future and same-instant bursts.
      static constexpr TimeNs deltas[] = {0, 20, 100, 4096, 4128, 70000};
      const TimeNs t = now + deltas[rng.next() % 6];
      q.push(t, 0, id, 0);
      ref.push(t, id);
      ++id;
    } else if (!ref.empty()) {
      EventRecord got{};
      const RefEvent want = ref.pop();
      ASSERT_TRUE(q.popUntil(std::numeric_limits<TimeNs>::max(), got));
      ASSERT_EQ(got.t, want.t);
      ASSERT_EQ(got.a, want.a);
      now = got.t;
    }
  }
  expectSameDrain(q, ref);
}

TEST(EventQueue, BurstsAtOneInstantStayOrdered) {
  // The ideal-crossbar regime: thousands of events at identical times.
  EventQueue q;
  Reference ref;
  std::uint32_t id = 0;
  for (TimeNs t = 0; t < 10; ++t) {
    for (int i = 0; i < 2000; ++i) {
      q.push(t * 4128, 0, id, 0);
      ref.push(t * 4128, id);
      ++id;
    }
  }
  expectSameDrain(q, ref);
}

TEST(EventQueue, UntilBlocksWithoutConsuming) {
  EventQueue q;
  q.push(5000, 0, 1, 0);
  EventRecord out{};
  EXPECT_FALSE(q.popUntil(4999, out));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.popUntil(5000, out));
  EXPECT_EQ(out.a, 1u);
}

TEST(EventQueue, PushBeforeTheCursorAfterABlockedPop) {
  // run(until) semantics: after a blocked pop, a push earlier than
  // everything pending must still pop first.
  EventQueue q;
  // 200 pending far-future events ahead of the blocked pop.
  for (std::uint32_t i = 0; i < 200; ++i) q.push(1 << 20, 0, 1000 + i, 0);
  EventRecord out{};
  EXPECT_FALSE(q.popUntil(10, out));  // Nothing due yet.
  q.push(50, 0, 7, 0);                // Earlier than everything pending.
  ASSERT_TRUE(q.popUntil(std::numeric_limits<TimeNs>::max(), out));
  EXPECT_EQ(out.a, 7u);
  EXPECT_EQ(out.t, 50u);
}

TEST(EventQueue, DrainRefillCyclesSurviveModeChanges) {
  EventQueue q;
  Reference ref;
  std::uint32_t id = 0;
  TimeNs base = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Alternate tiny and large batches; each drains fully, so every lane
    // empties and the next batch retags them far in the future.
    const int n = (cycle % 2 == 0) ? 5 : 3000;
    for (int i = 0; i < n; ++i) {
      const TimeNs t = base + static_cast<TimeNs>(i % 97) * 64;
      q.push(t, 0, id, 0);
      ref.push(t, id);
      ++id;
    }
    expectSameDrain(q, ref);
    base += 1 << 24;  // Huge jump: the next batch is in a far slot.
  }
}

/// Pushes (t, id) into both queues.
void pushBoth(EventQueue& q, Reference& ref, TimeNs t, std::uint32_t id) {
  q.push(t, 0, id, 0);
  ref.push(t, id);
}

/// Pops one event from each queue, asserting they agree; returns it.
EventRecord popBoth(EventQueue& q, Reference& ref) {
  EventRecord got{};
  EXPECT_FALSE(ref.empty());
  const RefEvent want = ref.pop();
  EXPECT_TRUE(q.popUntil(std::numeric_limits<TimeNs>::max(), got));
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.a, want.a);
  return got;
}

TEST(EventQueue, MoreLiveDelaysThanLanesOverflowToTheHeap) {
  // Sixteen delays live at once, twice the lane count: the heap serves the
  // delays no lane holds, and the merge of both keeps the reference order.
  EventQueue q;
  Reference ref;
  xgft::Rng rng(7);
  std::uint32_t id = 0;
  const auto delay = [&rng] { return 37 * (1 + rng.next() % 16); };
  for (int i = 0; i < 64; ++i) pushBoth(q, ref, delay(), id++);
  for (int round = 0; round < 20000; ++round) {
    const EventRecord e = popBoth(q, ref);
    pushBoth(q, ref, e.t + delay(), id++);
  }
  EXPECT_GT(q.overflowPushes(), 0u);
  expectSameDrain(q, ref);
}

TEST(EventQueue, PushEarlierThanItsLaneTailGoesToTheHeap) {
  // A caller that pops a batch of events, pushes the successors of the
  // first one, then pushes the rest of the batch back in order: those
  // pushes are earlier than the last pop.
  EventQueue q;
  Reference ref;
  pushBoth(q, ref, 1000, 1);
  pushBoth(q, ref, 1010, 2);
  pushBoth(q, ref, 1020, 3);
  for (int i = 0; i < 3; ++i) popBoth(q, ref);  // The batch; last pop 1020.
  // Event 1 ran: its successor 4116 later is pushed 20 ns after its own
  // time, so its delay reads 4096 and it becomes that lane's tail.
  pushBoth(q, ref, 1000 + 4116, 4);
  pushBoth(q, ref, 1010, 2);  // Events 2 and 3 go back, in order.
  pushBoth(q, ref, 1020, 3);
  EXPECT_EQ(q.overflowPushes(), 0u);
  // Event 2 runs again at 1010, before the last pop: its successor 4096
  // later is earlier than the 4096 lane's tail.
  EXPECT_EQ(popBoth(q, ref).a, 2u);
  pushBoth(q, ref, 1010 + 4096, 5);
  EXPECT_EQ(q.overflowPushes(), 1u);
  expectSameDrain(q, ref);
}

TEST(EventQueue, EqualTimesAcrossLanesAndTheHeapPopInInsertionOrder) {
  // Each tie push follows a pop at a later instant, so all twenty are
  // measured from a different last pop and carry twenty different delays:
  // eight lanes take some, the heap the rest.
  EventQueue q;
  constexpr TimeNs kTie = 1'000'000;
  constexpr std::uint32_t kFiller = 999;
  EventRecord out{};
  for (std::uint32_t k = 0; k < 20; ++k) {
    q.push(k + 1, 0, kFiller, 0);
    ASSERT_TRUE(q.popUntil(kTie - 1, out));
    ASSERT_EQ(out.a, kFiller);
    q.push(kTie, 0, k, 0);
  }
  EXPECT_GE(q.overflowPushes(), 12u);
  for (std::uint32_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(q.popUntil(kTie, out));
    EXPECT_EQ(out.t, kTie);
    EXPECT_EQ(out.a, k);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RingGrowsWhileItsHeadIsWrapped) {
  // One delay only: every pop pushes two events one delay later, so the
  // lane's population climbs by one per step and each time its ring fills,
  // the pops have moved the head off slot 0 — the ring grows wrapped.
  EventQueue q;
  Reference ref;
  constexpr TimeNs kDelay = 4096;
  std::uint32_t id = 0;
  pushBoth(q, ref, kDelay, id++);
  for (int step = 0; step < 3000; ++step) {
    const EventRecord e = popBoth(q, ref);
    pushBoth(q, ref, e.t + kDelay, id++);
    pushBoth(q, ref, e.t + kDelay, id++);
  }
  EXPECT_EQ(q.size(), 3001u);
  EXPECT_EQ(q.overflowPushes(), 0u);
  expectSameDrain(q, ref);
}

TEST(EventQueue, DrainedLaneIsRetaggedForANewDelay) {
  EventQueue q;
  Reference ref;
  std::uint32_t id = 0;
  for (TimeNs k = 1; k <= 8; ++k) pushBoth(q, ref, 10 * k, id++);  // 8 lanes.
  EXPECT_EQ(popBoth(q, ref).t, 10u);  // Drains the delay-10 lane.
  pushBoth(q, ref, 10 + 95, id++);    // New delay: the drained lane.
  EXPECT_EQ(q.overflowPushes(), 0u);
  pushBoth(q, ref, 10 + 96, id++);    // Another: no lane is free.
  EXPECT_EQ(q.overflowPushes(), 1u);
  expectSameDrain(q, ref);
}

// The one-compare pop: the queue pops the current lane's head while it
// beats the runner-up, the least head of every other lane and of the heap.
// Each test below is a push that must lower the runner-up (or must not), or
// a pop on that path; each drains against the reference model.

TEST(EventQueueRunnerUp, PushIntoAnEmptyOtherLaneUndercutsIt) {
  // The current lane's next head (1100) is later than a push into a new
  // lane (1050): the pop must not take the current lane on the strength
  // of a runner-up (5000) that predates the push.
  EventQueue q;
  Reference ref;
  pushBoth(q, ref, 100, 0);
  pushBoth(q, ref, 1000, 1);
  pushBoth(q, ref, 5000, 2);
  EXPECT_EQ(popBoth(q, ref).a, 0u);
  pushBoth(q, ref, 1100, 3);  // Delay 1000: the lane of event 1.
  EXPECT_EQ(popBoth(q, ref).a, 1u);
  pushBoth(q, ref, 1050, 4);  // Delay 50: a new lane, ahead of 1100.
  EXPECT_EQ(popBoth(q, ref).a, 4u);
  EXPECT_EQ(popBoth(q, ref).a, 3u);
  EXPECT_EQ(q.overflowPushes(), 0u);
  expectSameDrain(q, ref);
}

TEST(EventQueueRunnerUp, PushIntoTheCurrentLaneAfterItDrained) {
  EventQueue q;
  Reference ref;
  pushBoth(q, ref, 100, 0);
  pushBoth(q, ref, 300, 1);
  EXPECT_EQ(popBoth(q, ref).a, 0u);  // Drains the current (delay-100) lane.
  const std::uint64_t scans = q.rescans();
  pushBoth(q, ref, 200, 2);  // Delay 100 again: refills the current lane.
  EXPECT_EQ(popBoth(q, ref).a, 2u);
  EXPECT_EQ(q.rescans(), scans) << "200 beats the runner-up: one compare";
  // Refilled again at 300, where the runner-up already waits: the tie goes
  // to the earlier push, so this pop must scan.
  pushBoth(q, ref, 300, 3);
  EXPECT_EQ(popBoth(q, ref).a, 1u);
  EXPECT_EQ(popBoth(q, ref).a, 3u);
  EXPECT_EQ(q.overflowPushes(), 0u);
  expectSameDrain(q, ref);
}

TEST(EventQueueRunnerUp, HeapPushUndercutsIt) {
  EventQueue q;
  Reference ref;
  pushBoth(q, ref, 100, 0);   // Lane tagged 100.
  pushBoth(q, ref, 1000, 1);  // Lane tagged 1000.
  EXPECT_EQ(popBoth(q, ref).a, 0u);
  pushBoth(q, ref, 1100, 2);  // Delay 1000: behind event 1.
  // Seven more delays fill every lane.
  for (std::uint32_t k = 0; k < 7; ++k) pushBoth(q, ref, 5000 + k, 10 + k);
  EXPECT_EQ(popBoth(q, ref).a, 1u);  // Current: the 1000 lane, head 1100.
  // A ninth live delay goes to the heap, ahead of the current lane's head.
  pushBoth(q, ref, 1050, 3);
  EXPECT_EQ(q.overflowPushes(), 1u);
  EXPECT_EQ(popBoth(q, ref).a, 3u);
  EXPECT_EQ(popBoth(q, ref).a, 2u);
  expectSameDrain(q, ref);
}

TEST(EventQueueRunnerUp, BlockedPopOnTheFastPathConsumesNothing) {
  EventQueue q;
  Reference ref;
  pushBoth(q, ref, 100, 0);
  pushBoth(q, ref, 100, 1);
  pushBoth(q, ref, 500, 2);
  EXPECT_EQ(popBoth(q, ref).a, 0u);  // Current lane: event 1 is its head.
  const std::uint64_t scans = q.rescans();
  EventRecord out{};
  EXPECT_FALSE(q.popUntil(99, out));
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.popUntil(100, out));
  EXPECT_EQ(out.a, 1u);
  EXPECT_EQ(q.rescans(), scans) << "both pops took the one-compare path";
  EXPECT_EQ(ref.pop().a, 1u);
  EXPECT_FALSE(q.popUntil(499, out));  // The scan blocks too.
  EXPECT_EQ(q.size(), 1u);
  expectSameDrain(q, ref);
}

TEST(EventQueueRunnerUp, SameInstantBurstsOverThreeLanesWithInterleavedKinds) {
  // The network's lock-step shape on 64 ports: a transfer (kind 3, one
  // switch latency) starts a transmission, which schedules its wire-free
  // (kind 2, one serialization time) and wire-arrive (kind 1, plus the wire
  // latency); an arrival schedules the next hop's transfer.  Every port
  // starts at t = 0, so each instant holds a burst of 64 same-kind events,
  // and pushes of the three kinds interleave.
  EventQueue q;
  Reference ref;
  std::vector<std::uint8_t> kindOf;
  const auto push = [&](TimeNs t, std::uint8_t kind) {
    const auto id = static_cast<std::uint32_t>(kindOf.size());
    kindOf.push_back(kind);
    q.push(t, kind, id, 0);
    ref.push(t, id);
  };
  for (int port = 0; port < 64; ++port) push(0, 3);
  std::uint64_t pops = 0;
  EventRecord got{};
  while (!ref.empty() && pops < 200'000) {
    const RefEvent want = ref.pop();
    ASSERT_TRUE(q.popUntil(std::numeric_limits<TimeNs>::max(), got));
    ASSERT_EQ(got.t, want.t);
    ASSERT_EQ(got.a, want.a);
    ASSERT_EQ(got.kind(), kindOf[got.a]);
    ++pops;
    switch (got.kind()) {
      case 3:
        push(got.t + 4096, 2);
        push(got.t + 4116, 1);
        break;
      case 1:
        push(got.t + 100, 3);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(pops, 200'000u);
  EXPECT_EQ(q.overflowPushes(), 0u);
  // Each instant's burst costs one scan at most.
  EXPECT_LT(q.rescans() * 20, pops) << q.rescans() << " rescans";
  expectSameDrain(q, ref);
}

// The lane design rests on the paper's network model scheduling nearly
// every event a constant delay after `now`.  These runs pin that the
// heap stays unused on the benchmark's two traffic shapes, so a change
// that breaks the assumption shows here, not only as a slowdown.

TEST(EventQueueLanes, PaperSlimOpenLoopNeverOverflows) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));  // paper-slim
  const routing::RouterPtr router = routing::makeDModK(topo);
  for (const double load : {0.5, 0.9}) {
    Network net(topo, SimConfig{});
    trace::RouteSetResolver resolver(net, *router);
    patterns::OpenLoopConfig cfg;
    cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
    cfg.load = load;
    cfg.messageBytes = 512;  // The loadsweep builtin at msg_scale 0.125.
    cfg.stopNs = 300'000;
    cfg.seed = 1;
    patterns::OpenLoopSource src(cfg);
    InjectionOptions opt;
    opt.addMessage =
        std::bind_front(&trace::RouteSetResolver::add, &resolver);
    InjectionProcess process(net, src, opt);
    process.run();
    EXPECT_GT(net.stats().eventsProcessed, 100'000u) << "load " << load;
    EXPECT_EQ(net.queueOverflowPushes(), 0u) << "load " << load;
  }
}

TEST(EventQueueLanes, ScaledCgReplayNeverOverflows) {
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::PhasedPattern cg =
      trace::scaleMessages(patterns::cgD128(), 0.125);
  const trace::Mapping mapping = trace::Mapping::sequential(cg.numRanks);
  Network net(topo, SimConfig{});
  trace::Replayer replayer(net, cg, mapping, *router);
  EXPECT_GT(replayer.run(), 0u);
  EXPECT_GT(net.stats().eventsProcessed, 100'000u);
  EXPECT_EQ(net.queueOverflowPushes(), 0u);
  // Lock-step: most pops share an instant and a lane with the last one.
  // 9,072 of 357,072 pops (2.5%) scan the lanes; the bound is 3%.
  EXPECT_LE(net.queueRescans() * 100, net.stats().eventsProcessed * 3)
      << net.queueRescans() << " rescans";
}

}  // namespace
}  // namespace sim
