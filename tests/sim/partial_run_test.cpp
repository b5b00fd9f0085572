// Tests for Network::run(until) partial-run semantics: a bounded run must
// stop without disturbing queued work, resume exactly where it left off,
// and produce the identical event outcome as one unbounded run — the
// contract the windowed open-loop measurement layer (trace/openloop.hpp)
// is built on.
#include <gtest/gtest.h>

#include <vector>

#include "delivery_recorder.hpp"
#include "route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

using xgft::Topology;

/// A contended workload: every host sends to host (i + 1) % n twice.
void injectRing(Network& net, const Topology& topo,
                const routing::Router& router) {
  const auto n = topo.numHosts();
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (xgft::NodeIndex s = 0; s < n; ++s) {
      const xgft::NodeIndex d = (s + 1) % n;
      const MsgId m = addRouted(net, s, d, 8 * 1024, router.route(s, d));
      net.release(m, round * 1000);
    }
  }
}

TEST(PartialRun, ChoppedRunMatchesOneShot) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);

  DeliveryRecorder oneShot;
  Network full(topo, SimConfig{});
  full.setSink(&oneShot);
  injectRing(full, topo, *router);
  full.run();

  DeliveryRecorder chopped;
  Network partial(topo, SimConfig{});
  partial.setSink(&chopped);
  injectRing(partial, topo, *router);
  // Resume across several arbitrary boundaries, including boundaries where
  // nothing happens and one boundary beyond the workload's end.
  const TimeNs makespan = full.stats().lastDeliveryNs;
  partial.run(1);
  partial.run(makespan / 3);
  partial.run(makespan / 3);  // Idempotent: nothing left before the bound.
  partial.run(2 * makespan / 3);
  partial.run(makespan + 1'000'000);
  partial.run();

  // Identical deliveries in identical order at identical times, and
  // identical aggregate counters: the boundary is invisible.
  EXPECT_EQ(chopped.deliveries, oneShot.deliveries);
  EXPECT_EQ(partial.stats().eventsProcessed, full.stats().eventsProcessed);
  EXPECT_EQ(partial.stats().segmentsDelivered, full.stats().segmentsDelivered);
  EXPECT_EQ(partial.stats().maxOutputQueueDepth,
            full.stats().maxOutputQueueDepth);
  EXPECT_EQ(partial.now(), full.now());
}

TEST(PartialRun, BoundedRunStopsBeforeLaterEvents) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  DeliveryRecorder sink;
  net.setSink(&sink);
  const MsgId early = addRouted(net, 0, 5, 1024, router->route(0, 5));
  const MsgId late = addRouted(net, 5, 0, 1024, router->route(5, 0));
  net.release(early, 0);
  net.release(late, 10'000'000);

  net.run(5'000'000);
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].first, early);
  // The bounded run does not advance the clock past the last event served.
  EXPECT_LE(net.now(), 5'000'000u);

  // New work may be scheduled between partial runs, even before the next
  // queued event.
  const MsgId mid = addRouted(net, 1, 2, 1024, router->route(1, 2));
  net.release(mid, 6'000'000);
  net.run();
  ASSERT_EQ(sink.deliveries.size(), 3u);
  EXPECT_EQ(sink.deliveries[1].first, mid);
  EXPECT_EQ(sink.deliveries[2].first, late);
}

TEST(PartialRun, StrandedCheckOnlyFiresAtDrain) {
  // A bounded run that stops mid-flight leaves released-but-undelivered
  // messages; that must not trip the stranded-traffic check (which guards
  // the fully drained queue only).
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  const MsgId m = addRouted(net, 0, 9, 64 * 1024, router->route(0, 9));
  net.release(m, 0);
  EXPECT_NO_THROW(net.run(100));  // Far too early for delivery.
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_NO_THROW(net.run());
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

}  // namespace
}  // namespace sim
