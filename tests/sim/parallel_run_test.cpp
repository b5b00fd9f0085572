// Tests for what concurrent campaign jobs share at the sim layer: one const
// topology, one router, its forwarding table and one degraded patch of it,
// read by four trace::runOpenLoop calls on four threads at once.  A
// healthy run asks the router per message; one of the runs patches the
// shared healthy table around a timed link outage mid-run.  Every
// concurrent run must produce exactly what the same run produces alone;
// TSan builds check that the sharing is read-only.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_routes.hpp"
#include "fault/degraded.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "patterns/source.hpp"
#include "routing/relabel.hpp"
#include "trace/openloop.hpp"
#include "xgft/topology.hpp"

namespace trace {
namespace {

/// Everything the jobs share, built once and never written again.
struct Shared {
  const xgft::Topology topo{xgft::xgft2(16, 16, 10)};  // paper-slim
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(topo);
  const std::shared_ptr<const core::CompiledRoutes> healthy =
      core::CompiledRoutes::compile(router, 1);
  /// The healthy table patched around two failed leaf up-links.
  const std::shared_ptr<const core::CompiledRoutes> degraded =
      fault::compileDegraded(
          healthy,
          fault::DegradedTopology(
              topo, std::vector<xgft::LinkId>{topo.upLink(1, 0, 0),
                                              topo.upLink(1, 3, 2)}),
          fault::UnreachablePolicy::kDrop)
          .table;
};

/// Where a job's routes come from.
enum class Routes { kRouter, kHealthy, kDegraded };

struct Job {
  Routes routes = Routes::kRouter;
  double load = 0.5;
  std::uint64_t seed = 1;
  /// Fail leaf 0's first up-link over the middle of the measurement
  /// window, patching the shared healthy table at both transitions.
  bool timedFault = false;
};

constexpr sim::TimeNs kWarmupNs = 50'000;
constexpr sim::TimeNs kMeasureNs = 200'000;

OpenLoopResult runJob(const Shared& shared, const Job& job) {
  OpenLoopOptions opt;
  opt.warmupNs = kWarmupNs;
  opt.measureNs = kMeasureNs;
  fault::FaultPlan plan;
  std::shared_ptr<void> installed;  // Owns the patched table.
  if (job.timedFault) {
    const xgft::LinkId link = shared.topo.upLink(1, 0, 0);
    plan = fault::makeFaultPlan(
        "timed:" + std::to_string(link) + ":" +
            std::to_string(kWarmupNs + kMeasureNs / 4) + ":" +
            std::to_string(kWarmupNs + kMeasureNs * 3 / 4),
        shared.topo, 1);
    opt.prepare = [&](sim::Network& net, RouteSetResolver& resolver) {
      installed =
          fault::installFaultPlan(net, plan, shared.healthy, &resolver);
    };
  }
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = static_cast<patterns::Rank>(shared.topo.numHosts());
  cfg.load = job.load;
  cfg.messageBytes = 1024;
  cfg.stopNs = kWarmupNs + kMeasureNs;
  cfg.seed = job.seed;
  patterns::OpenLoopSource source(cfg);
  const Routing mode =
      job.routes == Routes::kHealthy    ? Routing{*shared.healthy}
      : job.routes == Routes::kDegraded ? Routing{*shared.degraded}
                                        : Routing{*shared.router};
  return runOpenLoop(shared.topo, mode, source, opt);
}

void expectSameResult(const OpenLoopResult& alone,
                      const OpenLoopResult& concurrent) {
  const sim::NetworkStats& a = alone.stats;
  const sim::NetworkStats& b = concurrent.stats;
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

  EXPECT_EQ(alone.latency.samples, concurrent.latency.samples);
  EXPECT_EQ(alone.latency.minNs, concurrent.latency.minNs);
  EXPECT_EQ(alone.latency.meanNs, concurrent.latency.meanNs);
  EXPECT_EQ(alone.latency.p50Ns, concurrent.latency.p50Ns);
  EXPECT_EQ(alone.latency.p99Ns, concurrent.latency.p99Ns);
  EXPECT_EQ(alone.latency.maxNs, concurrent.latency.maxNs);

  ASSERT_EQ(alone.windows.size(), concurrent.windows.size());
  for (std::size_t w = 0; w < alone.windows.size(); ++w) {
    SCOPED_TRACE(w);
    EXPECT_EQ(alone.windows[w].beginNs, concurrent.windows[w].beginNs);
    EXPECT_EQ(alone.windows[w].endNs, concurrent.windows[w].endNs);
    EXPECT_EQ(alone.windows[w].messages, concurrent.windows[w].messages);
    EXPECT_EQ(alone.windows[w].bytes, concurrent.windows[w].bytes);
    EXPECT_EQ(alone.windows[w].eventsAtEnd,
              concurrent.windows[w].eventsAtEnd);
  }
}

TEST(ConcurrentJobs, RunsOnSharedTablesMatchTheirSoloRuns) {
  const Shared shared;
  const std::array<Job, 4> jobs = {{
      {Routes::kRouter, /*load=*/0.3, /*seed=*/1, /*timedFault=*/false},
      {Routes::kHealthy, /*load=*/0.6, /*seed=*/2, /*timedFault=*/true},
      {Routes::kDegraded, /*load=*/0.3, /*seed=*/3, /*timedFault=*/false},
      {Routes::kRouter, /*load=*/0.6, /*seed=*/4, /*timedFault=*/false},
  }};
  std::vector<OpenLoopResult> alone;
  for (const Job& job : jobs) alone.push_back(runJob(shared, job));
  // The outage must reach traffic, or the patch shares nothing worth
  // checking.
  EXPECT_GT(alone[1].stats.segmentsRerouted + alone[1].stats.segmentsStranded,
            0u);
  EXPECT_GT(alone[1].stats.linkDownNs, 0u);

  std::vector<OpenLoopResult> concurrent(jobs.size());
  std::latch start(static_cast<std::ptrdiff_t>(jobs.size()));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();  // Run all four at once.
      concurrent[i] = runJob(shared, jobs[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    expectSameResult(alone[i], concurrent[i]);
  }
}

}  // namespace
}  // namespace trace
