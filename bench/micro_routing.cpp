// micro_routing — google-benchmark microbenchmarks for the routing layer:
// per-pair route computation throughput of every scheme (route(), which
// materializes the choice's catalogue ascent, vs the compiled
// forwarding-table lookup), table compilation cost, the degraded-table
// patch, relabel-scheme construction, Colored optimization and the
// edge-coloring substrate.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "routing/colored.hpp"
#include "routing/edge_coloring.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "xgft/rng.hpp"

namespace {

const xgft::Topology& paperTopo() {
  static const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  return topo;
}

void routeSweep(benchmark::State& state, const routing::Router& router) {
  const xgft::Count n = router.topology().numHosts();
  std::uint64_t pair = 0;
  for (auto _ : state) {
    const xgft::NodeIndex s = static_cast<xgft::NodeIndex>(pair % n);
    const xgft::NodeIndex d =
        static_cast<xgft::NodeIndex>((pair * 37 + 11) % n);
    benchmark::DoNotOptimize(router.route(s, d));
    ++pair;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_RouteSModK(benchmark::State& state) {
  const routing::RouterPtr r = routing::makeSModK(paperTopo());
  routeSweep(state, *r);
}
BENCHMARK(BM_RouteSModK);

void BM_RouteDModK(benchmark::State& state) {
  const routing::RouterPtr r = routing::makeDModK(paperTopo());
  routeSweep(state, *r);
}
BENCHMARK(BM_RouteDModK);

void BM_RouteRandom(benchmark::State& state) {
  const routing::RouterPtr r = routing::makeRandom(paperTopo(), 1);
  routeSweep(state, *r);
}
BENCHMARK(BM_RouteRandom);

void BM_RouteRNcaDown(benchmark::State& state) {
  const routing::RouterPtr r = routing::makeRNcaDown(paperTopo(), 1);
  routeSweep(state, *r);
}
BENCHMARK(BM_RouteRNcaDown);

void BM_RouteColored(benchmark::State& state) {
  static const routing::ColoredRouter router(paperTopo(),
                                             patterns::cgD128(1024));
  routeSweep(state, router);
}
BENCHMARK(BM_RouteColored);

// --- virtual route() vs compiled-table lookup --------------------------------
// A job with a fault plan resolves each message through its patched
// core::CompiledRoutes table instead of the virtual dispatch above: the
// lookup benchmarked here (numbers recorded in DESIGN.md §6).

std::shared_ptr<const core::CompiledRoutes> compiledOf(routing::RouterPtr r) {
  std::shared_ptr<const routing::Router> shared(std::move(r));
  return core::CompiledRoutes::compile(std::move(shared), 1);
}

void compiledSweep(benchmark::State& state,
                   const core::CompiledRoutes& table) {
  const xgft::Count n = table.topology().numHosts();
  std::uint64_t pair = 0;
  for (auto _ : state) {
    const xgft::NodeIndex s = static_cast<xgft::NodeIndex>(pair % n);
    const xgft::NodeIndex d =
        static_cast<xgft::NodeIndex>((pair * 37 + 11) % n);
    benchmark::DoNotOptimize(table.upPorts(s, d).data());
    ++pair;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_CompiledLookupDModK(benchmark::State& state) {
  static const auto table = compiledOf(routing::makeDModK(paperTopo()));
  compiledSweep(state, *table);
}
BENCHMARK(BM_CompiledLookupDModK);

void BM_CompiledLookupRandom(benchmark::State& state) {
  static const auto table = compiledOf(routing::makeRandom(paperTopo(), 1));
  compiledSweep(state, *table);
}
BENCHMARK(BM_CompiledLookupRandom);

void BM_CompileTable(benchmark::State& state) {
  // The paper-slim table of d-mod-k (arg 0: one choice per NCA-level run)
  // and of Random (arg 1: one choice per pair), the table fault-sweep's
  // faulted jobs patch.  The router is built outside the loop.
  const xgft::Count n = paperTopo().numHosts();
  const std::shared_ptr<const routing::Router> router =
      state.range(0) == 0 ? routing::makeDModK(paperTopo())
                          : routing::makeRandom(paperTopo(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CompiledRoutes::compile(router));
  }
  state.SetLabel(router->name());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_CompileTable)->Arg(0)->Arg(1);

// --- degraded tables ---------------------------------------------------------
// The four static degraded tables of bench/e2e's fault-sweep: paper-slim,
// d-mod-k (arg 0) and Random (arg 1), links:10 and links:30 at the
// workload's fault seed.  The healthy table is built outside the timed
// loop, as CampaignCache::degradedRoutes finds it cached for faulted jobs
// (numbers recorded in DESIGN.md §10).

void BM_CompileDegraded(benchmark::State& state) {
  core::Scenario scen;
  scen.topo = paperTopo().params();
  scen.routing = state.range(0) == 0 ? "d-mod-k" : "Random";
  scen.seed = 1;
  const std::shared_ptr<const routing::Router> router =
      scen.makeRouter(paperTopo(), patterns::PhasedPattern{});
  const auto healthy = core::CompiledRoutes::compile(router);
  const std::string faults = "links:" + std::to_string(state.range(1));
  const fault::FaultPlan plan = fault::makeFaultPlan(
      faults, paperTopo(), core::deriveSeed(scen.seed, "fault"));
  const fault::DegradedTopology view(paperTopo(), plan.failedAt(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::compileDegraded(healthy, view, fault::UnreachablePolicy::kDrop)
            .table);
  }
  state.SetLabel(scen.routing + " " + faults);
}
BENCHMARK(BM_CompileDegraded)
    ->ArgsProduct({{0, 1}, {10, 30}})
    ->Unit(benchmark::kMillisecond);

void BM_BuildBalancedRandomScheme(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const xgft::Topology topo(xgft::karyNTree(n, 2));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::RelabelScheme::balancedRandom(topo, ++seed));
  }
}
BENCHMARK(BM_BuildBalancedRandomScheme)->Arg(8)->Arg(16)->Arg(32);

void BM_ColoredOptimizeCg(benchmark::State& state) {
  const patterns::PhasedPattern cg = patterns::cgD128(1024);
  for (auto _ : state) {
    const routing::ColoredRouter router(paperTopo(), cg);
    benchmark::DoNotOptimize(router.estimatedMaxDemand());
  }
}
BENCHMARK(BM_ColoredOptimizeCg);

void BM_EdgeColoring(benchmark::State& state) {
  const auto edges = static_cast<std::size_t>(state.range(0));
  routing::BipartiteMultigraph g;
  g.numLeft = g.numRight = 16;
  xgft::Rng rng(7);
  for (std::size_t e = 0; e < edges; ++e) {
    g.edges.emplace_back(static_cast<std::uint32_t>(rng.below(16)),
                         static_cast<std::uint32_t>(rng.below(16)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::colorBipartiteEdges(g));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * edges));
}
BENCHMARK(BM_EdgeColoring)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
