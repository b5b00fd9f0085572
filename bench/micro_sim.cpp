// micro_sim — google-benchmark microbenchmarks for the simulator and the
// replay engine: event throughput under contended and uncontended traffic,
// and end-to-end application replay cost.
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/compiled_routes.hpp"
#include "obs/recorder.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "sim/event_queue.hpp"
#include "trace/harness.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "trace/route_resolver.hpp"
#include "xgft/rng.hpp"

namespace {

void BM_PermutationOnFullTree(benchmark::State& state) {
  const xgft::Topology topo(xgft::karyNTree(16, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::Pattern perm =
      patterns::randomPermutation(256, 3).toPattern(16 * 1024);
  patterns::PhasedPattern app;
  app.numRanks = 256;
  app.phases.push_back(perm);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::RunResult r = trace::runApp(topo, *router, app);
    events += r.stats.eventsProcessed;
    benchmark::DoNotOptimize(r.makespanNs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_PermutationOnFullTree)->Unit(benchmark::kMillisecond);

void BM_HotspotContention(benchmark::State& state) {
  // Worst-case queueing pressure: everyone hammers host 0.
  const xgft::Topology topo(xgft::xgft2(8, 8, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::PhasedPattern app;
  app.numRanks = 64;
  patterns::Pattern hot(64);
  for (patterns::Rank r = 1; r < 64; ++r) hot.add(r, 0, 16 * 1024);
  app.phases.push_back(hot);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::RunResult r = trace::runApp(topo, *router, app);
    events += r.stats.eventsProcessed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_HotspotContention)->Unit(benchmark::kMillisecond);

void BM_PermutationTelemetry(benchmark::State& state) {
  // The BM_PermutationOnFullTree workload with the obs::Recorder probe at
  // each level: 0 = detached (the null-check hot path — must match the
  // plain bench within noise, the DESIGN.md §9 overhead budget), 1 =
  // summary sampling only, 2 = sampling + bounded event log.
  const auto level = static_cast<int>(state.range(0));
  const xgft::Topology topo(xgft::karyNTree(16, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::Pattern perm =
      patterns::randomPermutation(256, 3).toPattern(16 * 1024);
  patterns::PhasedPattern app;
  app.numRanks = 256;
  app.phases.push_back(perm);
  const trace::Trace t = trace::traceFromPhases(app);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  std::uint64_t events = 0;
  for (auto _ : state) {
    obs::RecorderConfig cfg;
    cfg.recordEvents = (level == 2);
    obs::Recorder recorder(cfg);
    sim::Network net(topo, sim::SimConfig{});
    if (level > 0) net.setProbe(&recorder);
    trace::Replayer replayer(net, t, mapping, *router);
    benchmark::DoNotOptimize(replayer.run());
    events += net.stats().eventsProcessed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_PermutationTelemetry)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_CgReplayScaled(benchmark::State& state) {
  // The Fig. 2(b) inner loop at the default bench message scale.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::PhasedPattern cg =
      trace::scaleMessages(patterns::cgD128(), 0.125);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::runApp(topo, *router, cg).makespanNs);
  }
}
BENCHMARK(BM_CgReplayScaled)->Unit(benchmark::kMillisecond);

void BM_CrossbarReference(benchmark::State& state) {
  const patterns::PhasedPattern cg =
      trace::scaleMessages(patterns::cgD128(), 0.125);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::runCrossbarReference(cg).makespanNs);
  }
}
BENCHMARK(BM_CrossbarReference)->Unit(benchmark::kMillisecond);

/// BM_EventCoreChurn's loop: @p width events pending, then 100k pops,
/// each followed by a push delay(i) after the popped event.
template <typename Delay>
void churnQueue(benchmark::State& state, Delay delay) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint32_t i = 0; i < width; ++i) q.push(delay(i), 0, i, 0);
    sim::EventRecord ev{};
    for (std::uint32_t i = 0; i < 100000; ++i) {
      benchmark::DoNotOptimize(
          q.popUntil(std::numeric_limits<sim::TimeNs>::max(), ev));
      q.push(ev.t + delay(i), 0, ev.a, 0);
    }
    events += 100000;
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = queue pops");
}

void BM_EventCoreChurn(benchmark::State& state) {
  // The event queue in isolation at the concurrency of arg 0.  Arg 1 picks
  // the delays: 0 = simulator-shaped (transfer latency, wire free, wire
  // arrive), 1 = uniform random in [1, 8192] ns, where almost every push
  // finds no lane for its delay and goes to the overflow heap — the lane
  // design's worst case.  items = events popped.
  if (state.range(1) == 0) {
    static constexpr sim::TimeNs kDeltas[] = {100, 4096, 4116};
    churnQueue(state, [](std::uint32_t i) { return kDeltas[i % 3]; });
    return;
  }
  std::vector<sim::TimeNs> random(4096);
  xgft::Rng rng(1);
  for (sim::TimeNs& d : random) d = 1 + rng.next() % 8192;
  churnQueue(state, [&random](std::uint32_t i) { return random[i & 4095]; });
}
BENCHMARK(BM_EventCoreChurn)
    ->Args({8, 0})
    ->Args({256, 0})
    ->Args({4096, 0})
    ->Args({8, 1})
    ->Args({256, 1})
    ->Args({4096, 1});

void BM_OpenLoopRun(benchmark::State& state) {
  // One open-loop job on paper-slim, XGFT(2; 16,16; 1,10), near the
  // saturation knee: a Poisson uniform stream, the loadsweep campaign's
  // inner loop, through trace::runOpenLoop.  items = simulator events.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const routing::RouterPtr router = routing::makeDModK(topo);
  trace::OpenLoopOptions opt;
  opt.warmupNs = 50'000;
  opt.measureNs = 300'000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    patterns::OpenLoopConfig cfg;
    cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
    cfg.load = 0.7;
    cfg.messageBytes = 4096;
    cfg.stopNs = opt.warmupNs + opt.measureNs;
    cfg.seed = 1;
    patterns::OpenLoopSource src(cfg);
    const trace::OpenLoopResult r = trace::runOpenLoop(topo, *router, src, opt);
    events += r.stats.eventsProcessed;
    benchmark::DoNotOptimize(r.acceptedLoad);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_OpenLoopRun)->Unit(benchmark::kMillisecond);

void BM_NetworkConstruction(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const xgft::Topology topo(xgft::karyNTree(k, 2));
  for (auto _ : state) {
    sim::Network net(topo, sim::SimConfig{});
    benchmark::DoNotOptimize(net.numGlobalPorts());
  }
}
BENCHMARK(BM_NetworkConstruction)->Arg(8)->Arg(16)->Arg(32);

/// The scale-out-tier topologies of the route-compile benches below.
/// 0 = xgft3:8:8:8:4:4:2 (512 hosts), 1 = xgft3:16:16:16:1:8:8 (4096).
xgft::Params xgft3Tier(int tier) {
  return tier == 0 ? xgft::Params({8, 8, 8}, {4, 4, 2})
                   : xgft::Params({16, 16, 16}, {1, 8, 8});
}

void BM_NetworkConstruction3(benchmark::State& state) {
  const xgft::Topology topo(xgft3Tier(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    sim::Network net(topo, sim::SimConfig{});
    benchmark::DoNotOptimize(net.numGlobalPorts());
  }
  state.SetLabel(topo.params().toString());
}
BENCHMARK(BM_NetworkConstruction3)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteCompileFlat(benchmark::State& state) {
  // Dense O(H^2) compilation on the 512-host tier (the 4096-host flat table
  // is 80 MiB — past the engine budget, hence the compressed rows below).
  // Arg 0 = d-mod-k, which compiles one route per NCA-level run; arg 1 =
  // Random, which has no ascent guide and keeps the per-pair path.
  // Counters report the resident table footprint.
  const auto topo = std::make_shared<const xgft::Topology>(xgft3Tier(0));
  const std::shared_ptr<const routing::Router> router =
      state.range(0) == 0 ? routing::makeDModK(*topo)
                          : routing::makeRandom(*topo, 1);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table =
        core::CompiledRoutes::compile(router, 1, core::TableLayout::kFlat);
    bytes = table->forwardingBytes();
    benchmark::DoNotOptimize(table->upPorts(0, 1).size());
  }
  state.counters["flat_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RouteCompileFlat)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteCompileCompressed(benchmark::State& state) {
  // Full interval-compressed d-mod-k compilation per tier; the
  // compressed_bytes counter against the flat_bytes counter (80 MiB at
  // 4096 hosts) is the memory headline.
  const auto topo = std::make_shared<const xgft::Topology>(
      xgft3Tier(static_cast<int>(state.range(0))));
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(*topo);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table = core::CompiledRoutes::compile(
        router, 1, core::TableLayout::kCompressed);
    bytes = table->forwardingBytes();
    benchmark::DoNotOptimize(table->upPorts(0, 1).size());
  }
  state.counters["compressed_bytes"] = static_cast<double>(bytes);
  state.counters["flat_bytes"] =
      static_cast<double>(core::CompiledRoutes::tableBytes(*topo));
  state.SetLabel(topo->params().toString());
}
BENCHMARK(BM_RouteCompileCompressed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteResolve(benchmark::State& state) {
  // The per-message route query of every injection: a fixed SplitMix64
  // stream of uniform (src, dst) pairs through a fresh Network's
  // RouteSetResolver per iteration.  Arg 0 = paper-slim (256 hosts, flat
  // d-mod-k table: one table lookup per pair), arg 1 =
  // xgft3:16:16:16:1:8:8 (4096 hosts, compressed: one interval probe per
  // pair), arg 2 = paper-slim with the Random router and no table (router
  // mode: one choice() and its range check per pair, nothing stored or
  // memoized, repeats included).  Counter: ns per resolved pair.
  constexpr std::uint32_t kPairs = 200'000;
  const bool big = state.range(0) == 1;
  const bool tableFree = state.range(0) == 2;
  const auto topo = std::make_shared<const xgft::Topology>(
      big ? xgft3Tier(1) : xgft::xgft2(16, 16, 10));
  const std::shared_ptr<const routing::Router> router =
      tableFree ? routing::makeRandom(*topo, 1) : routing::makeDModK(*topo);
  const auto table =
      tableFree ? nullptr
                : core::CompiledRoutes::compile(
                      router, 1,
                      big ? core::TableLayout::kCompressed
                          : core::TableLayout::kFlat);
  const std::uint64_t n = topo->numHosts();
  for (auto _ : state) {
    sim::Network net(*topo, sim::SimConfig{});
    trace::RouteSetResolver resolver(net, *router, {}, table.get());
    xgft::Rng rng(1);
    for (std::uint32_t i = 0; i < kPairs; ++i) {
      const auto s = static_cast<xgft::NodeIndex>(rng.below(n));
      const auto d = static_cast<xgft::NodeIndex>(rng.below(n));
      benchmark::DoNotOptimize(resolver.setFor(s, d));
    }
  }
  // An inverted per-iteration rate is seconds per pair; the 1e-9 factor
  // turns it into nanoseconds.
  state.counters["ns_per_pair"] = benchmark::Counter(
      kPairs * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(topo->params().toString());
}
BENCHMARK(BM_RouteResolve)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
