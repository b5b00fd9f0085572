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
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  std::uint64_t events = 0;
  for (auto _ : state) {
    obs::RecorderConfig cfg;
    cfg.recordEvents = (level == 2);
    obs::Recorder recorder(cfg);
    sim::Network net(topo, sim::SimConfig{});
    if (level > 0) net.setProbe(&recorder);
    trace::Replayer replayer(net, app, mapping, *router);
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
/// each followed by a push delay(i) after the popped event, of kind(i).
template <typename Delay, typename Kind>
void churnQueue(benchmark::State& state, Delay delay, Kind kind) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint32_t i = 0; i < width; ++i) q.push(delay(i), kind(i), i, 0);
    sim::EventRecord ev{};
    for (std::uint32_t i = 0; i < 100000; ++i) {
      benchmark::DoNotOptimize(
          q.popUntil(std::numeric_limits<sim::TimeNs>::max(), ev));
      q.push(ev.t + delay(i), kind(i), ev.a, 0);
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
  // arrive) all pushed as kind 0; 2 = the same delays with the network's
  // kinds (kTransfer 3, kWireFree 2, kWireArrive 1), so each kind keeps
  // one delay as in a run; 3 = those three with a zero-delay kRelease
  // (kind 0) before each, so every other pop takes the record pushed just
  // before it, as a release is; 1 = uniform random in [1, 8192] ns, where
  // almost every push finds no lane for its delay and goes to the overflow
  // heap — the lane design's worst case.  items = events popped.
  const auto noKind = [](std::uint32_t) { return std::uint8_t{0}; };
  if (state.range(1) == 3) {
    static constexpr sim::TimeNs kDeltas[] = {0, 100, 0, 4096, 0, 4116};
    static constexpr std::uint8_t kKinds[] = {0, 3, 0, 2, 0, 1};
    churnQueue(
        state, [](std::uint32_t i) { return kDeltas[i % 6]; },
        [](std::uint32_t i) { return kKinds[i % 6]; });
    return;
  }
  if (state.range(1) != 1) {
    static constexpr sim::TimeNs kDeltas[] = {100, 4096, 4116};
    static constexpr std::uint8_t kKinds[] = {3, 2, 1};
    const auto delay = [](std::uint32_t i) { return kDeltas[i % 3]; };
    if (state.range(1) == 2) {
      churnQueue(state, delay, [](std::uint32_t i) { return kKinds[i % 3]; });
    } else {
      churnQueue(state, delay, noKind);
    }
    return;
  }
  std::vector<sim::TimeNs> random(4096);
  xgft::Rng rng(1);
  for (sim::TimeNs& d : random) d = 1 + rng.next() % 8192;
  churnQueue(
      state, [&random](std::uint32_t i) { return random[i & 4095]; }, noKind);
}
BENCHMARK(BM_EventCoreChurn)
    ->Args({8, 0})
    ->Args({256, 0})
    ->Args({4096, 0})
    ->Args({8, 1})
    ->Args({256, 1})
    ->Args({4096, 1})
    ->Args({8, 2})
    ->Args({256, 2})
    ->Args({4096, 2})
    ->Args({8, 3})
    ->Args({256, 3})
    ->Args({4096, 3});

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
  // Dense O(H^2) compilation on the 512-host tier (the 4096-host table is
  // 80 MiB — past the engine budget, so that tier runs healthy jobs only).
  // Arg 0 = d-mod-k, which compiles one route per NCA-level run; arg 1 =
  // Random, which has no ascent guide and keeps the per-pair path.
  // Counters report the resident table footprint.
  const auto topo = std::make_shared<const xgft::Topology>(xgft3Tier(0));
  const std::shared_ptr<const routing::Router> router =
      state.range(0) == 0 ? routing::makeDModK(*topo)
                          : routing::makeRandom(*topo, 1);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table = core::CompiledRoutes::compile(router, 1);
    bytes = table->forwardingBytes();
    benchmark::DoNotOptimize(table->upPorts(0, 1).size());
  }
  state.counters["flat_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RouteCompileFlat)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteResolve(benchmark::State& state) {
  // The per-message route query of every injection: a fixed SplitMix64
  // stream of uniform (src, dst) pairs through a fresh Network's
  // RouteSetResolver per iteration.  Arg 0 = paper-slim (256 hosts) with a
  // d-mod-k table, a faulted job's path: one table lookup per pair.  The
  // other arms are router mode, a healthy job's path: one choice() and its
  // range check per pair, nothing stored or memoized, repeats included —
  // arg 2 = paper-slim with the Random router, arg 3 = paper-slim with
  // d-mod-k, arg 4 = xgft3:16:16:16:1:8:8 (4096 hosts) with d-mod-k.
  // (Arg 1 was a compressed 4096-host table, a layout since deleted.)
  // Counter: ns per resolved pair.
  constexpr std::uint32_t kPairs = 200'000;
  const std::int64_t arm = state.range(0);
  const auto topo = std::make_shared<const xgft::Topology>(
      arm == 4 ? xgft3Tier(1) : xgft::xgft2(16, 16, 10));
  const std::shared_ptr<const routing::Router> router =
      arm == 2 ? routing::makeRandom(*topo, 1) : routing::makeDModK(*topo);
  const auto table =
      arm == 0 ? core::CompiledRoutes::compile(router, 1) : nullptr;
  const std::uint64_t n = topo->numHosts();
  for (auto _ : state) {
    sim::Network net(*topo, sim::SimConfig{});
    trace::RouteSetResolver resolver(
        net, table ? trace::Routing{*table} : trace::Routing{*router});
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
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
