#include "engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/contention.hpp"
#include "core/scenario.hpp"
#include "fault/inject.hpp"
#include "patterns/source.hpp"
#include "trace/harness.hpp"
#include "trace/mapping.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "trace/trace.hpp"

namespace engine {

namespace {

/// Serializes the simulator parameters that affect measured times, for use
/// in reference-cache keys (campaigns normally share one SimConfig, but the
/// cache must stay correct if a caller varies it).
std::string configKey(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << formatShortest(cfg.linkGbps) << '/' << cfg.segmentBytes << '/'
     << cfg.headerBytes
     << '/' << cfg.switchLatencyNs << '/' << cfg.linkLatencyNs << '/'
     << cfg.inputBufferSegments << '/' << cfg.outputBufferSegments;
  return os.str();
}

/// Cache key identifying a built router (and therefore its compiled
/// forwarding table): topology, the scheme the job actually builds
/// (core::routerBuildScheme — per-segment schemes share the d-mod-k
/// placeholder), and — only where they matter — seed, workload and scale.
std::string routerKey(const ExperimentSpec& spec, const xgft::Topology& topo) {
  std::string name;
  const core::SchemeInfo& scheme = core::routerBuildScheme(spec.routing, &name);
  std::ostringstream key;
  key << topo.params().toString() << '|' << name;
  if (scheme.seeded) key << "|seed=" << spec.seed;
  if (scheme.patternAware) {
    // Pattern-aware tables depend on the workload (and on the seed via
    // tie-breaking / sampling in the optimizer).
    key << "|app=" << spec.pattern << '|'
        << formatShortest(spec.msgScale) << "|seed=" << spec.seed;
  }
  return key.str();
}

/// The spray/adaptive configuration the scheme's route mode implies.
trace::SprayConfig sprayConfigFor(const core::SchemeInfo& scheme,
                                  const ExperimentSpec& spec) {
  trace::SprayConfig sprayCfg;
  if (scheme.mode == core::RouteMode::kAdaptive) {
    sprayCfg.adaptive = true;
  } else if (scheme.mode == core::RouteMode::kSpray) {
    sprayCfg.enabled = true;
    sprayCfg.seed = deriveSeed(spec.seed, "spray");
  }
  return sprayCfg;
}

}  // namespace

template <typename T>
template <typename Build>
T CampaignCache::Memo<T>::get(const std::string& key, Build&& build) {
  std::shared_future<T> future;
  std::shared_ptr<std::promise<T>> promise;
  {
    core::LockGuard lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
      ++hits;
      future = it->second;
    } else {
      ++misses;
      promise = std::make_shared<std::promise<T>>();
      future = promise->get_future().share();
      entries.emplace(key, future);
    }
  }
  if (promise) {
    try {
      promise->set_value(build());
    } catch (...) {
      promise->set_exception(std::current_exception());
      // Don't poison the key: current waiters see this failure, but a later
      // request retries the build (the failure may have been transient).
      core::LockGuard lock(mu);
      entries.erase(key);
    }
  }
  return future.get();  // Rethrows the builder's exception for every waiter.
}

template <typename T>
T CampaignCache::Memo<T>::peek(const std::string& key) {
  std::shared_future<T> future;
  {
    core::LockGuard lock(mu);
    auto it = entries.find(key);
    if (it == entries.end()) return T{};
    future = it->second;
  }
  return future.get();
}

std::shared_ptr<const xgft::Topology> CampaignCache::topology(
    const xgft::Params& params) {
  return topologies_.get(params.toString(), [&] {
    return std::make_shared<const xgft::Topology>(params);
  });
}

std::shared_ptr<const routing::Router> CampaignCache::router(
    const ExperimentSpec& spec,
    const std::shared_ptr<const xgft::Topology>& topo,
    const patterns::PhasedPattern& app) {
  return routers_.get(
      routerKey(spec, *topo),
      [&]() -> std::shared_ptr<const routing::Router> {
        // The registry factory is the single construction path (the same
        // one Scenario::makeRouter uses).
        routing::RouterPtr built = spec.scenario().makeRouter(*topo, app);
        // Tie the topology's lifetime to the router handed out: routers
        // hold a bare reference to their topology.
        const routing::Router* raw = built.release();
        return std::shared_ptr<const routing::Router>(
            raw, [topo](const routing::Router* r) { delete r; });
      });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::compiledRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    std::uint32_t threads) {
  return tables_.get(routerKey(spec, router->topology()), [&] {
    return core::CompiledRoutes::compile(router, threads);
  });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::compressedRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    std::uint64_t maxBytes, std::uint32_t threads) {
  return compressed_.get(
      routerKey(spec, router->topology()),
      [&]() -> std::shared_ptr<const core::CompiledRoutes> {
        // Deterministic sampled estimate first: a scheme that does not
        // compress (per-pair randomness) would blow the budget, so refuse
        // before compiling — the memoized nullptr keeps such jobs on the
        // virtual-routing path.
        if (core::CompiledRoutes::estimateCompressedBytes(*router) >
            maxBytes) {
          return nullptr;
        }
        return core::CompiledRoutes::compile(router, threads,
                                             core::TableLayout::kCompressed);
      });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::degradedRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    const fault::FaultPlan& plan, fault::UnreachablePolicy policy,
    std::uint32_t threads) {
  const std::string healthyKey = routerKey(spec, router->topology());
  std::ostringstream key;
  key << healthyKey << "|faults=" << plan.spec << "|unreachable="
      << (policy == fault::UnreachablePolicy::kThrow ? "throw" : "drop");
  if (fault::planRegistry().at(core::splitSpec(plan.spec).name).seeded) {
    key << "|fseed=" << deriveSeed(spec.seed, "fault");
  }
  return degraded_.get(key.str(), [&] {
    std::shared_ptr<const core::CompiledRoutes> healthy =
        tables_.peek(healthyKey);
    if (!healthy) healthy = core::CompiledRoutes::compile(router, threads);
    const fault::DegradedTopology view(router->topology(), plan.failedAt(0));
    return fault::compileDegraded(healthy, view, policy, threads).table;
  });
}

sim::TimeNs CampaignCache::crossbarMakespan(const ExperimentSpec& spec,
                                            const patterns::PhasedPattern& app,
                                            const sim::SimConfig& cfg) {
  std::ostringstream key;
  key << spec.pattern << '|' << formatShortest(spec.msgScale) << '|'
      << configKey(cfg);
  if (core::patternRegistry().at(core::splitSpec(spec.pattern).name).seeded) {
    key << "|pseed=" << deriveSeed(spec.seed, "pattern");
  }
  return references_.get(key.str(), [&] {
    return trace::runCrossbarReference(app, cfg).makespanNs;
  });
}

CacheStats CampaignCache::stats() const {
  CacheStats s;
  {
    core::LockGuard lock(topologies_.mu);
    s.topologyHits = topologies_.hits;
    s.topologyMisses = topologies_.misses;
  }
  {
    core::LockGuard lock(routers_.mu);
    s.routerHits = routers_.hits;
    s.routerMisses = routers_.misses;
  }
  {
    core::LockGuard lock(tables_.mu);
    s.tableHits = tables_.hits;
    s.tableMisses = tables_.misses;
  }
  {
    core::LockGuard lock(references_.mu);
    s.referenceHits = references_.hits;
    s.referenceMisses = references_.misses;
  }
  {
    core::LockGuard lock(degraded_.mu);
    s.degradedHits = degraded_.hits;
    s.degradedMisses = degraded_.misses;
  }
  {
    core::LockGuard lock(compressed_.mu);
    s.compressedHits = compressed_.hits;
    s.compressedMisses = compressed_.misses;
  }
  return s;
}

ForwardingStats CampaignCache::forwardingStats() const {
  ForwardingStats f;
  core::LockGuard lock(compressed_.mu);
  // std::map: ordered iteration, deterministic sums.  Called after the pool
  // joined, so every future is ready (failed builds erased their entries).
  for (const auto& [key, future] : compressed_.entries) {
    const std::shared_ptr<const core::CompiledRoutes> table = future.get();
    if (!table) continue;  // Estimate exceeded the budget (virtual fallback).
    f.tableBytesFlat += core::CompiledRoutes::tableBytes(table->topology());
    f.tableBytesCompressed += table->forwardingBytes();
  }
  return f;
}

namespace {

/// The recorder for a job, or null when its effective level is off.  The
/// event log is only kept at kTrace — summary campaigns stay lean.
std::shared_ptr<obs::Recorder> makeRecorder(const ExperimentSpec& spec,
                                            const RunnerOptions& opt) {
  const TelemetryLevel level = std::max(spec.telemetry, opt.telemetry);
  if (level == TelemetryLevel::kOff) return nullptr;
  obs::RecorderConfig cfg = opt.recorder;
  cfg.recordEvents = level == TelemetryLevel::kTrace;
  return std::make_shared<obs::Recorder>(cfg);
}

/// The open-loop (source=) job path: no trace, no crossbar reference — the
/// streaming source runs through trace::runOpenLoop and the measurement
/// window's operating point fills the load–latency columns.
void runOpenLoopJob(const ExperimentSpec& spec, CampaignCache& cache,
                    const RunnerOptions& opt, JobResult& result) {
  const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
  if (scheme.patternAware) {
    throw std::invalid_argument(
        "scheme '" + spec.routing +
        "' is pattern-aware and needs a closed-loop pattern= workload");
  }
  const std::shared_ptr<const xgft::Topology> topo =
      cache.topology(spec.topo);
  const trace::SprayConfig sprayCfg = sprayConfigFor(scheme, spec);
  // Oblivious routers never look at the workload, so the cached router is
  // shared with closed-loop jobs under the same key.
  const patterns::PhasedPattern noApp;
  const std::shared_ptr<const routing::Router> router =
      cache.router(spec, topo, noApp);

  // Fault plans route through patched copies of the healthy table, so a
  // faulted job needs that table even when the campaign opted out of it.
  fault::FaultPlan plan;
  if (!spec.faults.empty()) {
    (void)fault::requireDegradable(spec.routing);
    plan = fault::makeFaultPlan(spec.faults, *topo,
                                deriveSeed(spec.seed, "fault"));
    if (core::CompiledRoutes::tableBytes(*topo) > opt.maxCompiledTableBytes) {
      throw std::invalid_argument(
          "fault plans need compiled forwarding tables, but this topology's "
          "table exceeds maxCompiledTableBytes");
    }
  }

  std::shared_ptr<const core::CompiledRoutes> compiled;
  if (scheme.mode == core::RouteMode::kTable &&
      (opt.compileRoutes || !plan.empty())) {
    if (core::CompiledRoutes::tableBytes(*topo) <= opt.maxCompiledTableBytes) {
      compiled = cache.compiledRoutes(spec, router,
                                      std::max(1u, opt.compileThreads));
    } else if (plan.empty()) {
      // Flat table over budget: try the interval-compressed layout.
      // nullptr (scheme does not compress either) keeps the virtual-routing
      // fallback.
      compiled = cache.compressedRoutes(spec, router,
                                        opt.maxCompiledTableBytes,
                                        std::max(1u, opt.compileThreads));
    }
  }
  // The t = 0 degraded table replaces the healthy one for static failures;
  // timed-only plans start healthy and swap tables at their transitions.
  std::shared_ptr<const core::CompiledRoutes> degradedTable;
  if (!plan.empty() && !plan.failedAt(0).empty()) {
    degradedTable =
        cache.degradedRoutes(spec, router, plan,
                             fault::UnreachablePolicy::kDrop,
                             std::max(1u, opt.compileThreads));
  }

  const sim::TimeNs stopNs = opt.openLoopWarmupNs + opt.openLoopMeasureNs;
  const std::unique_ptr<patterns::TrafficSource> source =
      spec.scenario(opt.sim).makeSource(
          static_cast<patterns::Rank>(topo->numHosts()), 0, stopNs);

  trace::OpenLoopOptions ol;
  ol.warmupNs = opt.openLoopWarmupNs;
  ol.measureNs = opt.openLoopMeasureNs;
  ol.spray = sprayCfg;
  ol.compiled = degradedTable ? degradedTable.get() : compiled.get();
  const std::shared_ptr<obs::Recorder> recorder = makeRecorder(spec, opt);
  ol.probe = recorder.get();
  // Owns every table patched at the plan's transition instants; must
  // outlive the run (the resolver reads the current one).
  std::shared_ptr<void> faultState;
  if (!plan.empty()) {
    ol.prepare = [&](sim::Network& net, trace::RouteSetResolver& resolver) {
      fault::InstallOptions io;
      io.policy = sim::FaultPolicy::kReroute;
      io.unreachable = fault::UnreachablePolicy::kDrop;
      io.compileThreads = std::max(1u, opt.compileThreads);
      io.applyStatic = false;  // The t = 0 table is already ol.compiled.
      faultState = fault::installFaultPlan(net, plan, compiled, &resolver, io);
    };
  }
  const trace::OpenLoopResult r =
      trace::runOpenLoop(*topo, *router, *source, ol, opt.sim);
  result.telemetry = recorder;

  result.makespanNs = r.lastDeliveryNs;
  result.net = r.stats;
  result.utilMax = r.utilMax;
  result.utilMean = r.utilMean;
  result.openLoop = true;
  // Measured, not the configured nominal: gap rounding and the bursty
  // line-rate clamp make the truly offered rate deviate from spec.load
  // (which the CSV reports separately in the `load` column).
  result.offeredLoad = r.offeredLoad;
  result.acceptedLoad = r.acceptedLoad;
  result.latencySamples = r.latency.samples;
  result.latencyMinNs = r.latency.minNs;
  result.latencyMeanNs = r.latency.meanNs;
  result.latencyP50Ns = r.latency.p50Ns;
  result.latencyP99Ns = r.latency.p99Ns;
  result.latencyMaxNs = r.latency.maxNs;
}

}  // namespace

JobResult runJob(const ExperimentSpec& spec, std::uint32_t jobIndex,
                 CampaignCache& cache, const RunnerOptions& opt) {
  const auto jobStart = std::chrono::steady_clock::now();
  JobResult result;
  result.jobIndex = jobIndex;
  result.spec = spec;
  try {
    if (!spec.source.empty()) {
      runOpenLoopJob(spec, cache, opt, result);
      result.ok = true;
      result.wallNs = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - jobStart)
              .count());
      return result;
    }
    const patterns::PhasedPattern app = makeWorkload(spec);
    const std::shared_ptr<const xgft::Topology> topo = cache.topology(spec.topo);
    if (app.numRanks > topo->numHosts()) {
      throw std::invalid_argument("workload has " +
                                  std::to_string(app.numRanks) +
                                  " ranks but the topology only " +
                                  std::to_string(topo->numHosts()) + " hosts");
    }

    const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
    const trace::SprayConfig sprayCfg = sprayConfigFor(scheme, spec);
    // Per-segment algorithms never consult the router; the cache hands them
    // the inert d-mod-k placeholder the Replayer interface wants.
    const std::shared_ptr<const routing::Router> router =
        cache.router(spec, topo, app);

    // Closed-loop fault path: static plans only.  The degraded table is
    // patched under kThrow (a partitioned pair would stall the phase
    // barrier forever, so it must fail loudly at compile time), and the
    // dead links still get their kLinkDown events so linkDownNs accounts —
    // no traffic touches them, every patched route avoids the failures.
    fault::FaultPlan plan;
    std::shared_ptr<const core::CompiledRoutes> degradedTable;
    if (!spec.faults.empty()) {
      (void)fault::requireDegradable(spec.routing);
      plan = fault::makeFaultPlan(spec.faults, *topo,
                                  deriveSeed(spec.seed, "fault"));
      if (plan.hasTimed()) {
        throw std::invalid_argument(
            "timed fault plans need an open-loop job (source=): closed-loop "
            "phase replay cannot drop messages without stalling its barrier");
      }
      if (core::CompiledRoutes::tableBytes(*topo) >
          opt.maxCompiledTableBytes) {
        throw std::invalid_argument(
            "fault plans need compiled forwarding tables, but this "
            "topology's table exceeds maxCompiledTableBytes");
      }
      if (!plan.empty()) {
        degradedTable =
            cache.degradedRoutes(spec, router,
                                 plan, fault::UnreachablePolicy::kThrow,
                                 std::max(1u, opt.compileThreads));
      }
    }

    // Healthy closed-loop forwarding state belongs to the job alone: a
    // replay talks to few partners, and the slimming sweeps key every
    // seeded or pattern-aware router per seed, so a cached n^2 table is
    // memory no later job reads.  Self-routing schemes compile a
    // compressed table — at most 2h + 1 runs per guide column, well under
    // a millisecond at 256 hosts — freed when the job ends.  Random and
    // colored get none: they choose per pair, so their compressed table
    // would keep about one interval per pair (n^2 of them, more bytes than
    // the flat table) for a replay that sends over a few hundred pairs.
    // The resolver asks for each pattern pair's choice once instead.
    std::shared_ptr<const core::CompiledRoutes> compiled;
    if (!degradedTable && scheme.mode == core::RouteMode::kTable &&
        opt.compileRoutes && router->ascentGuide()) {
      compiled = core::CompiledRoutes::compile(
          router, std::max(1u, opt.compileThreads),
          core::TableLayout::kCompressed);
    }

    sim::Network net(*topo, opt.sim);
    if (!plan.empty()) plan.scheduleOn(net);
    const std::shared_ptr<obs::Recorder> recorder = makeRecorder(spec, opt);
    if (recorder) net.setProbe(recorder.get());
    result.telemetry = recorder;
    const trace::Trace t = trace::traceFromPhases(app);
    const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
    trace::Replayer replayer(
        net, t, mapping, *router, sprayCfg,
        degradedTable ? degradedTable.get() : compiled.get());
    result.makespanNs = replayer.run();
    result.net = net.stats();

    const sim::WireUtilization util =
        sim::wireUtilization(net, result.makespanNs);
    result.utilMax = util.max;
    result.utilMean = util.mean;

    const sim::TimeNs reference = cache.crossbarMakespan(spec, app, opt.sim);
    result.slowdown = reference == 0
                          ? 1.0
                          : static_cast<double>(result.makespanNs) /
                                static_cast<double>(reference);

    // Contention/census columns describe the healthy router's routes, which
    // a faulted job does not use — leave them at their defaults there.
    if (opt.collectContention && scheme.mode == core::RouteMode::kTable &&
        spec.faults.empty()) {
      const patterns::Pattern flat = app.flattened();
      const analysis::LoadSummary loads =
          analysis::computeLoads(*topo, flat, *router);
      result.maxFlowsPerChannel = loads.maxFlowsPerChannel;
      result.maxDemand = loads.maxDemand;
      const std::vector<std::uint64_t> census =
          analysis::ncaRouteCensusForPattern(*topo, flat, *router,
                                             topo->height());
      if (!census.empty()) {
        result.ncaRoutesMin = *std::min_element(census.begin(), census.end());
        result.ncaRoutesMax = *std::max_element(census.begin(), census.end());
      }
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  result.wallNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - jobStart)
          .count());
  return result;
}

Runner::Runner(RunnerOptions opt) : opt_(std::move(opt)) {}

CampaignResults Runner::run(const std::vector<ExperimentSpec>& specs) {
  const auto start = std::chrono::steady_clock::now();
  CampaignResults results;
  results.jobs.resize(specs.size());

  // A worker past the host's hardware threads adds an OS thread but no
  // parallelism, so the host caps the pool as well as filling in for 0.
  const std::uint32_t host = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t poolWidth = opt_.threads;
  if (poolWidth == 0 || poolWidth > host) poolWidth = host;
  const std::uint32_t threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(poolWidth,
                            std::max<std::size_t>(std::size_t{1},
                                                  specs.size())));

  // Table compilations get the pool's idle share: with fewer jobs than
  // workers (threads < poolWidth) the spare threads speed up each compile,
  // with a saturated pool each worker compiles serially (no N^2 thread
  // blow-up).
  RunnerOptions jobOpt = opt_;
  jobOpt.compileThreads = std::max(1u, poolWidth / threads);

  // Jobs never spawn jobs, so one cursor over the job indices is the whole
  // scheduler: every worker claims the next unclaimed index until none is
  // left, and writes that job's result into the index's own slot.  The
  // calling thread is one of the workers, so a one-worker campaign starts
  // no thread.
  std::atomic<std::uint32_t> cursor{0};
  core::Mutex doneMu;  // Serializes onJobDone.
  // onJobDone's first exception, rethrown once every worker has joined:
  // it must not escape a worker thread.  Later jobs skip the callback.
  std::exception_ptr callbackError;  // Guarded by doneMu.
  const auto work = [&] {
    for (std::uint32_t i = cursor++; i < specs.size(); i = cursor++) {
      JobResult job = runJob(specs[i], i, cache_, jobOpt);
      if (opt_.onJobDone) {
        core::LockGuard lock(doneMu);
        if (!callbackError) {
          try {
            opt_.onJobDone(job);
          } catch (...) {
            callbackError = std::current_exception();
          }
        }
      }
      results.jobs[i] = std::move(job);
    }
  };
  {
    // A jthread joins when destroyed, so every worker has finished before
    // the slots are read, even if starting one of them throws.
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    for (std::uint32_t w = 1; w < threads; ++w) pool.emplace_back(work);
    work();
  }
  if (callbackError) std::rethrow_exception(callbackError);

  results.threadsUsed = threads;
  results.cache = cache_.stats();
  results.forwarding = cache_.forwardingStats();
  results.wallTimeNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return results;
}

}  // namespace engine
