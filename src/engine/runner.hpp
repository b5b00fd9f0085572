// runner.hpp — The parallel experiment-campaign engine.
//
// The simulator is single-threaded by design (event ties break by insertion
// order; see DESIGN.md), so the engine parallelizes *across* jobs: a pool
// of workers claims job indices from one atomic cursor, each executing
// whole ExperimentSpecs with its own sim::Network.  Two properties make
// campaigns fast and exact:
//
//  * Memoization.  Topology construction, routers, forwarding tables and
//    their degraded patches, and the Full-Crossbar reference run are cached
//    behind keys derived from the spec, so a sweep that varies only the
//    seed or the pattern reuses the expensive pieces (the Colored optimizer
//    dominates cold-start cost).  Only jobs with a fault plan take a
//    forwarding table; a healthy job asks its router (see runJob).
//    In-flight builds are shared: two workers missing on the same key wait
//    on one build instead of duplicating it.  Replay epochs are memoized
//    too (trace/epoch_memo.hpp): a barrier-to-barrier stretch that several
//    closed-loop jobs share is simulated once per campaign.
//
//  * Determinism.  Every job's result is a pure function of its spec, and
//    results are keyed by job index, so the aggregated CSV is byte-identical
//    for --threads 1 and --threads N (checked by tests/engine).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "engine/results.hpp"
#include "engine/spec.hpp"
#include "fault/degraded.hpp"
#include "obs/recorder.hpp"
#include "routing/router.hpp"
#include "sim/config.hpp"
#include "trace/epoch_memo.hpp"
#include "xgft/topology.hpp"

namespace engine {

/// Shared, thread-safe memo for the expensive per-campaign artifacts.
/// Values are built at most once per key; concurrent requesters for a key
/// being built block on the builder's future.
class CampaignCache {
 public:
  /// The topology for @p params (built once per distinct parameter set).
  [[nodiscard]] std::shared_ptr<const xgft::Topology> topology(
      const xgft::Params& params);

  /// The router @p spec asks for, on @p topo.  The returned pointer keeps
  /// the topology alive.  @p app is only consulted for pattern-aware
  /// algorithms (Colored).  Routers are immutable after construction, so
  /// one instance serves any number of workers.  Null for a per-segment
  /// scheme (adaptive, spray), which routes without a router: nothing is
  /// built and no hit or miss is counted.
  [[nodiscard]] std::shared_ptr<const routing::Router> router(
      const ExperimentSpec& spec,
      const std::shared_ptr<const xgft::Topology>& topo,
      const patterns::PhasedPattern& app);

  /// The compiled forwarding table for @p router (see core::CompiledRoutes):
  /// flat per-(src, dst) NCA choices built once per router cache key — in
  /// parallel across @p threads workers (0 = hardware concurrency) — and
  /// shared immutably across the jobs with a fault plan, which patch it.
  [[nodiscard]] std::shared_ptr<const core::CompiledRoutes> compiledRoutes(
      const ExperimentSpec& spec,
      const std::shared_ptr<const routing::Router>& router,
      std::uint32_t threads);

  /// bench/e2e only; delete at the next benchmark change.
  [[nodiscard]] std::shared_ptr<const core::CompiledRoutes> compressedRoutes(
      const ExperimentSpec& /*spec*/,
      const std::shared_ptr<const routing::Router>& /*router*/,
      std::uint64_t /*maxBytes*/, std::uint32_t /*threads*/ = 1) {
    return nullptr;
  }

  /// The degraded forwarding table for @p router under @p plan's t = 0
  /// failed-link set: the healthy table patched around it
  /// (fault::compileDegraded).  The healthy table is the one
  /// compiledRoutes already holds for @p router, read without building it
  /// or counting a hit or miss (runJob asks for it first); otherwise one is
  /// compiled for this call and dropped.  Keyed by the router key plus the
  /// canonical plan spec, the unreachable policy and — only for seeded
  /// failure models — the derived fault seed, so a load sweep at a fixed
  /// failure rate patches each degraded table once.
  [[nodiscard]] std::shared_ptr<const core::CompiledRoutes> degradedRoutes(
      const ExperimentSpec& spec,
      const std::shared_ptr<const routing::Router>& router,
      const fault::FaultPlan& plan, fault::UnreachablePolicy policy,
      std::uint32_t threads);

  /// Makespan of @p app on the ideal Full-Crossbar under @p cfg.  Keyed on
  /// (pattern, msg_scale, sim config) — and the derived pattern seed only
  /// when the workload itself is seeded — so seed sweeps of a fixed
  /// workload simulate the reference exactly once.
  [[nodiscard]] sim::TimeNs crossbarMakespan(const ExperimentSpec& spec,
                                             const patterns::PhasedPattern& app,
                                             const sim::SimConfig& cfg);

  [[nodiscard]] CacheStats stats() const;

  /// The replay epochs every healthy closed-loop job without a probe
  /// reuses and records (runJob); thread-safe on its own.
  [[nodiscard]] trace::EpochMemo& epochs() { return epochs_; }

  /// bench/e2e only; delete at the next benchmark change.
  [[nodiscard]] ForwardingStats forwardingStats() const { return {}; }

 private:
  template <typename T>
  struct Memo {
    mutable core::Mutex mu;
    /// In-flight and completed builds; only the map is guarded — the
    /// futures themselves synchronize waiters with the builder.
    std::map<std::string, std::shared_future<T>> entries XGFT_GUARDED_BY(mu);
    std::uint64_t hits XGFT_GUARDED_BY(mu) = 0;
    std::uint64_t misses XGFT_GUARDED_BY(mu) = 0;

    /// Returns the value for @p key, invoking @p build at most once.
    template <typename Build>
    T get(const std::string& key, Build&& build);

    /// The value for @p key if it is built or being built (waiting for
    /// it), else T{}; builds nothing and counts neither a hit nor a miss.
    T peek(const std::string& key);
  };

  Memo<std::shared_ptr<const xgft::Topology>> topologies_;
  Memo<std::shared_ptr<const routing::Router>> routers_;
  Memo<std::shared_ptr<const core::CompiledRoutes>> tables_;
  Memo<std::shared_ptr<const core::CompiledRoutes>> degraded_;
  Memo<sim::TimeNs> references_;
  trace::EpochMemo epochs_;
};

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(), which
  /// also caps any larger count.
  std::uint32_t threads = 0;

  /// Also compute the static contention / NCA-census columns (costs one
  /// route sweep per job for algorithms with static routes).
  bool collectContention = true;

  /// Upper bound on one forwarding table's size
  /// (core::CompiledRoutes::tableBytes).  A job with a fault plan past it
  /// fails; healthy jobs take no table, so they never read it.
  std::uint64_t maxCompiledTableBytes = 64ull << 20;

  /// Worker threads one table compilation may use.  Runner::run sets this
  /// to the pool's idle share (pool width / concurrent jobs): a single-job
  /// campaign compiles across the whole pool, a saturated campaign
  /// compiles serially per worker instead of oversubscribing the machine.
  std::uint32_t compileThreads = 1;

  /// Simulator parameters shared by every job in the campaign.
  sim::SimConfig sim = {};

  /// Open-loop (source=) jobs: measurement windows.  [0, warmup) settles
  /// the network, [warmup, warmup + measure) is the measured operating
  /// point, then sources stop and the run drains (trace/openloop.hpp).
  sim::TimeNs openLoopWarmupNs = 500'000;
  sim::TimeNs openLoopMeasureNs = 2'000'000;

  /// Optional progress callback, invoked serially (under a lock) as jobs
  /// finish, in completion order.  If it throws, later jobs skip it and
  /// Runner::run rethrows the first exception once every job finished.
  std::function<void(const JobResult&)> onJobDone;

  /// Campaign-wide telemetry floor: every job runs at
  /// max(spec.telemetry, this).  A job with effective level > off gets its
  /// own obs::Recorder (returned via JobResult::telemetry); observation
  /// never changes simulated results, so CSVs stay byte-identical across
  /// levels (tests/engine/manifest_test.cpp pins this).
  TelemetryLevel telemetry = TelemetryLevel::kOff;

  /// Recorder shape for jobs whose effective level is > off
  /// (recordEvents is overridden per job: on iff the level is kTrace).
  obs::RecorderConfig recorder;
};

/// Executes one spec against a caller-provided cache.  Never throws: any
/// failure is captured in JobResult::error.  This is the unit of work the
/// pool schedules, exposed for tests and for callers that want their own
/// scheduling.  Both job kinds share one forwarding rule: a healthy job
/// asks its router per message and takes no table; a job with a fault plan
/// starts on its router's cached table, patched around the failures
/// present at t = 0 (kThrow closed-loop, kDrop open-loop).  A healthy
/// closed-loop job without a probe replays through the cache's epoch memo.
[[nodiscard]] JobResult runJob(const ExperimentSpec& spec,
                               std::uint32_t jobIndex, CampaignCache& cache,
                               const RunnerOptions& opt);

/// The campaign engine: owns the cache, runs jobs on a pool of workers
/// that claim indices in order from one atomic cursor (the calling thread
/// is one of them), and aggregates results sorted by job index.
class Runner {
 public:
  explicit Runner(RunnerOptions opt = {});

  /// Runs every spec; returns once all jobs finished.  Safe to call
  /// repeatedly — later campaigns reuse the warm cache.
  [[nodiscard]] CampaignResults run(const std::vector<ExperimentSpec>& specs);

  [[nodiscard]] CampaignCache& cache() { return cache_; }
  [[nodiscard]] const RunnerOptions& options() const { return opt_; }

 private:
  RunnerOptions opt_;
  CampaignCache cache_;
};

}  // namespace engine
