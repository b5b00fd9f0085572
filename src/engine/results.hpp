// results.hpp — Typed per-job results and deterministic CSV aggregation.
//
// Workers fill JobResults in whatever order the thread pool finishes them;
// CampaignResults orders rows by job index and formats every floating-point
// cell with shortest-round-trip or fixed-precision rendering, so the CSV a
// campaign emits is byte-identical for 1 and N worker threads (the engine's
// determinism contract, checked by tests/engine/runner_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "engine/spec.hpp"
#include "sim/network.hpp"

namespace obs {
class Recorder;
}

namespace engine {

/// Everything measured for one executed ExperimentSpec.
struct JobResult {
  std::uint32_t jobIndex = 0;
  ExperimentSpec spec;

  bool ok = false;
  std::string error;  ///< What the job threw, when !ok.

  /// Dynamic (simulated) measurements.
  sim::TimeNs makespanNs = 0;
  double slowdown = 0.0;  ///< makespan / Full-Crossbar reference makespan.
  sim::NetworkStats net;

  /// Wire utilization over the run, from Network::wireBusyNs: busy fraction
  /// of the busiest wire, and the mean over wires that carried traffic.
  double utilMax = 0.0;
  double utilMean = 0.0;

  /// Static contention picture (algorithms with static routes only).
  std::uint32_t maxFlowsPerChannel = 0;
  double maxDemand = 0.0;

  /// Routes-per-NCA census of the pattern's pairs over the top level
  /// (Fig. 4's metric), summarized as min/max per NCA node.
  std::uint64_t ncaRoutesMin = 0;
  std::uint64_t ncaRoutesMax = 0;

  /// Open-loop (source=) measurements: the measurement-window operating
  /// point.  Loads are fractions of the per-host link rate; latency is
  /// over messages injected inside the measurement window.
  bool openLoop = false;
  double offeredLoad = 0.0;
  double acceptedLoad = 0.0;
  std::uint64_t latencySamples = 0;
  sim::TimeNs latencyMinNs = 0;
  double latencyMeanNs = 0.0;
  sim::TimeNs latencyP50Ns = 0;
  sim::TimeNs latencyP99Ns = 0;
  sim::TimeNs latencyMaxNs = 0;

  /// Always 0: nothing sets it, because messages store no route words of
  /// their own.  Kept only because the frozen bench/e2e/e2e_bench.cpp reads
  /// it; the next benchmark change deletes the read, then the field.
  std::uint64_t routeArenaEntries = 0;

  /// Host wall-clock spent executing this job (manifests and the CLI
  /// progress line; never a CSV column — it is not deterministic).
  std::uint64_t wallNs = 0;

  /// The recorder that observed this job, when its effective telemetry
  /// level was > off (summary series, event log, digest); null otherwise.
  std::shared_ptr<const obs::Recorder> telemetry;
};

/// Aggregate cache behaviour of one campaign run (see CampaignCache).
struct CacheStats {
  std::uint64_t topologyHits = 0;
  std::uint64_t topologyMisses = 0;
  std::uint64_t routerHits = 0;
  std::uint64_t routerMisses = 0;
  std::uint64_t tableHits = 0;    ///< Compiled forwarding tables.
  std::uint64_t tableMisses = 0;
  std::uint64_t referenceHits = 0;
  std::uint64_t referenceMisses = 0;
  std::uint64_t degradedHits = 0;  ///< Degraded (fault) forwarding tables.
  std::uint64_t degradedMisses = 0;
  std::uint64_t compressedHits = 0;  ///< Interval-compressed tables.
  std::uint64_t compressedMisses = 0;
};

/// Forwarding-state memory picture of one campaign run, aggregated over the
/// cache's interval-compressed tables (engine::CampaignCache).  All sizes
/// are deterministic: tables compile in full, independent of thread count
/// and scheduling.
struct ForwardingStats {
  /// What the same tables would occupy in the flat per-pair layout.
  std::uint64_t tableBytesFlat = 0;
  /// Resident bytes of the compressed tables.
  std::uint64_t tableBytesCompressed = 0;
};

/// The outcome of a whole campaign.
struct CampaignResults {
  std::vector<JobResult> jobs;  ///< Sorted by jobIndex after run().

  std::uint32_t threadsUsed = 0;
  /// Unread: the engine has one event core and never sets this.  It stays
  /// only because the end-to-end bench harness (bench/e2e/e2e_bench.cpp)
  /// assigns it; delete it with that assignment.
  std::uint32_t simThreadsUsed = 0;
  std::uint64_t wallTimeNs = 0;  ///< Host wall-clock of the pool run.
  CacheStats cache;
  ForwardingStats forwarding;  ///< Empty unless compressed tables were used.

  /// Sorts jobs by index (idempotent; run() already leaves them sorted).
  void sortByIndex();

  /// Finds the result of an exact spec, nullptr if absent.
  [[nodiscard]] const JobResult* find(const ExperimentSpec& spec) const;

  /// The CSV column header (no trailing newline).  @p openLoop appends the
  /// load–latency columns and @p faulted the failure columns; campaigns
  /// without open-loop or faulted jobs emit exactly the historical header
  /// so existing golden CSVs stay byte-identical.
  [[nodiscard]] static std::string csvHeader(bool openLoop,
                                             bool faulted = false);
  [[nodiscard]] static std::string csvHeader() { return csvHeader(false); }

  /// True when any job is an open-loop (source=) run — writeCsv then emits
  /// the extended columns for every row.
  [[nodiscard]] bool hasOpenLoopJobs() const;

  /// True when any job carries a fault plan (spec.faults non-empty) —
  /// writeCsv then emits the failure columns for every row (healthy rows
  /// report faults=none and zero counters).
  [[nodiscard]] bool hasFaultJobs() const;

  /// One deterministic CSV row per job, sorted by job index.  Fields that
  /// may contain commas or quotes (topology, error) are double-quoted with
  /// quote doubling.
  void writeCsv(std::ostream& os) const;

  /// writeCsv including the header line, as a string.
  [[nodiscard]] std::string toCsv() const;
};

}  // namespace engine
