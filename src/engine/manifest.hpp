// manifest.hpp — Deterministic per-job run manifests (JSON sidecar).
//
// A manifest is the campaign CSV's operational companion: one JSON object
// per job, keyed by the job's canonical spec line (exactly what
// ExperimentSpec::toLine renders, so rows join 1:1 with the CSV), plus the
// campaign-level cache digest.  It records what the CSV deliberately
// excludes — wall-clock, simulated-events-per-second throughput, and the
// telemetry digest (peak queues, per-link-class utilization peaks, drop
// accounting) of jobs that ran with a recorder (DESIGN.md §9 has the
// schema).
//
// Determinism contract: with ManifestOptions::includeHost=false every byte
// of the manifest is a pure function of the specs (pinned byte-identical
// across --threads values by tests/engine/manifest_test.cpp).  Host
// timings are volatile by nature, so they live behind includeHost and are
// the only gated fields.  Formatting is one scalar per line, keys in fixed
// order, all numbers via to_chars — stable for line-oriented diffing.
#pragma once

#include <ostream>
#include <string>

#include "engine/results.hpp"

namespace engine {

struct ManifestOptions {
  /// Include host-side (non-deterministic) fields: campaign threads, wall
  /// time and epoch-memo size; per-job wall time, events/sec and epochs
  /// reused and simulated.
  bool includeHost = true;
};

/// Writes the whole campaign's manifest JSON.
void writeManifest(std::ostream& os, const CampaignResults& results,
                   const ManifestOptions& opt = {});

/// writeManifest to a string.
[[nodiscard]] std::string manifestToJson(const CampaignResults& results,
                                         const ManifestOptions& opt = {});

}  // namespace engine
