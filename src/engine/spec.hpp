// spec.hpp — Declarative experiment specifications for campaign sweeps.
//
// One ExperimentSpec names everything a single simulation run needs: the
// XGFT under test, the workload, the routing scheme, the message-size
// scale and the seed.  Campaign files describe whole sweeps declaratively:
// each non-comment line is a key=value spec whose values may be lists or
// integer ranges, and the line expands to the cross product — the Fig. 2/5
// slimming sweeps become two lines of text instead of a bench binary.
//
// Format (whitespace-separated key=value tokens; '#' starts a comment):
//
//   topo="XGFT(2; 16,16; 1,10)"   explicit topology (paper notation),
//                                 or a preset ("paper-slim", "kary:16:2")
//   m1=16 m2=16 w2=16..1          or the 2-level family, sweepable
//   pattern=cg128                 any registered workload (--list-patterns)
//   source=poisson:uniform        open-loop stream instead of pattern=
//                                 (--list-sources); every host injects
//   load={0.1,0.3,0.5}            offered load per host (fraction of the
//                                 link rate; needs source=, sweepable)
//   routing={Random,d-mod-k}      any registered scheme, or a {a,b,c} list
//   msg_scale=0.125               multiplies every message size (open-loop
//                                 messages are 4096 B * msg_scale)
//   seed=1..40                    integer ranges sweep inclusively
//                                 (a campaign holds at most 2^20 jobs)
//   faults=links:10               failure plan (--list-faults); "none" is
//                                 the healthy baseline and the default
//   telemetry=summary             observation depth (off/summary/trace);
//                                 never changes simulated results
//
// Scheme, pattern and topology names resolve through the core:: registries
// (core/scenario.hpp) — the spec layer stores validated canonical names and
// holds no name->object knowledge of its own, so a scheme or workload
// registered anywhere is immediately sweepable from a campaign file.
//
// Expansion order is deterministic: keys vary in the order they appear on
// the line, the last key fastest, so job indices — and therefore derived
// seeds and output order — are stable across platforms and thread counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "patterns/pattern.hpp"
#include "xgft/params.hpp"

namespace engine {

/// Per-job observation depth (spec key `telemetry=off|summary|trace`).
/// RunnerOptions::telemetry sets a campaign-wide floor; the effective
/// level of a job is the max of the two.  Telemetry never changes
/// simulation results — only whether an obs::Recorder watches the run.
enum class TelemetryLevel : std::uint8_t {
  kOff = 0,      ///< No recorder attached (the default; zero overhead).
  kSummary = 1,  ///< Sampled time series + manifest digest.
  kTrace = 2,    ///< kSummary plus the per-event log for Chrome traces.
};

/// Parses "off"/"summary"/"trace"; throws std::invalid_argument otherwise.
[[nodiscard]] TelemetryLevel parseTelemetryLevel(const std::string& value);
[[nodiscard]] std::string_view telemetryLevelName(TelemetryLevel level);

/// One simulation job: the parse-level form of a core::Scenario (the
/// engine-wide sim::SimConfig is supplied by RunnerOptions at run time).
struct ExperimentSpec {
  xgft::Params topo = xgft::karyNTree(16, 2);
  std::string pattern = "cg128";
  std::string routing = "d-mod-k";  ///< Canonical scheme name.
  double msgScale = 1.0;
  std::uint64_t seed = 1;

  /// Open-loop streaming job (core::sourceRegistry() spec) — replaces the
  /// closed-loop pattern when non-empty; `load` is the offered load per
  /// host as a fraction of the link rate.
  std::string source;
  double load = 0.5;

  /// Failure plan for this job (`faults=` key; fault::planRegistry()
  /// spec).  Empty means healthy: the spec value "none" normalizes to ""
  /// so `faults=none` and an absent key are the same configuration —
  /// byte-identical CSVs and manifests.  Seeded plans draw from
  /// deriveSeed(seed, "fault").
  std::string faults;

  /// Observation depth for this job (`telemetry=` key).  Not part of the
  /// measured configuration: it is excluded from the CSV columns, and
  /// toLine() renders it only when != kOff so existing campaign files and
  /// golden CSVs are untouched.
  TelemetryLevel telemetry = TelemetryLevel::kOff;

  friend bool operator==(const ExperimentSpec&,
                         const ExperimentSpec&) = default;

  /// Canonical one-line key=value rendering; parseSpecLine round-trips it.
  [[nodiscard]] std::string toLine() const;

  /// The construction-level view: this spec plus the simulator config.
  [[nodiscard]] core::Scenario scenario(const sim::SimConfig& sim = {}) const;
};

/// The most jobs one campaign may expand to: 2^20, about 2,000x the
/// largest builtin.  Sizes are checked before anything is built, so a
/// range, a line's cross product or a campaign total past it fails fast
/// instead of exhausting memory.
inline constexpr std::uint64_t kMaxCampaignJobs = std::uint64_t{1} << 20;

/// Parses a single spec line (no sweep syntax allowed).  Unknown keys,
/// malformed values and list/range values all throw std::invalid_argument;
/// unknown scheme/pattern/preset names surface the registry's uniform
/// "unknown <kind> '<name>' (registered: ...)" error.
[[nodiscard]] ExperimentSpec parseSpecLine(const std::string& line);

/// Expands one campaign line (sweep syntax allowed) to the cross product of
/// its value lists, last key fastest.  Throws std::invalid_argument when a
/// range or the product exceeds kMaxCampaignJobs.
[[nodiscard]] std::vector<ExperimentSpec> expandCampaignLine(
    const std::string& line);

/// Parses a whole campaign: one expandable spec per line, '#' comments and
/// blank lines skipped.  Jobs are concatenated in file order; errors,
/// including a running total past kMaxCampaignJobs, name their line.
[[nodiscard]] std::vector<ExperimentSpec> parseCampaign(std::istream& in);
[[nodiscard]] std::vector<ExperimentSpec> parseCampaign(
    const std::string& text);

/// Shortest decimal rendering of a double that parses back to the same
/// value ("1", "0.125") — used for canonical spec lines and CSV cells so
/// output is byte-stable across platforms and thread counts.
[[nodiscard]] std::string formatShortest(double v);

/// Fixed-precision decimal rendering of a double via std::to_chars — the
/// replacement for `os << std::fixed << std::setprecision(p)` in table and
/// report output, immune to locale and leaked stream state.
[[nodiscard]] std::string formatFixed(double v, int precision);

/// Derives an independent sub-seed for a named role ("pattern", "spray",
/// ...) from a job's base seed.  Forwarded from core::deriveSeed; pinned by
/// tests — a campaign that sweeps seed=1..N gives every (job, role) pair an
/// uncorrelated stream.
[[nodiscard]] inline std::uint64_t deriveSeed(std::uint64_t base,
                                              std::string_view role) {
  return core::deriveSeed(base, role);
}

/// Instantiates the workload named by @p spec.pattern through the pattern
/// registry, with message sizes already scaled by spec.msgScale (see
/// core::Scenario::makeWorkload; `campaign_cli --list-patterns` enumerates
/// the registered names).
[[nodiscard]] patterns::PhasedPattern makeWorkload(const ExperimentSpec& spec);

}  // namespace engine
