// source.hpp — Streaming traffic sources (the open-loop injection model).
//
// The paper evaluates routing only in closed-loop phase replay: a workload's
// phases are released one after another and run to drainage.  The classic
// interconnect methodology of the random-traffic literature it cites
// (Sec. VII-C, and Zahavi et al. [9]) instead *streams* traffic: every host
// injects messages with a stochastic arrival process at a configured offered
// load, and the network answers with an accepted-throughput/latency operating
// point.  This module is the source side of that model.
//
// A TrafficSource is pull-based: the driver (sim::InjectionProcess) asks
// for the next message only when simulated time reaches it, so no trace is
// materialized up front — the source side of an arbitrarily long run is
// O(ranks) state.  (The simulator still accrues per-injected-message
// bookkeeping over the run.)  One pull yields one of:
//
//  * kMessage    — inject `out` (src/dst rank, bytes) at `out.time` >= now.
//  * kBlocked    — nothing until an in-flight message completes; the driver
//                  re-pulls after every onDelivered().
//  * kExhausted  — the source will never produce again.
//
// Closed-loop sources (trace::Replayer) implement the same interface, so
// phase replay and open-loop streaming share one injection mechanism.
//
// Determinism: all randomness derives from SplitMix64 counter streams
// (xgft/rng.hpp); rank r of a source seeded S draws from the stream seeded
// hashMix(S, r), so streams are independent per rank and every pull
// sequence replays identically for a given seed (pinned by
// tests/xgft/rng_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "patterns/pattern.hpp"
#include "sim/config.hpp"
#include "xgft/rng.hpp"

namespace patterns {

/// One message pulled from a source.  `token` is a source-chosen id echoed
/// back by onDelivered().
struct SourceMessage {
  Rank src = 0;
  Rank dst = 0;
  Bytes bytes = 0;
  sim::TimeNs time = 0;
  std::uint64_t token = 0;
};

enum class Pull : std::uint8_t {
  kMessage,
  kBlocked,
  kExhausted,
};

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  [[nodiscard]] virtual Rank numRanks() const = 0;

  /// Produces the next message at or after @p now.  Messages must be
  /// non-decreasing in time.
  [[nodiscard]] virtual Pull pull(sim::TimeNs now, SourceMessage& out) = 0;

  /// A previously pulled message (its `token`) completed end-to-end.
  virtual void onDelivered(std::uint64_t token, sim::TimeNs now);
};

/// How an open-loop source spaces injections.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< Exponential interarrival gaps at the offered rate.
  kBursty,   ///< On/off: bursts of back-to-back messages at line rate,
             ///< exponential idle gaps sized so the mean rate is the load.
};

/// How an open-loop source picks destinations.
enum class DestDistribution : std::uint8_t {
  kUniform,      ///< Uniform over all other ranks.
  kHotspot,      ///< hotFraction of messages to rank 0, rest uniform.
  kPermutation,  ///< A fixed seeded permutation (self-maps repaired).
};

struct OpenLoopConfig {
  Rank numRanks = 0;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  DestDistribution dest = DestDistribution::kUniform;

  /// Offered load per host as a fraction of hostBytesPerNs.
  double load = 0.5;
  /// The per-host link payload rate the load is relative to, in bytes per
  /// simulated nanosecond (linkGbps / 8 for the paper's 2 Gbit/s links).
  double hostBytesPerNs = 0.25;
  Bytes messageBytes = 4096;

  /// kHotspot: fraction of each rank's messages aimed at rank 0.
  double hotFraction = 0.2;
  /// kBursty: messages per on-burst.
  std::uint32_t burstLength = 8;

  /// Arrivals fall in [startNs + gap, stopNs); the first arrival of each
  /// rank is one gap after startNs (no synchronized burst at t = 0).
  sim::TimeNs startNs = 0;
  sim::TimeNs stopNs = 0;

  std::uint64_t seed = 1;
};

/// The open-loop generator: per-rank SplitMix64 arrival/destination
/// streams merged into one globally time-ordered pull sequence.
class OpenLoopSource final : public TrafficSource {
 public:
  /// Throws std::invalid_argument on a non-positive load, fewer than two
  /// ranks, a zero message size or an empty [startNs, stopNs) window.
  explicit OpenLoopSource(OpenLoopConfig cfg);

  [[nodiscard]] Rank numRanks() const override { return cfg_.numRanks; }
  [[nodiscard]] Pull pull(sim::TimeNs now, SourceMessage& out) override;

  /// Messages emitted so far.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  /// Next interarrival gap of rank @p r, in ns (>= 1).
  [[nodiscard]] sim::TimeNs nextGap(Rank r);
  [[nodiscard]] Rank drawDestination(Rank r);

  OpenLoopConfig cfg_;
  double meanGapNs_ = 0.0;  ///< messageBytes / (load * hostBytesPerNs).
  double peakGapNs_ = 0.0;  ///< messageBytes / hostBytesPerNs (line rate).
  double offMeanNs_ = 0.0;  ///< kBursty: mean idle gap between bursts.

  std::vector<xgft::Rng> streams_;          ///< Per-rank, hashMix(seed, r).
  std::vector<std::uint32_t> burstLeft_;    ///< kBursty per-rank countdown.
  std::vector<Rank> permutation_;           ///< kPermutation target map.

  /// Replaces the earliest arrival with @p next, or drops it when @p next
  /// is past stopNs, and restores the heap with one sift down.
  void replaceEarliest(sim::TimeNs next);

  /// (next arrival time, rank) binary min-heap, the earliest at the front;
  /// ties break by rank, so the merge order is a pure function of the seed.
  using Arrival = std::pair<sim::TimeNs, Rank>;
  std::vector<Arrival> arrivals_;

  std::uint64_t emitted_ = 0;
};

}  // namespace patterns
