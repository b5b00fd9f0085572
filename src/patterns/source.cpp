#include "patterns/source.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace patterns {

void TrafficSource::onDelivered(std::uint64_t /*token*/, sim::TimeNs /*now*/) {}

namespace {

/// 53 uniform mantissa bits mapped into (0, 1] — never 0, so -log(u) is
/// finite.
double unitOpen(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

OpenLoopSource::OpenLoopSource(OpenLoopConfig cfg) : cfg_(cfg) {
  if (cfg_.numRanks < 2) {
    throw std::invalid_argument("OpenLoopSource: need at least 2 ranks");
  }
  if (!(cfg_.load > 0.0)) {
    throw std::invalid_argument("OpenLoopSource: load must be > 0");
  }
  if (!(cfg_.hostBytesPerNs > 0.0)) {
    throw std::invalid_argument("OpenLoopSource: hostBytesPerNs must be > 0");
  }
  if (cfg_.messageBytes == 0) {
    throw std::invalid_argument("OpenLoopSource: messageBytes must be > 0");
  }
  if (cfg_.stopNs <= cfg_.startNs) {
    throw std::invalid_argument("OpenLoopSource: empty [start, stop) window");
  }
  if (cfg_.dest == DestDistribution::kHotspot &&
      (cfg_.hotFraction < 0.0 || cfg_.hotFraction > 1.0)) {
    throw std::invalid_argument("OpenLoopSource: hotFraction outside [0, 1]");
  }
  if (cfg_.arrivals == ArrivalProcess::kBursty && cfg_.burstLength == 0) {
    throw std::invalid_argument("OpenLoopSource: burstLength must be > 0");
  }
  const double bytes = static_cast<double>(cfg_.messageBytes);
  meanGapNs_ = bytes / (cfg_.load * cfg_.hostBytesPerNs);
  peakGapNs_ = bytes / cfg_.hostBytesPerNs;
  // kBursty: B messages per cycle, B-1 line-rate gaps inside the burst plus
  // one idle gap; the idle mean is whatever keeps the cycle's mean gap at
  // meanGapNs_.  Loads at or beyond line rate clamp the idle gap to zero
  // (the source then offers exactly the line rate, back to back).
  const double b = static_cast<double>(cfg_.burstLength);
  offMeanNs_ = std::max(0.0, b * meanGapNs_ - (b - 1.0) * peakGapNs_);

  streams_.reserve(cfg_.numRanks);
  for (Rank r = 0; r < cfg_.numRanks; ++r) {
    streams_.emplace_back(xgft::hashMix(cfg_.seed, r));
  }
  if (cfg_.arrivals == ArrivalProcess::kBursty) {
    burstLeft_.assign(cfg_.numRanks, 0);
  }
  if (cfg_.dest == DestDistribution::kPermutation) {
    permutation_.resize(cfg_.numRanks);
    for (Rank r = 0; r < cfg_.numRanks; ++r) permutation_[r] = r;
    // A dedicated stream: the permutation must not perturb the per-rank
    // arrival/destination draws.
    xgft::Rng perm(xgft::hashMix(cfg_.seed, 0x7065726dULL));  // "perm"
    perm.shuffle(permutation_);
    // Repair self-maps by swapping with the cyclic neighbour; with
    // numRanks >= 2 the result has no fixed point.
    for (Rank r = 0; r < cfg_.numRanks; ++r) {
      if (permutation_[r] == r) {
        const Rank next = (r + 1) % cfg_.numRanks;
        std::swap(permutation_[r], permutation_[next]);
      }
    }
  }
  arrivals_.reserve(cfg_.numRanks);
  for (Rank r = 0; r < cfg_.numRanks; ++r) {
    const sim::TimeNs t = cfg_.startNs + nextGap(r);
    if (t < cfg_.stopNs) arrivals_.emplace_back(t, r);
  }
  std::make_heap(arrivals_.begin(), arrivals_.end(), std::greater<>{});
}

sim::TimeNs OpenLoopSource::nextGap(Rank r) {
  double gap = 0.0;
  switch (cfg_.arrivals) {
    case ArrivalProcess::kPoisson:
      gap = -std::log(unitOpen(streams_[r].next())) * meanGapNs_;
      break;
    case ArrivalProcess::kBursty:
      if (burstLeft_[r] > 0) {
        --burstLeft_[r];
        gap = peakGapNs_;
      } else {
        burstLeft_[r] = cfg_.burstLength - 1;
        gap = offMeanNs_ == 0.0
                  ? peakGapNs_
                  : -std::log(unitOpen(streams_[r].next())) * offMeanNs_;
      }
      break;
  }
  return std::max<sim::TimeNs>(1, static_cast<sim::TimeNs>(gap + 0.5));
}

Rank OpenLoopSource::drawDestination(Rank r) {
  switch (cfg_.dest) {
    case DestDistribution::kUniform:
      break;
    case DestDistribution::kHotspot:
      if (r != 0 && unitOpen(streams_[r].next()) <= cfg_.hotFraction) {
        return 0;
      }
      break;
    case DestDistribution::kPermutation:
      return permutation_[r];
  }
  // Uniform over the other numRanks - 1 ranks.
  const Rank offset = static_cast<Rank>(
      streams_[r].below(cfg_.numRanks - 1));
  return static_cast<Rank>((r + 1 + offset) % cfg_.numRanks);
}

void OpenLoopSource::replaceEarliest(sim::TimeNs next) {
  Arrival moving{next, arrivals_.front().second};
  if (next >= cfg_.stopNs) {
    moving = arrivals_.back();
    arrivals_.pop_back();
    if (arrivals_.empty()) return;
  }
  // Sift down from the top: (t, rank) keys are unique, so any valid heap
  // yields the same pull sequence.
  const std::size_t n = arrivals_.size();
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && arrivals_[c + 1] < arrivals_[c]) ++c;
    if (!(arrivals_[c] < moving)) break;
    arrivals_[i] = arrivals_[c];
    i = c;
  }
  arrivals_[i] = moving;
}

Pull OpenLoopSource::pull(sim::TimeNs /*now*/, SourceMessage& out) {
  if (arrivals_.empty()) return Pull::kExhausted;
  const auto [t, r] = arrivals_.front();
  out.src = r;
  out.dst = drawDestination(r);
  out.bytes = cfg_.messageBytes;
  out.time = t;
  out.token = emitted_++;
  replaceEarliest(t + nextGap(r));
  return Pull::kMessage;
}

}  // namespace patterns
