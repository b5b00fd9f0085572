// Tests for the open-loop traffic sources: determinism, time ordering,
// offered-load calibration, destination distributions, the stop horizon,
// and the pull sequence against the std::priority_queue merge the source
// started from.
#include "patterns/source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "xgft/rng.hpp"

namespace patterns {
namespace {

OpenLoopConfig baseConfig() {
  OpenLoopConfig cfg;
  cfg.numRanks = 16;
  cfg.load = 0.5;
  cfg.hostBytesPerNs = 0.25;  // 2 Gbit/s.
  cfg.messageBytes = 1024;
  cfg.stopNs = 2'000'000;
  cfg.seed = 7;
  return cfg;
}

std::vector<SourceMessage> drain(OpenLoopSource& src) {
  std::vector<SourceMessage> out;
  SourceMessage m;
  while (src.pull(0, m) == Pull::kMessage) out.push_back(m);
  return out;
}

TEST(OpenLoopSource, ValidatesConfig) {
  OpenLoopConfig cfg = baseConfig();
  cfg.numRanks = 1;
  EXPECT_THROW(OpenLoopSource{cfg}, std::invalid_argument);
  cfg = baseConfig();
  cfg.load = 0.0;
  EXPECT_THROW(OpenLoopSource{cfg}, std::invalid_argument);
  cfg = baseConfig();
  cfg.stopNs = cfg.startNs;
  EXPECT_THROW(OpenLoopSource{cfg}, std::invalid_argument);
  cfg = baseConfig();
  cfg.messageBytes = 0;
  EXPECT_THROW(OpenLoopSource{cfg}, std::invalid_argument);
  cfg = baseConfig();
  cfg.dest = DestDistribution::kHotspot;
  cfg.hotFraction = 1.5;
  EXPECT_THROW(OpenLoopSource{cfg}, std::invalid_argument);
}

TEST(OpenLoopSource, StreamIsDeterministicAndTimeOrdered) {
  OpenLoopSource a(baseConfig());
  OpenLoopSource b(baseConfig());
  const std::vector<SourceMessage> sa = drain(a);
  const std::vector<SourceMessage> sb = drain(b);
  ASSERT_FALSE(sa.empty());
  ASSERT_EQ(sa.size(), sb.size());
  sim::TimeNs last = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].src, sb[i].src);
    EXPECT_EQ(sa[i].dst, sb[i].dst);
    EXPECT_EQ(sa[i].time, sb[i].time);
    EXPECT_EQ(sa[i].token, i);  // Tokens are dense in emission order.
    EXPECT_GE(sa[i].time, last);
    last = sa[i].time;
    EXPECT_NE(sa[i].src, sa[i].dst);  // Never a self-message.
    EXPECT_LT(sa[i].time, baseConfig().stopNs);
  }
}

TEST(OpenLoopSource, SeedsChangeTheStream) {
  OpenLoopConfig cfg = baseConfig();
  OpenLoopSource a(cfg);
  cfg.seed = 8;
  OpenLoopSource b(cfg);
  const std::vector<SourceMessage> sa = drain(a);
  const std::vector<SourceMessage> sb = drain(b);
  bool different = sa.size() != sb.size();
  for (std::size_t i = 0; !different && i < sa.size(); ++i) {
    different = sa[i].time != sb[i].time || sa[i].dst != sb[i].dst;
  }
  EXPECT_TRUE(different);
}

TEST(OpenLoopSource, PoissonOfferedLoadIsCalibrated) {
  // Offered bytes over the horizon must track load * rate * ranks * time
  // closely (law of large numbers; ~16k arrivals here).
  OpenLoopConfig cfg = baseConfig();
  cfg.stopNs = 8'000'000;
  OpenLoopSource src(cfg);
  const std::vector<SourceMessage> all = drain(src);
  const double offered = static_cast<double>(all.size()) *
                         static_cast<double>(cfg.messageBytes);
  const double expected = cfg.load * cfg.hostBytesPerNs *
                          static_cast<double>(cfg.numRanks) *
                          static_cast<double>(cfg.stopNs - cfg.startNs);
  EXPECT_NEAR(offered / expected, 1.0, 0.05);
}

TEST(OpenLoopSource, BurstyMatchesMeanLoadWithBurstyGaps) {
  OpenLoopConfig cfg = baseConfig();
  cfg.arrivals = ArrivalProcess::kBursty;
  cfg.burstLength = 8;
  cfg.stopNs = 8'000'000;
  OpenLoopSource src(cfg);
  const std::vector<SourceMessage> all = drain(src);
  const double offered = static_cast<double>(all.size()) *
                         static_cast<double>(cfg.messageBytes);
  const double expected = cfg.load * cfg.hostBytesPerNs *
                          static_cast<double>(cfg.numRanks) *
                          static_cast<double>(cfg.stopNs - cfg.startNs);
  EXPECT_NEAR(offered / expected, 1.0, 0.08);

  // Per-rank gap histogram is bimodal: line-rate gaps inside bursts
  // dominate by count.
  std::map<Rank, std::vector<sim::TimeNs>> perRank;
  for (const SourceMessage& m : all) perRank[m.src].push_back(m.time);
  const auto peakGap = static_cast<sim::TimeNs>(
      static_cast<double>(cfg.messageBytes) / cfg.hostBytesPerNs + 0.5);
  std::uint64_t atPeak = 0;
  std::uint64_t total = 0;
  for (auto& [r, times] : perRank) {
    for (std::size_t i = 1; i < times.size(); ++i) {
      atPeak += (times[i] - times[i - 1]) == peakGap;
      ++total;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(atPeak) / static_cast<double>(total), 0.5);
}

TEST(OpenLoopSource, UniformCoversAllDestinations) {
  OpenLoopConfig cfg = baseConfig();
  cfg.numRanks = 8;
  cfg.stopNs = 8'000'000;
  OpenLoopSource src(cfg);
  std::set<std::pair<Rank, Rank>> pairs;
  for (const SourceMessage& m : drain(src)) pairs.emplace(m.src, m.dst);
  // Every ordered non-self pair appears among ~16k draws.
  EXPECT_EQ(pairs.size(), 8u * 7u);
}

TEST(OpenLoopSource, HotspotBiasesTowardRankZero) {
  OpenLoopConfig cfg = baseConfig();
  cfg.dest = DestDistribution::kHotspot;
  cfg.hotFraction = 0.5;
  cfg.stopNs = 8'000'000;
  OpenLoopSource src(cfg);
  std::uint64_t toHot = 0;
  std::uint64_t fromOthers = 0;
  for (const SourceMessage& m : drain(src)) {
    if (m.src == 0) continue;
    ++fromOthers;
    toHot += m.dst == 0;
  }
  ASSERT_GT(fromOthers, 1000u);
  // 50% aimed at the hotspot plus the uniform remainder's 1/15 share.
  const double expected = 0.5 + 0.5 / 15.0;
  EXPECT_NEAR(static_cast<double>(toHot) / static_cast<double>(fromOthers),
              expected, 0.05);
}

TEST(OpenLoopSource, PermutationIsFixedAndFixedPointFree) {
  OpenLoopConfig cfg = baseConfig();
  cfg.dest = DestDistribution::kPermutation;
  OpenLoopSource src(cfg);
  std::map<Rank, Rank> target;
  for (const SourceMessage& m : drain(src)) {
    EXPECT_NE(m.src, m.dst);
    const auto [it, inserted] = target.emplace(m.src, m.dst);
    if (!inserted) {
      EXPECT_EQ(it->second, m.dst);  // One target per rank.
    }
  }
  // Injective: a permutation, not just a function.
  std::set<Rank> images;
  for (const auto& [src_, dst] : target) images.insert(dst);
  EXPECT_EQ(images.size(), target.size());
}

/// The open-loop generator as it was before its merge kept the heap in a
/// vector and sifted once per pull: the same per-rank draws, merged through
/// a std::priority_queue that pops the earliest (t, rank) and pushes that
/// rank's next arrival.  The reference the pull sequence must match.
class PriorityQueueMerge {
 public:
  explicit PriorityQueueMerge(const OpenLoopConfig& cfg) : cfg_(cfg) {
    const double bytes = static_cast<double>(cfg_.messageBytes);
    meanGapNs_ = bytes / (cfg_.load * cfg_.hostBytesPerNs);
    peakGapNs_ = bytes / cfg_.hostBytesPerNs;
    const double b = static_cast<double>(cfg_.burstLength);
    offMeanNs_ = std::max(0.0, b * meanGapNs_ - (b - 1.0) * peakGapNs_);
    for (Rank r = 0; r < cfg_.numRanks; ++r) {
      streams_.emplace_back(xgft::hashMix(cfg_.seed, r));
    }
    burstLeft_.assign(cfg_.numRanks, 0);
    if (cfg_.dest == DestDistribution::kPermutation) {
      permutation_.resize(cfg_.numRanks);
      for (Rank r = 0; r < cfg_.numRanks; ++r) permutation_[r] = r;
      xgft::Rng perm(xgft::hashMix(cfg_.seed, 0x7065726dULL));
      perm.shuffle(permutation_);
      for (Rank r = 0; r < cfg_.numRanks; ++r) {
        if (permutation_[r] == r) {
          std::swap(permutation_[r], permutation_[(r + 1) % cfg_.numRanks]);
        }
      }
    }
    for (Rank r = 0; r < cfg_.numRanks; ++r) scheduleNext(r, cfg_.startNs);
  }

  bool pull(SourceMessage& out) {
    if (arrivals_.empty()) return false;
    const auto [t, r] = arrivals_.top();
    arrivals_.pop();
    out.src = r;
    out.dst = drawDestination(r);
    out.bytes = cfg_.messageBytes;
    out.time = t;
    out.token = emitted_++;
    scheduleNext(r, t);
    return true;
  }

 private:
  static double unitOpen(std::uint64_t bits) {
    return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
  }

  sim::TimeNs nextGap(Rank r) {
    double gap = 0.0;
    if (cfg_.arrivals == ArrivalProcess::kPoisson) {
      gap = -std::log(unitOpen(streams_[r].next())) * meanGapNs_;
    } else if (burstLeft_[r] > 0) {
      --burstLeft_[r];
      gap = peakGapNs_;
    } else {
      burstLeft_[r] = cfg_.burstLength - 1;
      gap = offMeanNs_ == 0.0
                ? peakGapNs_
                : -std::log(unitOpen(streams_[r].next())) * offMeanNs_;
    }
    return std::max<sim::TimeNs>(1, static_cast<sim::TimeNs>(gap + 0.5));
  }

  Rank drawDestination(Rank r) {
    if (cfg_.dest == DestDistribution::kPermutation) return permutation_[r];
    if (cfg_.dest == DestDistribution::kHotspot && r != 0 &&
        unitOpen(streams_[r].next()) <= cfg_.hotFraction) {
      return 0;
    }
    const auto offset =
        static_cast<Rank>(streams_[r].below(cfg_.numRanks - 1));
    return static_cast<Rank>((r + 1 + offset) % cfg_.numRanks);
  }

  void scheduleNext(Rank r, sim::TimeNs from) {
    const sim::TimeNs t = from + nextGap(r);
    if (t < cfg_.stopNs) arrivals_.emplace(t, r);
  }

  OpenLoopConfig cfg_;
  double meanGapNs_ = 0.0;
  double peakGapNs_ = 0.0;
  double offMeanNs_ = 0.0;
  std::vector<xgft::Rng> streams_;
  std::vector<std::uint32_t> burstLeft_;
  std::vector<Rank> permutation_;
  using Arrival = std::pair<sim::TimeNs, Rank>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      arrivals_;
  std::uint64_t emitted_ = 0;
};

TEST(OpenLoopSource, PullSequenceMatchesThePriorityQueueMerge) {
  for (const Rank ranks : {2u, 128u, 4096u}) {
    for (const ArrivalProcess arrivals :
         {ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
      for (const DestDistribution dest :
           {DestDistribution::kUniform, DestDistribution::kHotspot,
            DestDistribution::kPermutation}) {
        OpenLoopConfig cfg = baseConfig();
        cfg.numRanks = ranks;
        cfg.arrivals = arrivals;
        cfg.dest = dest;
        cfg.messageBytes = 512;
        cfg.startNs = 1000;
        // About 40k pulls per case: a mean gap of 4096 ns per rank.
        cfg.stopNs = cfg.startNs + 40'000ull * 4096 / ranks;
        OpenLoopSource src(cfg);
        PriorityQueueMerge ref(cfg);
        SourceMessage got;
        SourceMessage want;
        std::uint64_t pulls = 0;
        while (ref.pull(want)) {
          ASSERT_EQ(src.pull(0, got), Pull::kMessage)
              << ranks << " ranks, pull " << pulls;
          ASSERT_EQ(got.time, want.time) << ranks << " ranks, pull " << pulls;
          ASSERT_EQ(got.src, want.src) << ranks << " ranks, pull " << pulls;
          ASSERT_EQ(got.dst, want.dst) << ranks << " ranks, pull " << pulls;
          ASSERT_EQ(got.bytes, want.bytes);
          ASSERT_EQ(got.token, want.token);
          ++pulls;
        }
        EXPECT_EQ(src.pull(0, got), Pull::kExhausted);
        EXPECT_GT(pulls, 30'000u) << ranks << " ranks";
      }
    }
  }
}

}  // namespace
}  // namespace patterns
