// Tests for the message slot pool's paged storage: records keep their
// addresses while the pool grows, and a delivery may read its record after
// the source's reaction to it has grown the pool by more than a page.
#include "sim/paged_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "patterns/source.hpp"
#include "sim/injection.hpp"
#include "sim/network.hpp"
#include "sim/probe.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

struct Rec {
  std::uint64_t value = 0;
  std::uint32_t index = 0;
};

TEST(PagedVector, RecordsStayPutWhileItGrows) {
  PagedVector<Rec> pool;
  EXPECT_EQ(pool.size(), 0u);
  const std::size_t n = 3 * PagedVector<Rec>::kPageSize + 7;  // 4 pages.
  std::vector<const Rec*> where;
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(Rec{i * 3 + 1, static_cast<std::uint32_t>(i)});
    // size() counts the records handed out, not the pages' capacity.
    ASSERT_EQ(pool.size(), i + 1);
    where.push_back(&pool[i]);
  }
  std::size_t moved = 0;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (&pool[i] != where[i]) ++moved;
    if (pool[i].value != i * 3 + 1 || pool[i].index != i) ++wrong;
  }
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(wrong, 0u);
}

/// Sends one message; its delivery lets the source hand out a burst of
/// more than a page of messages at the same instant, all live at once.
class BurstOnDelivery : public patterns::TrafficSource {
 public:
  static constexpr std::uint64_t kBurst = PagedVector<Rec>::kPageSize + 100;

  [[nodiscard]] patterns::Rank numRanks() const override { return kRanks; }

  [[nodiscard]] patterns::Pull pull(TimeNs now,
                                    patterns::SourceMessage& out) override {
    if (next_ > kBurst) return patterns::Pull::kExhausted;
    if (next_ > 0 && !released_) return patterns::Pull::kBlocked;
    const std::uint64_t token = next_++;
    out.src = static_cast<patterns::Rank>(token % kRanks);
    out.dst = static_cast<patterns::Rank>(
        (out.src + 1 + (token / kRanks) % (kRanks - 1)) % kRanks);
    out.bytes = bytesOf(token);
    out.time = now;
    out.token = token;
    return patterns::Pull::kMessage;
  }

  void onDelivered(std::uint64_t token, TimeNs now) override {
    if (token == 0) {
      released_ = true;
      burstNs = now;
    }
  }

  [[nodiscard]] static Bytes bytesOf(std::uint64_t token) {
    return 64 + (token % 13) * 100;
  }

  TimeNs burstNs = 0;

 private:
  static constexpr patterns::Rank kRanks = 16;
  std::uint64_t next_ = 0;
  bool released_ = false;
};

/// The sequence number the network reports for each completion, in order.
class SeqRecorder : public Probe {
 public:
  void onMessageDelivered(std::uint32_t msg, TimeNs /*t*/) override {
    seqs.push_back(msg);
  }
  std::vector<std::uint32_t> seqs;
};

TEST(InjectionProcess, DeliveryReadsItsRecordAfterTheSourceAddsAPage) {
  // The first message's delivery runs the source, which adds more than a
  // page of messages before the network reads that record again (the seq
  // it reports to the probe) and frees it.  Every delivery must still see
  // its own bytes and release time.
  const xgft::Topology topo(xgft::xgft2(4, 4, 4));
  Network net(topo, SimConfig{});
  SeqRecorder probe;
  net.setProbe(&probe);
  BurstOnDelivery src;
  InjectionOptions opt;
  opt.addMessage = [&net](xgft::NodeIndex s, xgft::NodeIndex d, Bytes bytes) {
    return std::optional<MsgId>(net.addMessageAdaptive(s, d, bytes));
  };
  InjectionProcess process(net, src, opt);
  std::vector<bool> seen(BurstOnDelivery::kBurst + 1, false);
  std::uint64_t wrong = 0;
  process.onDelivery = [&](std::uint64_t token, Bytes bytes, TimeNs released,
                           TimeNs /*delivered*/) {
    ASSERT_LT(token, seen.size());
    EXPECT_FALSE(seen[token]) << "token " << token;
    seen[token] = true;
    const TimeNs expectReleased = token == 0 ? 0 : src.burstNs;
    if (bytes != BurstOnDelivery::bytesOf(token) ||
        released != expectReleased) {
      ++wrong;
    }
  };
  process.run();
  EXPECT_TRUE(process.exhausted());
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(seen.size()));
  EXPECT_GT(src.burstNs, 0u);
  // The burst was live at once: the pool handed out more than a page.
  EXPECT_GT(net.messageSlots(), PagedVector<Rec>::kPageSize);
  ASSERT_EQ(probe.seqs.size(), BurstOnDelivery::kBurst + 1);
  EXPECT_EQ(probe.seqs.front(), 0u);
}

}  // namespace
}  // namespace sim
