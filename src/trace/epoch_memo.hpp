// epoch_memo.hpp — Replay epochs simulated once and reused.
//
// An epoch is a phase of a closed-loop replay that releases messages, from its
// release on an idle network to its last delivery.  When no probe watches the
// network and no link went down, the epoch's outcome is a function of its
// EpochKey: the network it runs on and the messages it releases, in release
// order, with their routes.  trace::Replayer records the outcome of every such
// epoch it simulates and fast-forwards through every one it finds here;
// DESIGN.md §2 ("Epoch reuse") has the conditions and why they suffice.
//
// The memo is thread-safe: workers of one campaign share it.  An entry is
// written once and never changed or erased, so find() hands out a pointer
// that stays valid as long as the memo.  Two workers that miss one key at
// once both simulate it, and the first record wins; the two records are
// equal.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace trace {

/// What fixes an epoch's outcome.  Two different epochs share a key only
/// when their networks and message counts and byte totals agree and their
/// 128-bit digests collide: about n^2 / 2^129 over n entries.
struct EpochKey {
  /// The topology's params string and the sim config key, exactly.
  std::string network;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Two hash chains over the messages in release order, each message
  /// contributing its src host, dst host, bytes, NCA level and choice.
  std::uint64_t digestLo = 0;
  std::uint64_t digestHi = 0;

  friend auto operator<=>(const EpochKey&, const EpochKey&) = default;
};

/// A simulated epoch's outcome: the network's delta over it, and the host
/// of its closing rank, the receiver of its last delivery — the rank the
/// next phase releases last, which fixes that phase's release order.
struct Epoch {
  sim::IdleDelta delta;
  xgft::NodeIndex closingHost = 0;
};

struct EpochMemoStats {
  std::uint64_t entries = 0;
  /// Bytes the entries hold: map nodes, keys and deltas (string and vector
  /// capacities counted, allocator overhead not).
  std::uint64_t bytes = 0;
};

class EpochMemo {
 public:
  /// The epoch recorded under @p key, or null.
  [[nodiscard]] const Epoch* find(const EpochKey& key) const;

  /// Records @p epoch under @p key, unless the key holds one already.
  void record(const EpochKey& key, Epoch epoch);

  [[nodiscard]] EpochMemoStats stats() const;

 private:
  mutable core::Mutex mu_;
  std::map<EpochKey, Epoch> entries_ XGFT_GUARDED_BY(mu_);
  std::uint64_t bytes_ XGFT_GUARDED_BY(mu_) = 0;
};

}  // namespace trace
