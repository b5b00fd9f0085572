// event_queue.hpp — Flat, deterministic event core for the simulator.
//
// Per-delay FIFO lanes over POD event records.  In the paper's network
// model (fixed-size segments, a fixed switch latency, a fixed wire
// latency) nearly every event is scheduled a constant delay after the
// event being handled, and events pushed with one delay from a
// non-decreasing `now` are already in (t, seq) order.  So the queue keeps
// up to kLanes power-of-two ring buffers, each tagged with a delay
// d = t - (time of the last pop).  A push appends to the lane tagged d —
// retagging an empty lane for a new delay — when t is not earlier than that
// lane's tail, and otherwise goes to a small overflow heap.  A pop takes
// the (t, tag) minimum over the occupied lanes' heads (a bitmask, so a
// nearly empty queue looks at one or two) and the heap top.
//
// Determinism is the contract (DESIGN.md §1/§7): `tag` packs a
// monotonically increasing insertion sequence number above the 3-bit event
// kind, giving a strict total order (t, seq) — equal-time events pop in
// exactly insertion order, bit-for-bit reproducing the std::priority_queue
// semantics the event core started from.  The tail check alone keeps every
// lane sorted in that order, whatever times the caller pushes (a push
// earlier than the last pop, a time-skewed re-push); the delay tags only
// decide how often the heap is needed, never the order served.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace sim {

/// One pending event: 24 bytes, trivially copyable, no indirection.
struct EventRecord {
  TimeNs t = 0;
  std::uint64_t tag = 0;  ///< (insertion seq << 3) | kind: orders ties.
  std::uint32_t a = 0;    ///< Port / message / callback-slot index.
  std::uint32_t seg = 0;  ///< Segment-pool index where applicable.

  [[nodiscard]] std::uint8_t kind() const {
    return static_cast<std::uint8_t>(tag & 7u);
  }
};

class EventQueue {
 public:
  void push(TimeNs t, std::uint8_t kind, std::uint32_t a, std::uint32_t seg) {
    assert(kind < 8 && "EventQueue: kind must fit the 3-bit tag field");
    const EventRecord e{t, (seq_++ << 3) | kind, a, seg};
    // Wraps for t < lastPop_: still a usable key, the tail check decides.
    const TimeNs d = t - lastPop_;
    const unsigned i = laneFor(d);
    if (i < kLanes) {
      Lane& lane = lanes_[i];
      if (lane.head == lane.tail ||
          lane.ring[(lane.tail - 1) & lane.mask].t <= t) {
        if (lane.tail - lane.head == lane.ring.size()) grow(lane);
        lane.ring[lane.tail++ & lane.mask] = e;
        occupied_ |= 1u << i;
        return;
      }
    }
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++overflowPushes_;
  }

  /// Extracts the earliest event — strict (t, insertion-seq) order — into
  /// @p out if its time is <= @p until.  Returns false (and removes
  /// nothing) when the queue is empty or the earliest event is later.
  [[nodiscard]] bool popUntil(TimeNs until, EventRecord& out) {
    const EventRecord* best = heap_.empty() ? nullptr : &heap_.front();
    unsigned from = kLanes;
    for (unsigned m = occupied_; m != 0; m &= m - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(m));
      const Lane& lane = lanes_[i];
      const EventRecord& head = lane.ring[lane.head & lane.mask];
      if (best == nullptr || Earlier{}(head, *best)) {
        best = &head;
        from = i;
      }
    }
    if (best == nullptr || best->t > until) return false;
    out = *best;
    if (from == kLanes) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    } else if (++lanes_[from].head == lanes_[from].tail) {
      occupied_ &= ~(1u << from);
    }
    lastPop_ = out.t;
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = heap_.size();
    for (const Lane& lane : lanes_) n += lane.tail - lane.head;
    return n;
  }
  [[nodiscard]] bool empty() const { return occupied_ == 0 && heap_.empty(); }
  /// Pushes no lane could take (served by the overflow heap instead).
  [[nodiscard]] std::uint64_t overflowPushes() const { return overflowPushes_; }

 private:
  static constexpr unsigned kLanes = 8;
  static constexpr std::size_t kFirstRing = 64;
  static_assert(std::has_single_bit(kFirstRing), "rings are powers of two");

  /// The (t, tag) total order.
  struct Earlier {
    bool operator()(const EventRecord& a, const EventRecord& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.tag < b.tag;
    }
  };
  /// Inverse order: makes the std heap algorithms keep the earliest on top.
  struct Later {
    bool operator()(const EventRecord& a, const EventRecord& b) const {
      return Earlier{}(b, a);
    }
  };

  /// A FIFO ring; head/tail are running counts, the slot is count & mask.
  struct Lane {
    std::vector<EventRecord> ring;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
  };

  /// The lane tagged @p d, else an empty lane retagged to @p d, else
  /// kLanes (every lane holds events of another delay).
  [[nodiscard]] unsigned laneFor(TimeNs d) {
    for (unsigned i = 0; i < kLanes; ++i) {
      if (delay_[i] == d) return i;
    }
    const unsigned idle = ~occupied_ & ((1u << kLanes) - 1);
    if (idle == 0) return kLanes;
    const auto i = static_cast<unsigned>(std::countr_zero(idle));
    delay_[i] = d;
    return i;
  }

  /// Doubles a full ring, unwrapping it so the head restarts at slot 0.
  static void grow(Lane& lane) {
    const std::size_t n = lane.tail - lane.head;
    std::vector<EventRecord> bigger(std::max(kFirstRing, 2 * n));
    for (std::size_t k = 0; k < n; ++k) {
      bigger[k] = lane.ring[(lane.head + k) & lane.mask];
    }
    lane.ring.swap(bigger);
    lane.mask = lane.ring.size() - 1;
    lane.head = 0;
    lane.tail = n;
  }

  std::array<Lane, kLanes> lanes_;
  /// Lane delay tags, unique; the initial 0..7 are as good as any.
  std::array<TimeNs, kLanes> delay_{0, 1, 2, 3, 4, 5, 6, 7};
  unsigned occupied_ = 0;  ///< Bit i: lane i holds events.
  std::vector<EventRecord> heap_;  ///< Overflow, a (t, tag) min-heap.
  TimeNs lastPop_ = 0;
  std::uint64_t seq_ = 0;  ///< 61 usable bits — never wraps in practice.
  std::uint64_t overflowPushes_ = 0;
};

}  // namespace sim
