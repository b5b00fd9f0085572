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
// lane's tail, and otherwise goes to a small overflow heap.  A push first
// tries the lane its event kind used last: each kind of the network's hot
// path has one delay on full segments, so the tag scan is rarely needed.
//
// The same model makes the simulator move in lock-step: most pops share
// the previous pop's instant and come from the same lane.  So every lane's
// head key (t, tag) is cached in one array, and the queue remembers the
// lane of the last pop and the runner-up key: the least head of every
// other lane and of the heap.  A pop takes the current lane's head while
// it beats the runner-up (one compare); otherwise it scans the occupied
// lanes' cached keys (a bitmask, so a nearly empty queue looks at one or
// two) and the heap top, which yields the new runner-up too.
//
// Determinism is the contract (DESIGN.md §1/§7): `tag` packs a
// monotonically increasing insertion sequence number above the 3-bit event
// kind, giving a strict total order (t, seq) — equal-time events pop in
// exactly insertion order, bit-for-bit reproducing the std::priority_queue
// semantics the event core started from.  The tail check alone keeps every
// lane sorted in that order, whatever times the caller pushes (a push
// earlier than the last pop, a time-skewed re-push); the delay tags and
// kind hints only decide how often the heap is needed, and the runner-up
// only how often a pop scans, never the order served.
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
    const std::uint64_t tag = (seq_++ << 3) | kind;
    // Wraps for t < lastPop_: still a usable key, the tail check decides.
    const TimeNs d = t - lastPop_;
    unsigned i = hint_[kind];
    if (delay_[i] != d) [[unlikely]] {
      // Delay tags are unique, so a hit is the lane the scan would find.
      i = laneFor(d);
      if (i == kLanes) {
        pushHeap(t, tag, a, seg);
        return;
      }
      hint_[kind] = static_cast<std::uint8_t>(i);
    }
    Lane& lane = lanes_[i];
    const bool idle = lane.head == lane.tail;
    if (!idle && lane.ring[(lane.tail - 1) & lane.mask].t > t) [[unlikely]] {
      pushHeap(t, tag, a, seg);
      return;
    }
    if (lane.tail - lane.head == lane.mask + 1) [[unlikely]] grow(lane);
    // Field by field into the slot: a record built on the stack and copied
    // in is stored in halves and reloaded whole, which the CPU cannot
    // forward (DESIGN.md §7, hot-path rules).
    EventRecord& slot = lane.ring[lane.tail++ & lane.mask];
    slot.t = t;
    slot.tag = tag;
    slot.a = a;
    slot.seg = seg;
    if (idle) {
      const Key key = keyOf(t, tag);
      head_[i] = key;
      occupied_ |= 1u << i;
      // The new head can undercut the runner-up only by an earlier time:
      // its tag is the largest so far.
      if (i != cur_ && key < runnerUp_) runnerUp_ = key;
    }
  }

  /// Extracts the earliest event — strict (t, insertion-seq) order — into
  /// @p out if its time is <= @p until.  Returns false (and removes
  /// nothing) when the queue is empty or the earliest event is later.
  [[nodiscard]] bool popUntil(TimeNs until, EventRecord& out) {
    // head_[kLanes] is kNone, so after a heap pop this falls through.
    const Key head = head_[cur_];
    if (head < runnerUp_) {
      if (timeOf(head) > until) return false;
      popLane(cur_, out);
      return true;
    }
    return scanAndPop(until, out);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = heap_.size();
    for (const Lane& lane : lanes_) n += lane.tail - lane.head;
    return n;
  }
  [[nodiscard]] bool empty() const { return occupied_ == 0 && heap_.empty(); }
  /// Pushes no lane could take (served by the overflow heap instead).
  [[nodiscard]] std::uint64_t overflowPushes() const { return overflowPushes_; }
  /// Pops that had to scan the lane heads (the rest took the current
  /// lane's head with one compare against the runner-up).
  [[nodiscard]] std::uint64_t rescans() const { return rescans_; }

 private:
  static constexpr unsigned kLanes = 8;
  static constexpr std::size_t kFirstRing = 64;
  static_assert(std::has_single_bit(kFirstRing), "rings are powers of two");

  /// (t << 64) | tag: the (t, tag) total order as one unsigned compare.
  using Key = unsigned __int128;
  /// An empty lane's key: later than any event's.
  static constexpr Key kNone = ~Key{0};

  [[nodiscard]] static Key keyOf(TimeNs t, std::uint64_t tag) {
    return (static_cast<Key>(t) << 64) | tag;
  }
  [[nodiscard]] static Key keyOf(const EventRecord& e) {
    return keyOf(e.t, e.tag);
  }
  [[nodiscard]] static TimeNs timeOf(Key key) {
    return static_cast<TimeNs>(key >> 64);
  }

  /// Inverse (t, tag) order: makes the std heap algorithms keep the
  /// earliest on top.
  struct Later {
    bool operator()(const EventRecord& a, const EventRecord& b) const {
      return keyOf(b) < keyOf(a);
    }
  };

  /// A FIFO ring; head/tail are running counts, the slot is count & mask.
  /// mask + 1 is the capacity: 0 (mask all-ones) before the first grow.
  struct Lane {
    std::vector<EventRecord> ring;
    std::size_t mask = ~std::size_t{0};
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

  /// Copies the record in @p slot to @p out, field by field, and makes it
  /// the last pop.  Nothing out of line sees @p out, so the caller keeps the
  /// fields in registers and reads each with a load no wider than the
  /// store that wrote it, which the CPU forwards even when the record was
  /// pushed a moment ago (a zero-delay release).
  void take(const EventRecord& slot, EventRecord& out) {
    out.t = slot.t;
    out.tag = slot.tag;
    out.a = slot.a;
    out.seg = slot.seg;
    lastPop_ = slot.t;
  }

  /// Moves lane @p i's head into @p out and caches the next head's key.
  void popLane(unsigned i, EventRecord& out) {
    Lane& lane = lanes_[i];
    take(lane.ring[lane.head++ & lane.mask], out);
    if (lane.head == lane.tail) {
      head_[i] = kNone;
      occupied_ &= ~(1u << i);
    } else {
      head_[i] = keyOf(lane.ring[lane.head & lane.mask]);
    }
  }

  /// The slow pop: finds the least and second-least of the occupied lanes'
  /// heads and the heap top, makes the least's lane current (kLanes for
  /// the heap) and the second the runner-up, then pops the least if due.
  [[nodiscard]] bool scanAndPop(TimeNs until, EventRecord& out) {
    Key best = heap_.empty() ? kNone : keyOf(heap_.front());
    Key second = kNone;
    unsigned from = kLanes;
    for (unsigned m = occupied_; m != 0; m &= m - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(m));
      const Key k = head_[i];
      if (k < best) {
        second = best;
        best = k;
        from = i;
      } else if (k < second) {
        second = k;
      }
    }
    cur_ = from;
    runnerUp_ = second;
    if (best == kNone || timeOf(best) > until) return false;
    ++rescans_;
    if (from < kLanes) {
      popLane(from, out);
    } else {
      take(heap_.front(), out);
      popHeap();
    }
    return true;
  }

  // The heap and ring growth are off the hot paths; kept out of line, they
  // leave push and the pop loop few registers to save.

  /// A push no lane can take.  The fields come by value, so push never
  /// takes the address of a record.
  [[gnu::noinline]] void pushHeap(TimeNs t, std::uint64_t tag, std::uint32_t a,
                                  std::uint32_t seg) {
    heap_.push_back(EventRecord{t, tag, a, seg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = keyOf(t, tag);
    if (key < runnerUp_) runnerUp_ = key;
    ++overflowPushes_;
  }

  /// Drops the heap top, which the caller has taken.
  [[gnu::noinline]] void popHeap() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

  /// Doubles a full ring, unwrapping it so the head restarts at slot 0.
  [[gnu::noinline]] static void grow(Lane& lane) {
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

  /// Head keys of the lanes, kNone when empty; slot kLanes stands for the
  /// heap as the current source and stays kNone.
  std::array<Key, kLanes + 1> head_ = [] {
    std::array<Key, kLanes + 1> keys{};
    keys.fill(kNone);
    return keys;
  }();
  unsigned cur_ = kLanes;  ///< Lane of the last pop; kLanes: the heap.
  /// The least head key of the lanes other than cur_ and of the heap top.
  Key runnerUp_ = kNone;
  std::array<Lane, kLanes> lanes_;
  /// Lane delay tags, unique; the initial 0..7 are as good as any.
  std::array<TimeNs, kLanes> delay_{0, 1, 2, 3, 4, 5, 6, 7};
  std::array<std::uint8_t, 8> hint_{};  ///< Per kind: the lane it used last.
  unsigned occupied_ = 0;  ///< Bit i: lane i holds events.
  std::vector<EventRecord> heap_;  ///< Overflow, a (t, tag) min-heap.
  TimeNs lastPop_ = 0;
  std::uint64_t seq_ = 0;  ///< 61 usable bits — never wraps in practice.
  std::uint64_t overflowPushes_ = 0;
  std::uint64_t rescans_ = 0;
};

}  // namespace sim
