// invariant_probe.hpp — A sim::Probe that checks the event core's
// invariants as events happen and records every violation:
//
//  * a wire carries one segment at a time: no wire starts a segment before
//    the previous one finished serializing;
//  * a switch buffer never holds more segments than its configured size
//    (SimConfig::inputBufferSegments / outputBufferSegments);
//  * a delivered message crossed exactly segments x 2 * ncaLevel(src, dst)
//    wires: each segment climbs to a nearest common ancestor of its pair and
//    straight back down (a rerouted segment swaps to a sibling up-port of
//    the same switch, so it climbs no higher).
//
// The probe only observes (sim/probe.hpp), so attaching it changes no
// result.  violations() is empty when every invariant held; the counters
// show the checks actually ran.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/probe.hpp"

namespace sim {

class InvariantProbe final : public Probe {
 public:
  void onAttach(const Network& net) override {
    topo_ = &net.topology();
    cfg_ = net.config();
    busyUntil_.assign(net.numGlobalPorts(), 0);
  }

  void onMessageReleased(std::uint32_t msg, xgft::NodeIndex src,
                         xgft::NodeIndex dst, std::uint64_t bytes,
                         TimeNs /*t*/) override {
    const std::uint64_t segments =
        bytes == 0 ? 1 : (bytes + cfg_.segmentBytes - 1) / cfg_.segmentBytes;
    inFlight_[msg] = {segments * 2 * topo_->ncaLevel(src, dst), 0};
  }

  void onWireBusy(std::uint32_t gport, std::uint32_t msg, TimeNs t,
                  TimeNs serNs) override {
    ++wireStarts_;
    if (t < busyUntil_[gport]) {
      fail("wire " + std::to_string(gport) + " started a segment of message " +
           std::to_string(msg) + " at " + std::to_string(t) +
           " ns while busy until " + std::to_string(busyUntil_[gport]));
    }
    busyUntil_[gport] = t + serNs;
    ++inFlight_[msg].wires;
  }

  void onSegmentEnqueued(std::uint32_t gport, bool input, std::uint32_t depth,
                         TimeNs t) override {
    ++enqueues_;
    const std::uint32_t size =
        input ? cfg_.inputBufferSegments : cfg_.outputBufferSegments;
    if (depth > size) {
      fail(std::string(input ? "input" : "output") + " buffer of port " +
           std::to_string(gport) + " holds " + std::to_string(depth) +
           " segments at " + std::to_string(t) + " ns, past its " +
           std::to_string(size));
    }
  }

  void onMessageDelivered(std::uint32_t msg, TimeNs /*t*/) override {
    ++delivered_;
    const auto it = inFlight_.find(msg);
    if (it == inFlight_.end()) {
      fail("message " + std::to_string(msg) + " delivered but never released");
      return;
    }
    if (it->second.wires != it->second.expectedWires) {
      fail("message " + std::to_string(msg) + " crossed " +
           std::to_string(it->second.wires) + " wires, not " +
           std::to_string(it->second.expectedWires));
    }
    inFlight_.erase(it);
  }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t wireStarts() const { return wireStarts_; }
  [[nodiscard]] std::uint64_t enqueues() const { return enqueues_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  struct Crossings {
    std::uint64_t expectedWires = 0;
    std::uint64_t wires = 0;
  };

  void fail(std::string what) {
    // The first few are enough to diagnose; a broken invariant usually
    // breaks on every event after it.
    if (violations_.size() < 16) violations_.push_back(std::move(what));
  }

  const xgft::Topology* topo_ = nullptr;
  SimConfig cfg_;
  std::vector<TimeNs> busyUntil_;  ///< Per global port.
  /// Released, undelivered messages by sequence number.
  std::unordered_map<std::uint32_t, Crossings> inFlight_;
  std::vector<std::string> violations_;
  std::uint64_t wireStarts_ = 0;
  std::uint64_t enqueues_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace sim
