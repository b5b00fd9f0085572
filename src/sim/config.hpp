// config.hpp — Simulator parameters (Sec. VI-B of the paper).
//
// The paper's network model: input/output-buffered switches, 2 Gbit/s
// links, 8-byte flits, 1 KB segments, round-robin interleaving of messages
// at the network adapter.  We clock transmissions in exact flit-derived
// times but move whole segments per event (see DESIGN.md for why this
// preserves the bandwidth-contention behaviour the paper measures).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace sim {

/// Simulated time in nanoseconds.
using TimeNs = std::uint64_t;

struct SimConfig {
  /// Link rate in Gbit/s.  2 Gbit/s => an 8-byte flit serializes in 32 ns
  /// and a 1 KB segment in 4096 ns.
  double linkGbps = 2.0;

  /// Segmentation unit of the adapters: messages are chopped into segments
  /// of this size and concurrent messages interleave per segment.
  std::uint32_t segmentBytes = 1024;

  /// Per-segment header (one flit), serialized ahead of the payload.
  std::uint32_t headerBytes = 8;

  /// Switch traversal latency: input port to output queue.
  TimeNs switchLatencyNs = 100;

  /// Wire propagation latency.
  TimeNs linkLatencyNs = 20;

  /// Input buffer capacity per switch/host port, in segments.  This is the
  /// credit count the upstream transmitter sees.
  std::uint32_t inputBufferSegments = 4;

  /// Output buffer capacity per switch port, in segments.
  std::uint32_t outputBufferSegments = 4;

  friend bool operator==(const SimConfig&, const SimConfig&) = default;

  /// Every parameter, '/'-separated, the rate in shortest round-trip form:
  /// equal keys mean equal configurations (cache and memo keys).
  [[nodiscard]] std::string key() const {
    char rate[32];
    const auto [end, ec] = std::to_chars(rate, rate + sizeof rate, linkGbps);
    (void)ec;  // 32 chars hold any double's shortest form.
    return std::string(rate, end) + '/' + std::to_string(segmentBytes) + '/' +
           std::to_string(headerBytes) + '/' + std::to_string(switchLatencyNs) +
           '/' + std::to_string(linkLatencyNs) + '/' +
           std::to_string(inputBufferSegments) + '/' +
           std::to_string(outputBufferSegments);
  }

  /// Serialization time of one segment carrying @p payloadBytes.
  [[nodiscard]] TimeNs serializationNs(std::uint32_t payloadBytes) const {
    const double bits = 8.0 * (payloadBytes + headerBytes);
    return static_cast<TimeNs>(bits / linkGbps + 0.5);
  }

  /// An effectively contention-free configuration used for the ideal
  /// Full-Crossbar reference: same link speeds, unbounded buffering so the
  /// single-stage switch is purely output-queued (no head-of-line blocking),
  /// zero switching overhead.
  [[nodiscard]] static SimConfig idealCrossbar() {
    SimConfig cfg;
    cfg.switchLatencyNs = 0;
    cfg.linkLatencyNs = 0;
    cfg.inputBufferSegments = 1u << 20;
    cfg.outputBufferSegments = 1u << 20;
    return cfg;
  }
};

}  // namespace sim
