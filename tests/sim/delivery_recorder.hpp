// delivery_recorder.hpp — The recording TrafficSink the sim tests read
// completion times from.
#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace sim {

/// Records every completion in arrival order.
class DeliveryRecorder : public TrafficSink {
 public:
  void onMessageDelivered(MsgId msg, TimeNs t) override {
    deliveries.emplace_back(msg, t);
  }

  /// Completion time of @p msg, failing the test if it never completed.
  /// A handle names one message only while no slot has been recycled,
  /// which holds when a test adds all its messages before running.
  [[nodiscard]] TimeNs timeOf(MsgId msg) const {
    for (const auto& [m, t] : deliveries) {
      if (m == msg) return t;
    }
    ADD_FAILURE() << "message " << msg << " was not delivered";
    return 0;
  }

  std::vector<std::pair<MsgId, TimeNs>> deliveries;
};

}  // namespace sim
