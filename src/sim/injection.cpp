#include "sim/injection.hpp"

#include <stdexcept>
#include <string>

namespace sim {

InjectionProcess::InjectionProcess(Network& net,
                                   patterns::TrafficSource& source,
                                   InjectionOptions opt)
    : net_(&net), src_(&source), opt_(std::move(opt)) {
  if (!opt_.addMessage) {
    throw std::invalid_argument(
        "InjectionProcess: need an addMessage callback");
  }
  net_->setSink(this);
}

void InjectionProcess::inject(const patterns::SourceMessage& m) {
  const xgft::NodeIndex src = opt_.hostOf ? opt_.hostOf(m.src) : m.src;
  const xgft::NodeIndex dst = opt_.hostOf ? opt_.hostOf(m.dst) : m.dst;
  const std::optional<MsgId> id = opt_.addMessage(src, dst, m.bytes);
  if (!id) {
    // The degraded forwarding table has no path for this pair: refuse the
    // message before it exists.  Closed-loop callers (which would deadlock
    // awaiting the delivery) must opt in via onDrop.
    if (!opt_.onDrop) {
      throw std::runtime_error(
          "InjectionProcess: pair " + std::to_string(src) + " -> " +
          std::to_string(dst) +
          " is unroutable and no onDrop handler is installed");
    }
    net_->noteMessageDropped();
    opt_.onDrop(m.token, m.bytes, src, dst);
    return;
  }
  // The record carries the token to onMessageDelivered; release() stamps
  // the release time next to it.
  net_->messages_[*id].token = m.token;
  net_->release(*id, net_->now());
}

void InjectionProcess::pump() {
  if (exhausted_ || pendingFuture_) return;
  patterns::SourceMessage m;
  for (;;) {
    switch (src_->pull(net_->now(), m)) {
      case patterns::Pull::kMessage:
        if (m.time > net_->now()) {
          // Ask again only when its injection time is reached.
          future_ = m;
          pendingFuture_ = true;
          net_->scheduleCallback(m.time, [this] {
            pendingFuture_ = false;
            inject(future_);
            pump();
          });
          return;
        }
        inject(m);
        break;
      case patterns::Pull::kBlocked:
        return;
      case patterns::Pull::kExhausted:
        exhausted_ = true;
        return;
    }
  }
}

void InjectionProcess::onMessageDelivered(MsgId msg, TimeNs time) {
  // The network frees the slot only after this call returns, and records
  // never move, so `rec` stays valid however many messages the source's
  // reaction adds.
  const Network::Message& rec = net_->messages_[msg];
  if (onDelivery) onDelivery(rec.token, rec.bytes, rec.releaseNs, time);
  src_->onDelivered(rec.token, time);
  pump();
}

void InjectionProcess::run(TimeNs until) {
  pump();
  net_->run(until);
}

}  // namespace sim
