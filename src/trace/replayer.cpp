#include "trace/replayer.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "xgft/rng.hpp"

namespace trace {

namespace {

/// Also the pre-driver validation point: every check that can reject the
/// construction must run here, before the InjectionProcess member installs
/// itself as the network's sink — a later throw would unwind the process
/// and leave the network with a dangling sink pointer.
sim::InjectionOptions driverOptions(const patterns::PhasedPattern& app,
                                    const Mapping& mapping,
                                    RouteSetResolver& resolver) {
  if (mapping.numRanks() != app.numRanks) {
    throw std::invalid_argument("Replayer: mapping/pattern rank mismatch");
  }
  sim::InjectionOptions opt;
  opt.hostOf = [&mapping](patterns::Rank r) { return mapping.hostOf(r); };
  opt.addMessage = std::bind_front(&RouteSetResolver::add, &resolver);
  return opt;
}

}  // namespace

Replayer::Replayer(sim::Network& net, const patterns::PhasedPattern& app,
                   const Mapping& mapping, Routing mode, EpochMemo* memo)
    : net_(&net),
      app_(&app),
      mapping_(&mapping),
      resolver_(net, mode),
      driver_(net, *this, driverOptions(app, mapping, resolver_)),
      // Spray picks hash a message's global sequence number and adaptive
      // picks read per-switch rotors, both carried across phases; a table
      // runs only under a fault plan.
      memo_(std::holds_alternative<
                std::reference_wrapper<const routing::Router>>(mode)
                ? memo
                : nullptr),
      closing_(app.numRanks == 0 ? 0 : app.numRanks - 1) {
  if (memo_ != nullptr) {
    networkKey_ = net.topology().params().toString() + '|' +
                  net.config().key();
  }
}

sim::TimeNs Replayer::run() {
  if (ran_) throw std::logic_error("Replayer::run: single-use");
  ran_ = true;
  releasePhases();
  driver_.run();
  if (phase_ < app_->phases.size()) {
    throw std::runtime_error(
        "Replayer::run: the network drained with " +
        std::to_string(undelivered_) + " message(s) of phase " +
        std::to_string(phase_) + " undelivered (dropped at a dead link)");
  }
  return barrierNs_.empty() ? 0 : barrierNs_.back();
}

void Replayer::releasePhases() {
  const patterns::Rank last = app_->numRanks;
  const auto order = [this, last](patterns::Rank r) {
    return r == closing_ ? last : r;
  };
  while (phase_ < app_->phases.size()) {
    pending_.clear();
    next_ = 0;
    for (const patterns::Flow& f : app_->phases[phase_].flows()) {
      if (f.src != f.dst) pending_.push_back(f);
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [&order](const patterns::Flow& a,
                              const patterns::Flow& b) {
                       return order(a.src) < order(b.src);
                     });
    if (!pending_.empty()) {
      const Epoch* epoch = lookUp();
      if (epoch == nullptr) {
        undelivered_ = pending_.size();
        ++epochsSimulated_;
        return;
      }
      fastForward(*epoch);
    }
    barrierNs_.push_back(net_->now());
    ++phase_;
  }
}

const Epoch* Replayer::lookUp() {
  // A probe would miss the skipped events; a link fault may leave a port
  // dead or have turned the reroute rotors.
  if (memo_ == nullptr || net_->observed() || net_->faultsSeen() ||
      !net_->idle()) {
    return nullptr;
  }
  EpochKey key = pendingKey();
  const Epoch* epoch = memo_->find(key);
  if (epoch == nullptr) {
    net_->markIdle();
    recording_ = std::move(key);
  }
  return epoch;
}

EpochKey Replayer::pendingKey() {
  EpochKey key;
  key.network = networkKey_;
  // Two chains with distinct seeds and word orders make the 128-bit digest.
  std::uint64_t lo = 0x6a09e667f3bcc908ULL;
  std::uint64_t hi = 0xbb67ae8584caa73bULL;
  for (const patterns::Flow& f : pending_) {
    const xgft::NodeIndex src = mapping_->hostOf(f.src);
    const xgft::NodeIndex dst = mapping_->hostOf(f.dst);
    const sim::RouteSet route = resolver_.setFor(src, dst);
    const std::uint64_t pair = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::uint64_t hop =
        (static_cast<std::uint64_t>(route.level) << 32) | route.choice;
    lo = xgft::hashMix(lo, pair, f.bytes, hop);
    hi = xgft::hashMix(hi, hop, pair, f.bytes);
    ++key.messages;
    key.bytes += f.bytes;
  }
  key.digestLo = lo;
  key.digestHi = hi;
  return key;
}

void Replayer::fastForward(const Epoch& epoch) {
  // The closing rank received the recorded phase's last delivery.
  const auto closing =
      std::find_if(pending_.begin(), pending_.end(),
                   [this, &epoch](const patterns::Flow& f) {
                     return mapping_->hostOf(f.dst) == epoch.closingHost;
                   });
  if (closing == pending_.end()) {
    throw std::logic_error(
        "Replayer: a memo entry's closing host receives nothing in the "
        "phase it was found for (an epoch-key collision)");
  }
  closing_ = closing->dst;
  next_ = pending_.size();  // None of its messages is injected.
  net_->advanceIdle(epoch.delta);
  ++epochsReused_;
  eventsReused_ += epoch.delta.eventsProcessed;
}

patterns::Pull Replayer::pull(sim::TimeNs now, patterns::SourceMessage& out) {
  if (next_ == pending_.size()) {
    return phase_ == app_->phases.size() ? patterns::Pull::kExhausted
                                         : patterns::Pull::kBlocked;
  }
  const patterns::Flow& f = pending_[next_++];
  out = patterns::SourceMessage{f.src, f.dst, f.bytes, now, f.dst};
  return patterns::Pull::kMessage;
}

void Replayer::onDelivered(std::uint64_t token, sim::TimeNs /*now*/) {
  if (--undelivered_ > 0) return;
  closing_ = static_cast<patterns::Rank>(token);
  if (recording_) {
    // A phase is reusable only if it ends as it began, with nothing in
    // flight.
    if (net_->idle()) {
      memo_->record(*recording_,
                    Epoch{net_->sinceMark(), mapping_->hostOf(closing_)});
    }
    recording_.reset();
  }
  barrierNs_.push_back(net_->now());
  ++phase_;
  releasePhases();
}

}  // namespace trace
