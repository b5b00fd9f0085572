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
sim::InjectionOptions driverOptions(const Trace& trace,
                                    const Mapping& mapping,
                                    RouteSetResolver& resolver) {
  if (mapping.numRanks() != trace.numRanks) {
    throw std::invalid_argument("Replayer: mapping/trace rank mismatch");
  }
  sim::InjectionOptions opt;
  opt.hostOf = [&mapping](patterns::Rank r) { return mapping.hostOf(r); };
  opt.addMessage = std::bind_front(&RouteSetResolver::add, &resolver);
  return opt;
}

}  // namespace

Replayer::Replayer(sim::Network& net, const Trace& trace,
                   const Mapping& mapping, Routing mode, EpochMemo* memo)
    : net_(&net),
      trace_(&trace),
      mapping_(&mapping),
      resolver_(net, mode),
      driver_(net, *this, driverOptions(trace, mapping, resolver_)),
      // Spray picks hash a message's global sequence number and adaptive
      // picks read per-switch rotors, both carried across barriers; a
      // table runs only under a fault plan.
      memo_(std::holds_alternative<
                std::reference_wrapper<const routing::Router>>(mode)
                ? memo
                : nullptr) {
  if (memo_ != nullptr) {
    networkKey_ = net.topology().params().toString() + '|' +
                  net.config().key();
  }
  ranks_.resize(trace.numRanks);
  finishNs_.resize(trace.numRanks, 0);
  postedRecvs_.resize(trace.numRanks);
  unexpected_.resize(trace.numRanks);
}

std::uint64_t Replayer::matchKey(patterns::Rank src, std::uint32_t tag) const {
  return (static_cast<std::uint64_t>(src) << 32) | tag;
}

sim::TimeNs Replayer::run() {
  if (ran_) throw std::logic_error("Replayer::run: single-use");
  ran_ = true;
  driver_.run();
  sim::TimeNs makespan = 0;
  std::uint32_t blocked = 0;
  for (patterns::Rank r = 0; r < trace_->numRanks; ++r) {
    if (!ranks_[r].finished) ++blocked;
    makespan = std::max(makespan, finishNs_[r]);
  }
  if (blocked > 0) {
    throw std::runtime_error("Replayer::run: " + std::to_string(blocked) +
                             " rank(s) blocked at drain — unmatched receive "
                             "or missing barrier participant");
  }
  return makespan;
}

patterns::Pull Replayer::pull(sim::TimeNs /*now*/,
                              patterns::SourceMessage& out) {
  if (!started_) {
    started_ = true;
    for (patterns::Rank r = 0; r < trace_->numRanks; ++r) progress(r);
    epochStarts_ = true;
  }
  // A fast-forward passes the closing barrier, which starts the next epoch.
  while (epochStarts_) {
    epochStarts_ = false;
    if (!pending_.empty()) startEpoch();
  }
  if (pending_.empty()) {
    return finishedRanks_ == trace_->numRanks ? patterns::Pull::kExhausted
                                              : patterns::Pull::kBlocked;
  }
  const Pending entry = pending_.front();
  pending_.pop_front();
  out = entry.m;
  return entry.wake ? patterns::Pull::kWake : patterns::Pull::kMessage;
}

void Replayer::progress(patterns::Rank r) {
  RankState& state = ranks_[r];
  if (state.finished || state.inCompute || state.blockingRecv ||
      state.blockingSend >= 0) {
    return;
  }
  const std::vector<Op>& program = trace_->programs[r];
  while (state.pc < program.size()) {
    const Op& op = program[state.pc];
    switch (op.kind) {
      case OpKind::kIsend:
      case OpKind::kSend: {
        const std::uint64_t token = msgInfo_.size();
        msgInfo_.push_back(MsgInfo{r, op.peer, op.tag});
        Pending entry;
        entry.m.src = r;
        entry.m.dst = op.peer;
        entry.m.bytes = op.bytes;
        entry.m.time = net_->now();
        entry.m.token = token;
        pending_.push_back(entry);
        ++state.pendingSends;
        ++state.pc;
        if (op.kind == OpKind::kSend) {
          state.blockingSend = static_cast<std::int64_t>(token);
          return;  // Blocks until this very message is delivered.
        }
        break;
      }
      case OpKind::kIrecv:
      case OpKind::kRecv: {
        const std::uint64_t k = matchKey(op.peer, op.tag);
        auto& unexpected = unexpected_[r];
        const auto it = unexpected.find(k);
        if (it != unexpected.end()) {
          // Already arrived: match immediately.
          if (--it->second == 0) unexpected.erase(it);
          ++state.pc;
        } else {
          ++postedRecvs_[r][k];
          ++state.outstandingRecvs;
          ++state.pc;
          if (op.kind == OpKind::kRecv) {
            state.blockingRecv = true;
            return;  // Blocks until some posted recv is matched.
          }
        }
        break;
      }
      case OpKind::kWaitAll:
        if (state.pendingSends > 0 || state.outstandingRecvs > 0) return;
        ++state.pc;
        break;
      case OpKind::kBarrier:
        // A rank woken while it waits here (a delivery to it) is not
        // counted again.
        if (!state.atBarrier) {
          state.atBarrier = true;
          ++arrivals_;
        }
        if (arrivals_ < trace_->numRanks) return;  // Blocked at the barrier.
        // The last arrival releases everyone else, then moves on itself.
        passBarrier(r);
        break;
      case OpKind::kCompute: {
        state.inCompute = true;
        ++state.pc;
        Pending entry;
        entry.wake = true;
        entry.m.time = net_->now() + op.durationNs;
        entry.m.token = r;
        pending_.push_back(entry);
        return;
      }
    }
  }
  state.finished = true;
  ++finishedRanks_;
  finishNs_[r] = net_->now();
}

void Replayer::passBarrier(patterns::Rank closing) {
  arrivals_ = 0;
  barrierNs_.push_back(net_->now());
  if (recording_) {
    // The epoch is reusable only if it ends as it began: nothing in flight
    // and nothing left unexpected.
    const bool clean = std::all_of(
        unexpected_.begin(), unexpected_.end(),
        [](const auto& buffered) { return buffered.empty(); });
    if (clean && net_->idle()) {
      memo_->record(*recording_,
                    Epoch{net_->sinceMark(), mapping_->hostOf(closing)});
    }
    recording_.reset();
  }
  for (patterns::Rank r = 0; r < trace_->numRanks; ++r) {
    RankState& state = ranks_[r];
    state.atBarrier = false;
    ++state.pc;
    if (r != closing) progress(r);
  }
  epochStarts_ = true;
}

void Replayer::startEpoch() {
  if (memo_ != nullptr && reusable()) {
    EpochKey key = pendingKey();
    if (const Epoch* epoch = memo_->find(key)) {
      if (receivesMatch()) {
        fastForward(*epoch);
        return;
      }
    } else {
      // A recording needs no receivesMatch(): an epoch whose receives do
      // not pair up with its messages leaves a message unexpected or a
      // rank blocked, so passBarrier never records it.
      net_->markIdle();
      recording_ = std::move(key);
    }
  }
  ++epochsSimulated_;
}

bool Replayer::reusable() const {
  // A probe would miss the skipped events; a link fault may leave a port
  // dead or have turned the reroute rotors.
  if (net_->observed() || net_->faultsSeen() || !net_->idle() ||
      finishedRanks_ > 0) {
    return false;
  }
  // Every rank waits at a waitAll followed by a barrier, or at the barrier
  // itself with nothing outstanding; none computes or blocks in a send or
  // receive, and none holds an unexpected message.
  for (patterns::Rank r = 0; r < trace_->numRanks; ++r) {
    const RankState& state = ranks_[r];
    if (state.inCompute || state.blockingRecv || state.blockingSend >= 0 ||
        !unexpected_[r].empty()) {
      return false;
    }
    if (state.atBarrier) {
      if (state.pendingSends > 0 || state.outstandingRecvs > 0) return false;
      continue;
    }
    const std::vector<Op>& program = trace_->programs[r];
    if (state.pc + 1 >= program.size() ||
        program[state.pc].kind != OpKind::kWaitAll ||
        program[state.pc + 1].kind != OpKind::kBarrier) {
      return false;
    }
  }
  // Every pending entry is a message at the current time.
  return std::all_of(pending_.begin(), pending_.end(),
                     [this](const Pending& entry) {
                       return !entry.wake && entry.m.time == net_->now();
                     });
}

bool Replayer::receivesMatch() const {
  // The posted receives are exactly the pending messages, as multisets:
  // each delivery then matches, and a rank reaches its barrier when its
  // last message is delivered.
  std::vector<std::pair<patterns::Rank, std::uint64_t>> sent;
  sent.reserve(pending_.size());
  for (const Pending& entry : pending_) {
    const MsgInfo& info = msgInfo_[entry.m.token];
    sent.emplace_back(info.dst, matchKey(info.src, info.tag));
  }
  std::sort(sent.begin(), sent.end());
  std::size_t i = 0;
  for (patterns::Rank r = 0; r < trace_->numRanks; ++r) {
    for (const auto& [key, count] : postedRecvs_[r]) {
      for (std::uint32_t c = 0; c < count; ++c, ++i) {
        if (i == sent.size() || sent[i] != std::pair{r, key}) return false;
      }
    }
  }
  return i == sent.size();
}

EpochKey Replayer::pendingKey() {
  EpochKey key;
  key.network = networkKey_;
  // Two chains with distinct seeds and word orders make the 128-bit digest.
  std::uint64_t lo = 0x6a09e667f3bcc908ULL;
  std::uint64_t hi = 0xbb67ae8584caa73bULL;
  for (const Pending& entry : pending_) {
    const xgft::NodeIndex src = mapping_->hostOf(entry.m.src);
    const xgft::NodeIndex dst = mapping_->hostOf(entry.m.dst);
    const sim::RouteSet route = resolver_.setFor(src, dst);
    const std::uint64_t pair = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::uint64_t hop =
        (static_cast<std::uint64_t>(route.level) << 32) | route.choice;
    lo = xgft::hashMix(lo, pair, entry.m.bytes, hop);
    hi = xgft::hashMix(hi, hop, pair, entry.m.bytes);
    ++key.messages;
    key.bytes += entry.m.bytes;
  }
  key.digestLo = lo;
  key.digestHi = hi;
  return key;
}

void Replayer::fastForward(const Epoch& epoch) {
  // The closing rank is the one on the recorded closing host; it moves on
  // last, after the barrier released every other rank in index order.
  std::optional<patterns::Rank> closing;
  for (const Pending& entry : pending_) {
    for (const patterns::Rank r : {entry.m.src, entry.m.dst}) {
      if (mapping_->hostOf(r) == epoch.closingHost) closing = r;
    }
  }
  if (!closing) {
    throw std::logic_error(
        "Replayer: a memo entry's closing host sends or receives nothing in "
        "the epoch it was found for (an epoch-key collision)");
  }
  pending_.clear();
  // Every send is delivered and every posted receive matched (reusable()
  // checked that they pair up), so each rank passes its waitAll and waits
  // at the barrier.
  for (patterns::Rank r = 0; r < trace_->numRanks; ++r) {
    RankState& state = ranks_[r];
    state.pendingSends = 0;
    state.outstandingRecvs = 0;
    postedRecvs_[r].clear();
    if (!state.atBarrier) {
      ++state.pc;
      state.atBarrier = true;
    }
  }
  arrivals_ = trace_->numRanks;
  net_->advanceIdle(epoch.delta);
  ++epochsReused_;
  eventsReused_ += epoch.delta.eventsProcessed;
  passBarrier(*closing);
  progress(*closing);
}

void Replayer::onWake(std::uint64_t cookie, sim::TimeNs /*now*/) {
  const patterns::Rank r = static_cast<patterns::Rank>(cookie);
  ranks_[r].inCompute = false;
  progress(r);
}

void Replayer::onDelivered(std::uint64_t token, sim::TimeNs /*now*/) {
  const MsgInfo& info = msgInfo_.at(token);
  // Sender side: the isend/send completes.
  RankState& sender = ranks_[info.src];
  --sender.pendingSends;
  if (sender.blockingSend == static_cast<std::int64_t>(token)) {
    sender.blockingSend = -1;
  }
  // Receiver side: match a posted receive or buffer as unexpected.
  RankState& receiver = ranks_[info.dst];
  const std::uint64_t k = matchKey(info.src, info.tag);
  auto& posted = postedRecvs_[info.dst];
  const auto it = posted.find(k);
  if (it != posted.end()) {
    if (--it->second == 0) posted.erase(it);
    --receiver.outstandingRecvs;
    if (receiver.blockingRecv) receiver.blockingRecv = false;
  } else {
    ++unexpected_[info.dst][k];
  }
  // Wake both sides; progress() is a no-op for ranks still blocked.
  progress(info.src);
  progress(info.dst);
}

}  // namespace trace
