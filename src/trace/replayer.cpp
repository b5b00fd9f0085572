#include "trace/replayer.hpp"

#include <functional>
#include <stdexcept>
#include <string>

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
                   const Mapping& mapping, Routing mode)
    : net_(&net),
      trace_(&trace),
      mapping_(&mapping),
      resolver_(net, mode),
      driver_(net, *this, driverOptions(trace, mapping, resolver_)) {
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
      case OpKind::kBarrier: {
        const std::uint32_t index = state.barriersPassed;
        auto [it, inserted] = barrierArrivals_.emplace(index, 0);
        if (++it->second == trace_->numRanks) {
          // Last arrival releases everyone (including this rank).
          barrierArrivals_.erase(it);
          if (barrierNs_.size() <= index) barrierNs_.resize(index + 1);
          barrierNs_[index] = net_->now();
          ++state.barriersPassed;
          ++state.pc;
          for (patterns::Rank other = 0; other < trace_->numRanks; ++other) {
            if (other == r) continue;
            RankState& os = ranks_[other];
            const std::vector<Op>& oprog = trace_->programs[other];
            if (!os.finished && os.pc < oprog.size() &&
                oprog[os.pc].kind == OpKind::kBarrier &&
                os.barriersPassed == index) {
              ++os.barriersPassed;
              ++os.pc;
              progress(other);
            }
          }
          break;
        }
        return;  // Blocked at the barrier.
      }
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
