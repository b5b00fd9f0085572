#include "trace/epoch_memo.hpp"

#include <utility>

namespace trace {

namespace {

/// What a std::map node adds around its value: three links and a colour.
constexpr std::uint64_t kMapNodeBytes = 32;

/// The bytes one entry holds: what EpochMemo::stats() sums.
std::uint64_t entryBytes(const EpochKey& key, const Epoch& epoch) {
  return kMapNodeBytes + sizeof(std::pair<const EpochKey, Epoch>) +
         key.network.capacity() +
         epoch.delta.busy.capacity() * sizeof(sim::IdleDelta::PortBusy);
}

}  // namespace

const Epoch* EpochMemo::find(const EpochKey& key) const {
  core::LockGuard lock(mu_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void EpochMemo::record(const EpochKey& key, Epoch epoch) {
  const std::uint64_t bytes = entryBytes(key, epoch);
  core::LockGuard lock(mu_);
  if (entries_.try_emplace(key, std::move(epoch)).second) bytes_ += bytes;
}

EpochMemoStats EpochMemo::stats() const {
  core::LockGuard lock(mu_);
  return EpochMemoStats{entries_.size(), bytes_};
}

}  // namespace trace
