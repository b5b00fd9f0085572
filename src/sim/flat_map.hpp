// flat_map.hpp — Open-addressing 64-bit -> 32-bit map for per-message memos.
//
// The route resolver probes its (source, destination) memo once per message
// in router and spray modes (trace/route_resolver.hpp; table mode reads the
// table instead), so the memo is one flat slot array instead of
// a node-based std::unordered_map: linear probing over a power-of-two
// capacity kept at most half full, keys hashed with xgft::splitmix64, no
// per-entry allocation and no erase.  A lookup touches one cache line in
// the common case, and destruction frees one array.
//
// The key ~0 (kEmptyKey) marks empty slots and can never be stored; callers
// pack keys so it cannot occur (the resolver's (src << 32 | dst) keys have
// src < 2^32 - 1, guaranteed by sim::Network's port-space guard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "xgft/rng.hpp"

namespace sim {

class FlatMap64 {
 public:
  /// The reserved empty-slot key; insert() rejects it.
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  /// The value stored for @p key, or nullptr when absent.  Valid until the
  /// next insert() or clear().
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == kEmptyKey) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Stores @p key -> @p value.  @p key must be absent (find() returned
  /// nullptr) and must not be kEmptyKey.
  void insert(std::uint64_t key, std::uint32_t value) {
    if (key == kEmptyKey) {
      throw std::invalid_argument("FlatMap64: the empty-slot key is reserved");
    }
    if ((size_ + 1) * 2 > slots_.size()) grow();
    place(key, value);
    ++size_;
  }

  /// Drops every entry; the capacity is kept.
  void clear() {
    for (Slot& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t value = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(xgft::splitmix64(key)) & mask_;
  }

  void place(std::uint64_t key, std::uint32_t value) {
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    slots_[i] = {key, value};
  }

  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key != kEmptyKey) place(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sim
