// paged_vector.hpp — An append-only array of fixed-size pages whose
// elements never move.
//
// sim::Network keeps its message records here (network.hpp, DESIGN.md §7).
// A std::vector grows by doubling: it copies every element into a buffer
// twice the size, holds both while it copies, and the allocator may keep
// the old one resident afterwards.  Here element i is entry i & kPageMask
// of page i >> kPageShift, and growth allocates one more page and copies
// nothing.  So a reference to an element stays valid for the container's
// lifetime, and it holds the elements handed out plus at most one partly
// filled page.
//
// A page is raw storage until push_back writes an element into it, so the
// unused tail of the last page costs address space, not resident memory.
// Only the page table (one pointer per page) ever reallocates; a caller
// that reads elements from other threads must not grow the container
// while they do.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace sim {

template <typename T>
class PagedVector {
  // Pages are released without running element destructors.
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  /// Elements per page: 2^kPageShift (4096 80-byte message records make a
  /// 320 KiB page).
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;
  static constexpr std::size_t kPageMask = kPageSize - 1;

  [[nodiscard]] T& operator[](std::size_t i) {
    return pages_[i >> kPageShift][i & kPageMask];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return pages_[i >> kPageShift][i & kPageMask];
  }

  /// Elements handed out so far, not the capacity of the pages.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Appends a copy of @p value, opening a new page when the last is full.
  void push_back(const T& value) {
    if ((size_ & kPageMask) == 0) {
      Page page(std::allocator<T>{}.allocate(kPageSize));
      pages_.push_back(std::move(page));
    }
    std::construct_at(&pages_.back()[size_ & kPageMask], value);
    ++size_;
  }

 private:
  struct FreePage {
    void operator()(T* page) const {
      std::allocator<T>{}.deallocate(page, kPageSize);
    }
  };
  using Page = std::unique_ptr<T[], FreePage>;

  std::vector<Page> pages_;
  std::size_t size_ = 0;
};

}  // namespace sim
