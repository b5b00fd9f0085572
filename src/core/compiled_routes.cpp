#include "core/compiled_routes.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace core {

namespace {

/// First exception thrown by any compile worker (annotated so the
/// thread-safety build proves every access happens under the lock).
struct FailureSink {
  Mutex mu;
  std::exception_ptr first XGFT_GUARDED_BY(mu);

  void capture(std::exception_ptr e) {
    LockGuard lock(mu);
    if (!first) first = std::move(e);
  }
  void rethrowIfSet() {
    LockGuard lock(mu);
    if (first) std::rethrow_exception(first);
  }
};

/// One past the last rank contiguous with @p pos at NCA level @p level
/// from @p guide (pos != guide).  Ranks at level L from the guide fill its
/// level-L block minus its level-(L-1) block: one range on each side.
std::uint32_t levelRunEnd(const xgft::Topology& topo, std::uint32_t guide,
                          std::uint32_t pos, std::uint32_t level) {
  const xgft::Count below = topo.hostsBelow(level - 1);
  if (pos < guide) return static_cast<std::uint32_t>(guide - guide % below);
  const xgft::Count block = topo.hostsBelow(level);
  return static_cast<std::uint32_t>(guide - guide % block + block);
}

/// Walks guide column @p guide of @p router in rank order, one run at a
/// time: emit(begin, end, level, choice) says ranks [begin, end) of the
/// other endpoint all take NCA choice `choice` of NCA level `level` (0 and
/// 0 for the diagonal).  With @p levelRuns a run spans its whole NCA-level
/// range and the router is asked once for it; otherwise each rank is a run
/// of its own.  Every choice passes Router::ascentOf's range check — the
/// only check a compile makes.
template <typename Emit>
void forEachRun(const routing::Router& router, bool byDst, bool levelRuns,
                std::uint32_t guide, const Emit& emit) {
  const xgft::Topology& topo = router.topology();
  const auto n = static_cast<std::uint32_t>(topo.numHosts());
  for (std::uint32_t pos = 0; pos < n;) {
    if (pos == guide) {  // Diagonal: its own zero-level run.
      emit(pos, pos + 1, 0u, 0u);
      ++pos;
      continue;
    }
    const std::uint32_t level = topo.ncaLevel(guide, pos);
    const std::uint32_t end = levelRunEnd(topo, guide, pos, level);
    const std::uint32_t step = levelRuns ? end - pos : 1;
    for (; pos < end; pos += step) {
      const xgft::NodeIndex s = byDst ? pos : guide;
      const xgft::NodeIndex d = byDst ? guide : pos;
      const xgft::Count c = router.choice(s, d, level);
      (void)router.ascentOf(s, d, level, c);  // The range check.
      emit(pos, pos + step, level, static_cast<std::uint32_t>(c));
    }
  }
}

}  // namespace

std::uint32_t CompiledRoutes::clampThreads(std::uint32_t threads,
                                           std::size_t n) {
  const std::uint32_t host = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 0 || threads > host) threads = host;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, std::max<std::size_t>(1, n)));
}

void CompiledRoutes::runBlocks(std::size_t n, std::uint32_t threads,
                               const BlockBody& body) {
  std::vector<std::thread> pool;
  FailureSink failure;
  pool.reserve(threads);
  const std::size_t step = (n + threads - 1) / threads;
  for (std::uint32_t w = 0; w < threads; ++w) {
    const std::size_t begin = std::min(n, static_cast<std::size_t>(w) * step);
    const std::size_t end = std::min(n, begin + step);
    if (begin >= end) break;
    pool.emplace_back([&, w, begin, end] {
      try {
        body(w, begin, end);
      } catch (...) {
        failure.capture(std::current_exception());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  failure.rethrowIfSet();
}

CompiledRoutes::CompiledRoutes(std::shared_ptr<const routing::Router> router)
    : router_(std::move(router)) {
  const xgft::Topology& topo = router_->topology();
  numHosts_ = static_cast<std::size_t>(topo.numHosts());
  if (topo.height() > 0xff) {  // lens_ holds a level in one byte.
    throw std::invalid_argument("CompiledRoutes: tree higher than 255 levels");
  }
}

std::uint64_t CompiledRoutes::tableBytes(const xgft::Topology& topo) {
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(topo.numHosts()) * topo.numHosts();
  return pairs * (sizeof(std::uint32_t) + sizeof(std::uint8_t));
}

std::shared_ptr<const CompiledRoutes> CompiledRoutes::compile(
    std::shared_ptr<const routing::Router> router, std::uint32_t threads) {
  if (!router) {
    throw std::invalid_argument("CompiledRoutes::compile: null router");
  }
  auto table =
      std::shared_ptr<CompiledRoutes>(new CompiledRoutes(std::move(router)));
  const routing::Router& r = *table->router_;
  const std::size_t n = table->numHosts_;
  const std::optional<routing::Guide> guide = r.ascentGuide();

  // A self-routing router's columns follow its guide: at most 2h + 1 runs
  // each, one choice() per run.  Any other router is asked once per pair,
  // row by row.
  const bool byDst = guide == routing::Guide::Destination;
  const bool levelRuns = guide.has_value();
  threads = clampThreads(threads, n);

  // Workers own disjoint guide columns, so no synchronization is needed
  // and the table contents are thread-count independent (routers are
  // required to be deterministic and immutable after construction).
  table->choices_.resize(n * n);
  table->lens_.resize(n * n);
  forEachBlock(n, threads, [&](std::size_t, std::size_t begin,
                               std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      forEachRun(
          r, byDst, levelRuns, static_cast<std::uint32_t>(g),
          [&](std::uint32_t runBegin, std::uint32_t runEnd,
              std::uint32_t level, std::uint32_t choice) {
            for (std::size_t pos = runBegin; pos < runEnd; ++pos) {
              const std::size_t pair = byDst ? pos * n + g : g * n + pos;
              table->lens_[pair] = static_cast<std::uint8_t>(level);
              table->choices_[pair] = choice;
            }
          });
    }
  });
  return table;
}

std::uint64_t CompiledRoutes::forwardingBytes() const {
  return choices_.size() * sizeof(std::uint32_t) +
         lens_.size() * sizeof(std::uint8_t);
}

xgft::Route CompiledRoutes::route(xgft::NodeIndex s, xgft::NodeIndex d) const {
  const std::span<const std::uint32_t> ports = upPorts(s, d);
  xgft::Route r;
  r.up.assign(ports.begin(), ports.end());
  return r;
}

}  // namespace core
