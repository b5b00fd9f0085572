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

/// kAuto layout cutover: flat tables up to this footprint keep the exact
/// historical representation (and its O(1) lookup); larger ones compress.
constexpr std::uint64_t kAutoCompressBytes = 8ull << 20;

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

/// True when @p router picks one choice per NCA-level run of a column whose
/// guide is the destination (@p byDst) or the source: its ascentGuide() is
/// that endpoint.
bool levelRunsOn(const routing::Router& router, bool byDst) {
  const std::optional<routing::Guide> guide = router.ascentGuide();
  return guide.has_value() &&
         (*guide == routing::Guide::Destination) == byDst;
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
      const xgft::Count c = router.choice(s, d);
      (void)router.ascentOf(s, d, level, c);  // The range check.
      emit(pos, pos + step, level, static_cast<std::uint32_t>(c));
    }
  }
}

/// Intervals one guide column would compress to, without building it: used
/// for axis sampling and footprint estimation.  Two catalogue ascents are
/// equal iff they are the same choice, so an interval starts wherever the
/// (level, choice) changes.
std::uint64_t scanColumn(const routing::Router& r, bool byDst,
                         std::uint32_t guide) {
  std::uint64_t intervals = 0;
  std::uint32_t prevLevel = ~0u;
  std::uint32_t prevChoice = ~0u;
  forEachRun(r, byDst, levelRunsOn(r, byDst), guide,
             [&](std::uint32_t, std::uint32_t, std::uint32_t level,
                 std::uint32_t choice) {
               if (level != prevLevel || choice != prevChoice) ++intervals;
               prevLevel = level;
               prevChoice = choice;
             });
  return intervals;
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

std::uint64_t CompiledRoutes::estimateCompressedBytes(
    const routing::Router& router) {
  const std::uint32_t n =
      static_cast<std::uint32_t>(router.topology().numHosts());
  if (n == 0) return 0;
  // Up to 8 evenly spaced guide columns per axis; the cheaper axis' average
  // per-column bytes extrapolates to all n columns — mirroring the axis
  // choice compile() makes, so the estimate tracks the real footprint.
  std::uint64_t best = ~0ull;
  for (const bool byDst : {true, false}) {
    std::uint64_t bytes = 0;
    std::uint64_t sampled = 0;
    std::uint32_t last = ~0u;
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t guide =
          n < 2 ? 0
                : static_cast<std::uint32_t>(
                      static_cast<std::uint64_t>(i) * (n - 1) / 7);
      if (guide == last) continue;
      last = guide;
      bytes += sizeof(std::uint32_t) +
               scanColumn(router, byDst, guide) * sizeof(Interval);
      ++sampled;
    }
    best = std::min(best, bytes / sampled * n);
  }
  return best;
}

std::shared_ptr<const CompiledRoutes> CompiledRoutes::compile(
    std::shared_ptr<const routing::Router> router, std::uint32_t threads,
    TableLayout layout) {
  if (!router) {
    throw std::invalid_argument("CompiledRoutes::compile: null router");
  }
  const bool compress =
      layout == TableLayout::kCompressed ||
      (layout == TableLayout::kAuto &&
       tableBytes(router->topology()) > kAutoCompressBytes);
  auto table =
      std::shared_ptr<CompiledRoutes>(new CompiledRoutes(std::move(router)));
  const routing::Router& r = *table->router_;
  const std::size_t n = table->numHosts_;
  const std::optional<routing::Guide> guide = r.ascentGuide();

  if (guide.has_value()) {
    // A self-routing router's columns follow its guide in either layout:
    // at most 2h + 1 runs each, with no sampling (a sampled tie would pick
    // kByDst and cost a source-guided scheme one choice() per pair).
    table->axis_ =
        *guide == routing::Guide::Destination ? Axis::kByDst : Axis::kBySrc;
  } else if (compress) {
    // Axis by deterministic sampling: three spread guide columns scanned
    // both ways; fewer total runs wins, a tie keeps kByDst.
    const std::uint32_t hosts = static_cast<std::uint32_t>(n);
    std::uint64_t byDstRuns = 0;
    std::uint64_t bySrcRuns = 0;
    std::uint32_t last = ~0u;
    for (const std::uint32_t g :
         {0u, hosts / 2, hosts == 0 ? 0u : hosts - 1}) {
      if (g == last) continue;
      last = g;
      byDstRuns += scanColumn(r, true, g);
      bySrcRuns += scanColumn(r, false, g);
    }
    table->axis_ = bySrcRuns < byDstRuns ? Axis::kBySrc : Axis::kByDst;
  } else {
    // The flat layout is axis-free; without runs it builds row by row.
    table->axis_ = Axis::kBySrc;
  }
  const bool byDst = table->axis_ == Axis::kByDst;
  // Runs follow NCA levels when the columns' guide is the router's own.
  const bool levelRuns = guide.has_value();
  threads = clampThreads(threads, n);

  // Workers own disjoint guide columns, so no synchronization is needed
  // and the table contents are thread-count independent (routers are
  // required to be deterministic and immutable after construction).
  if (compress) {
    table->compressed_ = true;
    table->columns_ = buildColumns(
        n, threads, [&](std::size_t, std::uint32_t g, Columns& out) {
          forEachRun(r, byDst, levelRuns, g,
                     [&](std::uint32_t begin, std::uint32_t,
                         std::uint32_t level, std::uint32_t choice) {
                       appendRun(out, begin, {level, choice});
                     });
          out.colOff.push_back(static_cast<std::uint32_t>(out.intervals.size()));
        });
    return table;
  }

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

CompiledRoutes::Columns CompiledRoutes::buildColumns(std::size_t n,
                                                     std::uint32_t threads,
                                                     const ColumnFill& fill) {
  std::vector<Columns> parts(threads);
  forEachBlock(n, threads,
               [&](std::size_t w, std::size_t begin, std::size_t end) {
                 for (std::size_t g = begin; g < end; ++g) {
                   fill(w, static_cast<std::uint32_t>(g), parts[w]);
                 }
               });
  Columns all;
  all.colOff.reserve(n + 1);
  all.colOff.push_back(0);
  for (const Columns& part : parts) {
    const auto intervalBase = static_cast<std::uint32_t>(all.intervals.size());
    for (const std::uint32_t off : part.colOff) {
      all.colOff.push_back(intervalBase + off);
    }
    all.intervals.insert(all.intervals.end(), part.intervals.begin(),
                         part.intervals.end());
  }
  return all;
}

void CompiledRoutes::appendRun(Columns& out, std::uint32_t begin, Entry e) {
  // out.colOff holds the end of every finished column, so intervals past
  // its last entry belong to the column being built.  A run whose entry
  // equals the previous interval's extends it: two catalogue ascents are
  // equal iff they are the same (level, choice), and adjacent zero-level
  // runs (choice 0) merge the same way.
  const std::size_t columnStart = out.colOff.empty() ? 0 : out.colOff.back();
  if (out.intervals.size() > columnStart) {
    const Interval& prev = out.intervals.back();
    if (prev.len == e.level && prev.choice == e.choice) return;
  }
  out.intervals.push_back({begin, e.choice, e.level});
}

const CompiledRoutes::Interval& CompiledRoutes::intervalOf(
    std::uint32_t guide, std::uint32_t pos) const {
  const std::uint32_t first = columns_.colOff[guide];
  // Branch-free lower bound over the column's sorted interval begins: every
  // column covers rank 0, so count >= 1 and the loop lands on the last
  // interval with begin <= pos.
  const Interval* base = columns_.intervals.data() + first;
  std::size_t count = columns_.colOff[guide + 1] - first;
  while (count > 1) {
    const std::size_t half = count / 2;
    base += (base[half].begin <= pos) ? half : 0;
    count -= half;
  }
  return *base;
}

std::uint64_t CompiledRoutes::forwardingBytes() const {
  if (!compressed_) {
    return choices_.size() * sizeof(std::uint32_t) +
           lens_.size() * sizeof(std::uint8_t);
  }
  return columns_.colOff.size() * sizeof(std::uint32_t) +
         columns_.intervals.size() * sizeof(Interval);
}

xgft::Route CompiledRoutes::route(xgft::NodeIndex s, xgft::NodeIndex d) const {
  const std::span<const std::uint32_t> ports = upPorts(s, d);
  xgft::Route r;
  r.up.assign(ports.begin(), ports.end());
  return r;
}

}  // namespace core
