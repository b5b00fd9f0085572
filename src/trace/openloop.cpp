#include "trace/openloop.hpp"

#include <stdexcept>
#include <string>

#include "sim/injection.hpp"

namespace trace {

OpenLoopResult runOpenLoop(const xgft::Topology& topo,
                           const routing::Router& router,
                           patterns::TrafficSource& source,
                           const OpenLoopOptions& opt,
                           const sim::SimConfig& cfg) {
  if (source.numRanks() > topo.numHosts()) {
    throw std::invalid_argument(
        "runOpenLoop: source has " + std::to_string(source.numRanks()) +
        " ranks but the topology only " + std::to_string(topo.numHosts()) +
        " hosts");
  }
  if (opt.measureNs == 0) {
    throw std::invalid_argument("runOpenLoop: empty measurement window");
  }
  sim::Network net(topo, cfg);
  if (opt.probe != nullptr) net.setProbe(opt.probe);
  RouteSetResolver resolver(net, router, opt.spray, opt.compiled);
  if (opt.prepare) opt.prepare(net, resolver);
  // Ranks map to hosts identically (no hostOf), so the resolver's options
  // serve as-is.  Under a fault plan, refused (unroutable-pair) messages
  // are already counted by NetworkStats::messagesDropped; open-loop
  // sources never await a delivery, so a counting-only handler suffices.
  sim::InjectionOptions injOpt = injectionOptions(resolver);
  if (opt.prepare) {
    injOpt.onDrop = [](std::uint64_t, sim::Bytes, xgft::NodeIndex,
                       xgft::NodeIndex) {};
  }
  sim::InjectionProcess process(net, source, std::move(injOpt));

  const sim::TimeNs measureBegin = opt.warmupNs;
  const sim::TimeNs measureEnd = opt.warmupNs + opt.measureNs;

  OpenLoopResult result;
  result.windows.assign(3, {});
  result.windows[0].beginNs = 0;
  result.windows[0].endNs = measureBegin;
  result.windows[1].beginNs = measureBegin;
  result.windows[1].endNs = measureEnd;
  result.windows[2].beginNs = measureEnd;

  analysis::LatencyHistogram hist(opt.histBucketNs, opt.histBuckets);
  // The run drains completely, so every injected message is seen here
  // exactly once — injected-in-window accounting at delivery time is
  // exact.
  std::uint64_t offeredBytes = 0;
  process.onDelivery = [&](std::uint64_t /*token*/, sim::Bytes bytes,
                           sim::TimeNs injectedNs, sim::TimeNs deliveredNs) {
    const std::size_t w =
        deliveredNs < measureBegin ? 0 : (deliveredNs < measureEnd ? 1 : 2);
    ++result.windows[w].messages;
    result.windows[w].bytes += bytes;
    if (injectedNs >= measureBegin && injectedNs < measureEnd) {
      offeredBytes += bytes;
      hist.record(deliveredNs - injectedNs);
    }
  };

  // Window boundaries are partial runs; the drain pass runs to a fully
  // empty event queue (Network::run throws on any stranded message).
  process.run(measureBegin);
  result.windows[0].eventsAtEnd = net.stats().eventsProcessed;
  process.run(measureEnd);
  result.windows[1].eventsAtEnd = net.stats().eventsProcessed;
  process.run();
  result.windows[2].eventsAtEnd = net.stats().eventsProcessed;

  result.latency = hist.summary();
  result.stats = net.stats();
  result.lastDeliveryNs = net.stats().lastDeliveryNs;
  result.windows[2].endNs = std::max(result.lastDeliveryNs, measureEnd);
  const double hostBytesPerNs = cfg.linkGbps / 8.0;
  result.acceptedLoad =
      result.windows[1].acceptedLoad(source.numRanks(), hostBytesPerNs);
  result.offeredLoad =
      static_cast<double>(offeredBytes) /
      (static_cast<double>(source.numRanks()) * hostBytesPerNs *
       static_cast<double>(opt.measureNs));
  const sim::WireUtilization util =
      sim::wireUtilization(net, result.lastDeliveryNs);
  result.utilMax = util.max;
  result.utilMean = util.mean;
  return result;
}

}  // namespace trace
