#include "trace/harness.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>
#include <string>

#include "routing/relabel.hpp"
#include "trace/replayer.hpp"

namespace trace {

RunResult runApp(const xgft::Topology& topo, Routing mode,
                 const patterns::PhasedPattern& app, const Mapping& mapping,
                 const sim::SimConfig& cfg) {
  sim::Network net(topo, cfg);
  Replayer replayer(net, app, mapping, mode);
  RunResult result;
  result.makespanNs = replayer.run();
  result.stats = net.stats();
  return result;
}

RunResult runApp(const xgft::Topology& topo, Routing mode,
                 const patterns::PhasedPattern& app,
                 const sim::SimConfig& cfg) {
  return runApp(topo, mode, app, Mapping::sequential(app.numRanks), cfg);
}

RunResult runCrossbarReference(const patterns::PhasedPattern& app,
                               const sim::SimConfig& cfg) {
  // XGFT(1; N; 1) *is* the single-stage crossbar: one switch, N hosts.
  const xgft::Topology crossbar(
      xgft::Params({app.numRanks}, {1}));
  sim::SimConfig ideal = cfg;
  ideal.switchLatencyNs = 0;
  ideal.linkLatencyNs = 0;
  ideal.inputBufferSegments = 1u << 20;
  ideal.outputBufferSegments = 1u << 20;
  // Routing is trivial (one path per pair); D-mod-k digits produce it.
  const routing::RouterPtr router = routing::makeDModK(crossbar);
  return runApp(crossbar, *router, app, ideal);
}

double slowdownVsCrossbar(const xgft::Topology& topo, Routing mode,
                          const patterns::PhasedPattern& app,
                          const sim::SimConfig& cfg) {
  const RunResult network = runApp(topo, mode, app, cfg);
  const RunResult reference = runCrossbarReference(app, cfg);
  if (reference.makespanNs == 0) return 1.0;
  return static_cast<double>(network.makespanNs) /
         static_cast<double>(reference.makespanNs);
}

patterns::Bytes scaledBytes(patterns::Bytes bytes, double factor) {
  const double scaled = static_cast<double>(bytes) * factor;
  // 2^64 is the least double a 64-bit count cannot hold (casting it is
  // undefined); NaN fails the comparison as well.
  if (!(scaled < 0x1p64)) {
    std::array<char, 32> text{};
    const auto end =
        std::to_chars(text.data(), text.data() + text.size(), scaled).ptr;
    throw std::invalid_argument(
        "message size: " + std::to_string(bytes) +
        " bytes scaled to " + std::string(text.data(), end) +
        " does not fit a 64-bit byte count");
  }
  return static_cast<patterns::Bytes>(std::max(1.0, scaled));
}

patterns::PhasedPattern scaleMessages(const patterns::PhasedPattern& app,
                                      double factor) {
  patterns::PhasedPattern scaled;
  scaled.name = app.name;
  scaled.numRanks = app.numRanks;
  for (const patterns::Pattern& phase : app.phases) {
    patterns::Pattern p(phase.numRanks());
    for (const patterns::Flow& f : phase.flows()) {
      p.add(f.src, f.dst, scaledBytes(f.bytes, factor));
    }
    scaled.phases.push_back(std::move(p));
  }
  return scaled;
}

}  // namespace trace
