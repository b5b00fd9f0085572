// Tests for the Chrome trace-event exporter: structural JSON validity
// (balanced braces outside strings, required top-level shape), b/e span
// pairing, the port-track cap with explicit drop accounting, multi-process
// files, and byte-determinism across repeated identical runs.
#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../sim/route_sets.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace obs {
namespace {

using xgft::Topology;

/// Counts non-overlapping occurrences of @p needle.
std::size_t countOf(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = s.find(needle); at != std::string::npos;
       at = s.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Minimal structural JSON check: braces/brackets balance outside string
/// literals, escapes respected, depth never goes negative, ends at zero.
void expectStructurallyValidJson(const std::string& json) {
  int depth = 0;
  bool inString = false;
  bool escaped = false;
  for (const char c : json) {
    if (inString) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        inString = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        ASSERT_GT(depth, 0) << "unbalanced close in trace JSON";
        --depth;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(inString) << "unterminated string in trace JSON";
  EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
}

/// Runs the hotspot fan-in under a fresh event-recording Recorder.
Recorder recordHotspot(const Topology& topo, RecorderConfig cfg = [] {
  RecorderConfig c;
  c.recordEvents = true;
  return c;
}()) {
  Recorder rec(cfg);
  const routing::RouterPtr router = routing::makeDModK(topo);
  sim::Network net(topo, sim::SimConfig{});
  net.setProbe(&rec);
  for (xgft::NodeIndex s = 1; s < topo.numHosts(); ++s) {
    const sim::MsgId m =
        sim::addRouted(net, s, 0, 16 * 1024, router->route(s, 0));
    net.release(m, 0);
  }
  net.run();
  return rec;
}

TEST(ChromeTrace, EmitsStructurallyValidTraceEventJson) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const Recorder rec = recordHotspot(topo);

  std::ostringstream os;
  const AddedProcess added = writeChromeTrace(os, rec);
  const std::string json = os.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  expectStructurallyValidJson(json);

  // Every phase the exporter promises is present.
  EXPECT_GT(countOf(json, "\"ph\":\"M\""), 0u);  // process/thread names.
  EXPECT_GT(countOf(json, "\"ph\":\"X\""), 0u);  // wire slices.
  EXPECT_GT(countOf(json, "\"ph\":\"C\""), 0u);  // counters.
  EXPECT_EQ(countOf(json, "\"ph\":\"b\""), added.messageSpans);
  EXPECT_EQ(countOf(json, "\"ph\":\"e\""), added.messageSpans);
  EXPECT_EQ(added.messageSpans, 15u);  // All hotspot messages completed.
  EXPECT_EQ(added.wireSlices, countOf(json, "\"ph\":\"X\""));
  EXPECT_EQ(added.wireSlicesDropped, 0u);
  EXPECT_GT(added.counterSamples, 0u);

  // Span labels carry endpoints and size.
  EXPECT_GT(countOf(json, ">0 (16384 B)"), 0u);
}

TEST(ChromeTrace, PortTrackCapDropsSlicesExplicitly) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const Recorder rec = recordHotspot(topo);

  std::ostringstream capped;
  ChromeTraceOptions opt;
  opt.maxPortTracks = 1;
  const AddedProcess added = writeChromeTrace(capped, rec, opt);

  EXPECT_EQ(added.portTracks, 1u);
  EXPECT_GT(added.wireSlicesDropped, 0u);
  expectStructurallyValidJson(capped.str());

  std::ostringstream uncapped;
  const AddedProcess full = writeChromeTrace(uncapped, rec);
  EXPECT_EQ(added.wireSlices + added.wireSlicesDropped, full.wireSlices);
}

TEST(ChromeTrace, MultiProcessFileIsValidAndFinishIsIdempotent) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const Recorder rec = recordHotspot(topo);

  std::ostringstream os;
  ChromeTraceWriter writer(os);
  ChromeTraceOptions opt;
  opt.pid = 1;
  opt.processName = "job 0";
  writer.addProcess(rec, opt);
  opt.pid = 2;
  opt.processName = "job 1";
  writer.addProcess(rec, opt);
  writer.finish();
  writer.finish();  // Second finish must not corrupt the file.

  const std::string json = os.str();
  expectStructurallyValidJson(json);
  EXPECT_EQ(countOf(json, "\"job 0\""), 1u);
  EXPECT_EQ(countOf(json, "\"job 1\""), 1u);
  EXPECT_EQ(countOf(json, "\"pid\":2"), countOf(json, "\"pid\":1"));
}

TEST(ChromeTrace, OutputIsDeterministicAcrossIdenticalRuns) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    const Recorder rec = recordHotspot(topo);
    std::ostringstream os;
    writeChromeTrace(os, rec);
    *out = os.str();
  }
  EXPECT_EQ(first, second);
}

TEST(ChromeTrace, SummaryOnlyRecorderStillProducesCounters) {
  // Without recordEvents there are no spans or slices, but the counter
  // tracks from the sampled series must still be emitted.
  const Topology topo(xgft::xgft2(4, 4, 2));
  RecorderConfig cfg;
  cfg.recordEvents = false;
  const Recorder rec = recordHotspot(topo, cfg);

  std::ostringstream os;
  const AddedProcess added = writeChromeTrace(os, rec);
  EXPECT_EQ(added.messageSpans, 0u);
  EXPECT_EQ(added.wireSlices, 0u);
  EXPECT_GT(added.counterSamples, 0u);
  expectStructurallyValidJson(os.str());
}

}  // namespace
}  // namespace obs
