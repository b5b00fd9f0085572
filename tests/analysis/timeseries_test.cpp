// Tests for the telemetry time-series CSV writer: exact header/row shape,
// one utilization column per link class, shortest-round-trip doubles, and
// locale independence (the same guarantees the campaign CSV has).
#include "analysis/timeseries.hpp"

#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "../sim/route_sets.hpp"
#include "obs/recorder.hpp"
#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "xgft/topology.hpp"

namespace analysis {
namespace {

obs::SummarySeries handMadeSeries() {
  obs::SummarySeries s;
  s.groupLabels = {"hosts>L1", "L1>hosts"};
  s.t = {2048, 4096};
  s.inFlight = {3, 1};
  s.queuedSegments = {12, 0};
  s.maxQueueDepth = {4, 0};
  s.maxQueuePort = {17, 0};
  s.blockedInputs = {2, 0};
  s.util = {0.5, 0.125, 1.0, 0.0};  // Row-major, 2 rows x 2 groups.
  return s;
}

TEST(TimeSeriesCsv, WritesHeaderAndRowPerSample) {
  std::ostringstream os;
  writeTimeSeriesCsv(os, handMadeSeries());
  EXPECT_EQ(os.str(),
            "t_ns,inflight,queued_segments,max_queue_depth,max_queue_port,"
            "blocked_inputs,util_hosts>L1,util_L1>hosts\n"
            "2048,3,12,4,17,2,0.5,0.125\n"
            "4096,1,0,0,0,0,1,0\n");
}

TEST(TimeSeriesCsv, EmptySeriesIsJustTheHeader) {
  obs::SummarySeries s;
  s.groupLabels = {"hosts>L1"};
  std::ostringstream os;
  writeTimeSeriesCsv(os, s);
  EXPECT_EQ(os.str(),
            "t_ns,inflight,queued_segments,max_queue_depth,max_queue_port,"
            "blocked_inputs,util_hosts>L1\n");
}

TEST(TimeSeriesCsv, LocaleCannotChangeTheBytes) {
  // A comma-decimal, digit-grouping global locale must not leak into the
  // CSV (mirrors tests/engine/locale_csv_test.cpp for campaign CSVs).
  class CommaDecimal : public std::numpunct<char> {
   protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };

  const obs::SummarySeries s = handMadeSeries();
  std::ostringstream plain;
  writeTimeSeriesCsv(plain, s);

  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimal));
  std::ostringstream hostile;
  writeTimeSeriesCsv(hostile, s);
  std::locale::global(previous);

  EXPECT_EQ(hostile.str(), plain.str());
  EXPECT_EQ(hostile.str().find(','), plain.str().find(','));
}

TEST(TimeSeriesCsv, RoundTripsARealRecorderSeries) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  obs::Recorder rec;
  sim::Network net(topo, sim::SimConfig{});
  net.setProbe(&rec);
  for (xgft::NodeIndex src = 1; src < topo.numHosts(); ++src) {
    const sim::MsgId m =
        sim::addRouted(net, src, 0, 32 * 1024, router->route(src, 0));
    net.release(m, 0);
  }
  net.run();

  std::ostringstream os;
  writeTimeSeriesCsv(os, rec.series());
  const std::string csv = os.str();

  std::size_t lines = 0;
  for (const char c : csv) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, rec.series().size() + 1);
  EXPECT_NE(csv.find("util_hosts>L1"), std::string::npos);
  EXPECT_NE(csv.find("util_L2>L1"), std::string::npos);

  // Every data row has the full column count.
  const std::size_t columns = 6 + rec.series().numGroups();
  std::istringstream is(csv);
  std::string line;
  while (std::getline(is, line)) {
    std::size_t commas = 0;
    for (const char c : line) commas += (c == ',') ? 1 : 0;
    EXPECT_EQ(commas + 1, columns) << line;
  }
}

}  // namespace
}  // namespace analysis
