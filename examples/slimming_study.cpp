// slimming_study.cpp — How much network can you remove?
//
// The practical question behind the paper (Sec. I–II): full-bisection fat
// trees are over-provisioned for real workloads, so how far can the upper
// level be slimmed before an application actually slows down — and how much
// does the answer depend on the routing scheme?
//
// This example sweeps w2 for a workload of your choice and prints, for each
// routing scheme, the smallest network that stays within 25% of the full
// tree's performance — the "buy this many switches" answer.
//
//   slimming_study [SCALE]   SCALE > 0 multiplies every message size
//                            (default 1); a malformed one exits 2.
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "engine/spec.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

int main(int argc, char** argv) {
  // Small instance so the example runs in seconds: 64 hosts, 8 switches.
  const std::uint32_t m = 8;
  patterns::PhasedPattern app;
  try {
    if (argc > 2) throw std::invalid_argument("at most one argument, SCALE");
    const double scale =
        argc == 2 ? engine::parseFiniteDouble(argv[1], "SCALE") : 1.0;
    if (scale <= 0.0) {
      throw std::invalid_argument("SCALE must be > 0, got '" +
                                  std::string(argv[1]) + "'");
    }
    app = trace::scaleMessages(
        patterns::wrfHalo(8, 8, static_cast<patterns::Bytes>(64 * 1024)),
        scale);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n\nusage: slimming_study [SCALE]"
              << "   (message-size factor > 0, default 1)\n";
    return 2;
  }
  std::cout << "workload: " << app.name << "\n\n";

  const sim::SimConfig cfg;
  const double reference =
      static_cast<double>(trace::runCrossbarReference(app, cfg).makespanNs);

  std::map<std::string, std::vector<double>> slowdowns;
  std::vector<std::string> names;
  for (std::uint32_t w2 = m; w2 >= 1; --w2) {
    const xgft::Topology topo(xgft::xgft2(m, m, w2));
    std::vector<std::pair<std::string, routing::RouterPtr>> routers;
    routers.emplace_back("Random", routing::makeRandom(topo, 1));
    routers.emplace_back("d-mod-k", routing::makeDModK(topo));
    routers.emplace_back("r-NCA-d", routing::makeRNcaDown(topo, 1));
    routers.emplace_back("colored", routing::makeColored(topo, app));
    for (auto& [name, router] : routers) {
      const double t = static_cast<double>(
          trace::runApp(topo, *router, app, cfg).makespanNs);
      slowdowns[name].push_back(t / reference);
      if (w2 == m) names.push_back(name);
    }
  }

  analysis::Table table([&] {
    std::vector<std::string> header{"w2", "switches"};
    header.insert(header.end(), names.begin(), names.end());
    return header;
  }());
  for (std::uint32_t i = 0; i < m; ++i) {
    std::vector<std::string> row{std::to_string(m - i),
                                 std::to_string(m + (m - i))};
    for (const std::string& name : names) {
      row.push_back(analysis::Table::num(slowdowns[name][i]));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nsmallest tree within 25% of the full tree:\n";
  for (const std::string& name : names) {
    const double budget = slowdowns[name][0] * 1.25;
    std::uint32_t smallest = m;
    for (std::uint32_t i = 0; i < m; ++i) {
      if (slowdowns[name][i] > budget) break;  // Slimming stops paying off.
      smallest = m - i;
    }
    std::cout << "  " << name << ": w2 = " << smallest << " ("
              << m + smallest << " switches instead of " << 2 * m << ")\n";
  }
  return 0;
}
