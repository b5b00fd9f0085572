// experiment_cli.cpp — File-driven experiment runner.
//
// The library as a command-line tool: give it a topology in the paper's
// notation, a pattern file (or a builtin workload name), and a routing
// scheme, and it reports the static contention analysis, deadlock check,
// and the simulated slowdown vs. the Full-Crossbar.
//
//   experiment_cli "XGFT(2; 16,16; 1,10)" cg128 d-mod-k
//   experiment_cli paper-slim wrf64 r-NCA-d
//   experiment_cli xgft2:8:8:4 pattern.txt Random
//
// Everything resolves through the core:: registries (the shared
// core::Scenario construction path): topologies accept the paper notation
// or any registered preset (campaign_cli --list-topologies), workloads any
// registered pattern spec like ring:64 (--list-patterns), schemes any
// registered name (--list-schemes) — and a typo in any of them reports the
// registries' uniform "unknown <kind> '<name>' (registered: ...)" error.
// A workload argument naming an existing file is read as a flow-list file
// (patterns/io.hpp) instead.
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/contention.hpp"
#include "analysis/dependency.hpp"
#include "analysis/report.hpp"
#include "core/scenario.hpp"
#include "patterns/io.hpp"
#include "trace/harness.hpp"
#include "xgft/printer.hpp"

namespace {

patterns::PhasedPattern loadWorkload(const std::string& spec) {
  core::Scenario sc;
  sc.pattern = spec;
  if (core::patternRegistry().contains(core::splitSpec(spec).name)) {
    return sc.makeWorkload();
  }
  std::ifstream file(spec);
  if (file) return patterns::readPhasedPattern(file);
  // Not a file either: surface the registry's uniform unknown-name error,
  // keeping the hint that a file open was attempted (the user's mistake
  // may be a typo'd path, not a workload name).
  try {
    (void)core::patternRegistry().at(core::splitSpec(spec).name);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("cannot open '" + spec +
                                "' as a pattern file, and " + e.what());
  }
  throw std::invalid_argument("unreachable: pattern '" + spec +
                              "' resolved inconsistently");
}

routing::RouterPtr makeRouter(const std::string& name,
                              const xgft::Topology& topo,
                              const patterns::PhasedPattern& app) {
  core::Scenario sc;
  sc.routing = core::schemeRegistry().canonical(name);
  return sc.makeRouter(topo, app);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: " << argv[0]
              << " <topology|preset> <pattern|pattern-file> <scheme>\n"
                 "registered names: campaign_cli --list-topologies | "
                 "--list-patterns | --list-schemes\n";
    return 2;
  }
  try {
    const xgft::Topology topo(core::makeTopoParams(argv[1]));
    const patterns::PhasedPattern app = loadWorkload(argv[2]);
    if (app.numRanks > topo.numHosts()) {
      throw std::invalid_argument("pattern has more ranks than hosts");
    }
    const routing::RouterPtr router = makeRouter(argv[3], topo, app);

    std::cout << xgft::summary(topo) << "\n";
    std::cout << "workload: " << app.name << " (" << app.numRanks
              << " ranks, " << app.phases.size() << " phase(s))\n";
    std::cout << "scheme:   " << router->name()
              << (router->isOblivious() ? " [oblivious]" : " [pattern-aware]")
              << "\n\n";

    analysis::Table table(
        {"phase", "flows", "max flows/link", "effective demand"});
    const patterns::Pattern flat = app.flattened();
    for (std::size_t i = 0; i < app.phases.size(); ++i) {
      const analysis::LoadSummary loads =
          analysis::computeLoads(topo, app.phases[i], *router);
      table.addRow({std::to_string(i + 1),
                    std::to_string(app.phases[i].size()),
                    std::to_string(loads.maxFlowsPerChannel),
                    analysis::Table::num(loads.maxDemand, 2)});
    }
    table.print(std::cout);

    std::cout << "\ndeadlock-free: "
              << (analysis::routesAreDeadlockFree(topo, *router, &flat)
                      ? "yes"
                      : "NO (cyclic channel dependencies!)")
              << "\n";

    const double slowdown = trace::slowdownVsCrossbar(topo, *router, app);
    std::cout << "slowdown vs Full-Crossbar: "
              << analysis::Table::num(slowdown, 3) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
