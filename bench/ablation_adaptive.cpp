// ablation_adaptive — Deterministic (oblivious) vs minimally-adaptive
// routing, the comparison behind the paper's Sec. I remark that adaptive
// algorithms "are not always better than oblivious algorithms" (Gómez et
// al. [6]).
//
// Adaptive picks the least-occupied up-port per segment at every switch.
// Expected outcome: adaptive rescues the CG congruence pathology without
// pattern knowledge, but on WRF it cannot beat the concentrating oblivious
// schemes (endpoint contention dominates, and adaptivity merely re-spreads
// it) — i.e. neither family dominates, matching [6].
#include <iostream>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "patterns/applications.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Ablation: oblivious vs minimally-adaptive routing ==\n"
            << "msg-scale=" << opt.msgScale << "\n\n";
  analysis::Table table(
      {"app", "w2", "d-mod-k", "r-NCA-d", "Random", "adaptive"});
  for (const auto& fullApp : {patterns::wrf256(), patterns::cgD128()}) {
    const auto app = trace::scaleMessages(fullApp, opt.msgScale);
    const double reference = static_cast<double>(
        trace::runCrossbarReference(app).makespanNs);
    for (const std::uint32_t w2 : {16u, 10u, 4u}) {
      const xgft::Topology topo(xgft::xgft2(16, 16, w2));
      const auto slowdownOf = [&](const routing::Router& r) {
        return static_cast<double>(trace::runApp(topo, r, app).makespanNs) /
               reference;
      };
      const double adaptive =
          static_cast<double>(
              trace::runApp(topo, trace::Adaptive{}, app).makespanNs) /
          reference;
      table.addRow(
          {app.name, std::to_string(w2),
           analysis::Table::num(slowdownOf(*routing::makeDModK(topo))),
           analysis::Table::num(slowdownOf(*routing::makeRNcaDown(topo, 1))),
           analysis::Table::num(slowdownOf(*routing::makeRandom(topo, 1))),
           analysis::Table::num(adaptive)});
      std::cerr << "  " << app.name << " w2=" << w2 << " done\n";
    }
  }
  table.print(std::cout);
  return 0;
}
