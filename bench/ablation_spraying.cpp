// ablation_spraying — Extension study: per-segment multipath spraying
// (packet-granular randomized routing, Greenberg & Leiserson [16]) against
// the paper's static per-pair schemes.
//
// The paper analyzes *static* oblivious routing; its Random baseline pins
// one random NCA per pair for the whole run.  Spraying instead re-spreads
// every 1 KB segment, trading ordered delivery for statistical load
// balance.  Expected outcome: spraying erases the CG congruence pathology
// (like r-NCA) *and* the static-Random penalty on WRF endpoint
// concentration is reduced because no link stays unlucky for a whole
// message — but it cannot beat the concentrating schemes where endpoint
// contention dominates.
#include <iostream>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "patterns/applications.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Ablation: static schemes vs per-segment spraying ==\n"
            << "msg-scale=" << opt.msgScale << "\n\n";
  analysis::Table table({"app", "w2", "d-mod-k", "Random(static)",
                         "r-NCA-d", "spray-RR", "spray-random"});
  for (const auto& fullApp : {patterns::wrf256(), patterns::cgD128()}) {
    const auto app = trace::scaleMessages(fullApp, opt.msgScale);
    const double reference = static_cast<double>(
        trace::runCrossbarReference(app).makespanNs);
    for (const std::uint32_t w2 : {16u, 10u, 4u}) {
      const xgft::Topology topo(xgft::xgft2(16, 16, w2));
      const auto slowdownOf = [&](const routing::Router& r) {
        return static_cast<double>(
                   trace::runApp(topo, r, app).makespanNs) /
               reference;
      };
      const auto sprayedSlowdown = [&](sim::SprayPolicy policy) {
        trace::Spray spray;
        spray.policy = policy;
        return static_cast<double>(
                   trace::runApp(topo, spray, app).makespanNs) /
               reference;
      };
      table.addRow(
          {app.name, std::to_string(w2),
           analysis::Table::num(slowdownOf(*routing::makeDModK(topo))),
           analysis::Table::num(slowdownOf(*routing::makeRandom(topo, 1))),
           analysis::Table::num(slowdownOf(*routing::makeRNcaDown(topo, 1))),
           analysis::Table::num(sprayedSlowdown(sim::SprayPolicy::kRoundRobin)),
           analysis::Table::num(sprayedSlowdown(sim::SprayPolicy::kRandom))});
      std::cerr << "  " << app.name << " w2=" << w2 << " done\n";
    }
  }
  table.print(std::cout);
  return 0;
}
