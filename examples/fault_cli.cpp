// fault_cli.cpp — Replay one failure plan against one routing scheme.
//
// The campaign engine's faultsweep builtin measures resilience curves in
// bulk; this CLI is the single-run magnifying glass: it builds one
// topology, one (table) routing scheme and one fault::FaultPlan, installs
// the plan with fault::installFaultPlan, and streams uniform Poisson
// traffic through the degraded network while printing every fault
// transition as it fires.  The final report shows the operating point next
// to the fault counters (rerouted / stranded / dropped / link-down time),
// so the effect of a plan is visible without a spreadsheet.
//
//   fault_cli                                      # links:10 on paper-slim
//   fault_cli --faults uplinks-of:1:0 --routing Random
//   fault_cli --faults timed:5:600000:1200000 --policy wait
//   fault_cli --faults switches:10 --load 0.6 --trace-out fault.json
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "engine/spec.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "patterns/source.hpp"
#include "trace/openloop.hpp"
#include "xgft/topology.hpp"

namespace {

struct CliOptions {
  std::string topo = "paper-slim";
  std::string routing = "d-mod-k";
  std::string faults = "links:10";
  std::string policy = "reroute";
  std::string traceOut;
  double load = 0.4;
  std::uint64_t seed = 1;
};

void usage(std::ostream& os) {
  os << "usage: fault_cli [options]\n"
        "  --topo SPEC       topology preset or XGFT(h; m...; w...) "
        "(default paper-slim)\n"
        "  --routing NAME    table routing scheme (default d-mod-k)\n"
        "  --faults SPEC     failure plan (default links:10); see\n"
        "                    campaign_cli --list-faults\n"
        "  --policy P        wait | strand | reroute (default reroute)\n"
        "  --load X          offered load per host (default 0.4)\n"
        "  --seed N          job seed (default 1)\n"
        "  --trace-out FILE  write a Chrome trace with the fault instants\n";
}

CliOptions parseCli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(what) + " wants a value");
      }
      return argv[++i];
    };
    if (arg == "--topo") {
      opt.topo = next("--topo");
    } else if (arg == "--routing") {
      opt.routing = next("--routing");
    } else if (arg == "--faults") {
      opt.faults = next("--faults");
    } else if (arg == "--policy") {
      opt.policy = next("--policy");
    } else if (arg == "--load") {
      opt.load = engine::parseFiniteDouble(next("--load"), "--load");
    } else if (arg == "--seed") {
      opt.seed = engine::parseU64(next("--seed"), "--seed");
    } else if (arg == "--trace-out") {
      opt.traceOut = next("--trace-out");
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "' (see --help)");
    }
  }
  return opt;
}

sim::FaultPolicy parsePolicy(const std::string& name) {
  if (name == "wait") return sim::FaultPolicy::kWait;
  if (name == "strand") return sim::FaultPolicy::kStrand;
  if (name == "reroute") return sim::FaultPolicy::kReroute;
  throw std::invalid_argument("unknown --policy '" + name +
                              "' (wait | strand | reroute)");
}

/// A Recorder that additionally narrates every fault transition and the
/// first few per-segment consequences to stdout as they fire.
class ConsoleProbe : public obs::Recorder {
 public:
  using obs::Recorder::Recorder;

  void onLinkDown(xgft::LinkId link, sim::TimeNs t) override {
    obs::Recorder::onLinkDown(link, t);
    std::cout << "  t=" << std::setw(9) << t << " ns  link " << link
              << " DOWN\n";
  }
  void onLinkUp(xgft::LinkId link, sim::TimeNs t) override {
    obs::Recorder::onLinkUp(link, t);
    std::cout << "  t=" << std::setw(9) << t << " ns  link " << link
              << " UP\n";
  }
  void onSegmentStranded(std::uint32_t gport, std::uint32_t msg,
                         sim::TimeNs t) override {
    if (++stranded_ <= kMaxLines) {
      std::cout << "  t=" << std::setw(9) << t << " ns  segment of msg "
                << msg << " stranded at gport " << gport << "\n";
    }
  }
  void onSegmentRerouted(std::uint32_t fromGport, std::uint32_t toGport,
                         std::uint32_t msg, sim::TimeNs t) override {
    if (++rerouted_ <= kMaxLines) {
      std::cout << "  t=" << std::setw(9) << t << " ns  segment of msg "
                << msg << " rerouted gport " << fromGport << " -> "
                << toGport << "\n";
    }
  }
  void finishNarration() const {
    if (stranded_ > kMaxLines) {
      std::cout << "  ... " << (stranded_ - kMaxLines)
                << " more strandings suppressed\n";
    }
    if (rerouted_ > kMaxLines) {
      std::cout << "  ... " << (rerouted_ - kMaxLines)
                << " more reroutes suppressed\n";
    }
  }

 private:
  static constexpr std::uint64_t kMaxLines = 8;
  std::uint64_t stranded_ = 0;
  std::uint64_t rerouted_ = 0;
};

void printPlan(const fault::FaultPlan& plan, const xgft::Topology& topo) {
  if (plan.empty()) {
    std::cout << "plan: none (healthy baseline)\n";
    return;
  }
  std::cout << "plan: " << plan.spec << " — " << plan.faults.size()
            << " link fault(s) of " << topo.numLinks() << " links\n";
  constexpr std::size_t kMaxListed = 12;
  for (std::size_t i = 0; i < plan.faults.size() && i < kMaxListed; ++i) {
    const fault::LinkFault& f = plan.faults[i];
    const xgft::LinkInfo li = topo.linkInfo(f.link);
    std::cout << "  link " << f.link << "  L" << li.level << "." << li.child
              << " <-> L" << li.level + 1 << "." << li.parent << "  down @"
              << f.downNs << " ns";
    if (f.upNs != fault::kNeverNs) std::cout << ", up @" << f.upNs << " ns";
    std::cout << "\n";
  }
  if (plan.faults.size() > kMaxListed) {
    std::cout << "  ... " << plan.faults.size() - kMaxListed << " more\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  try {
    cli = parseCli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usage(std::cerr);
    return 2;
  }
  try {
    const xgft::Topology topo(core::makeTopoParams(cli.topo));
    const core::SchemeInfo& scheme = fault::requireDegradable(cli.routing);
    const std::shared_ptr<const routing::Router> router =
        scheme.make(topo, core::RouterContext{cli.seed, nullptr});

    const fault::FaultPlan plan = fault::makeFaultPlan(
        cli.faults, topo, core::deriveSeed(cli.seed, "fault"));
    std::cout << "topo " << cli.topo << " (" << topo.numHosts()
              << " hosts), routing " << cli.routing << ", policy "
              << cli.policy << ", load " << engine::formatShortest(cli.load)
              << ", seed " << cli.seed
              << "\n";
    printPlan(plan, topo);

    trace::OpenLoopOptions opt;  // 0.5 ms warmup, 2 ms measured.
    const std::shared_ptr<const core::CompiledRoutes> healthy =
        core::CompiledRoutes::compile(router);
    opt.compiled = healthy.get();

    obs::RecorderConfig rcfg;
    rcfg.recordEvents = !cli.traceOut.empty();
    ConsoleProbe probe(rcfg);
    opt.probe = &probe;

    std::shared_ptr<void> faultState;
    opt.prepare = [&](sim::Network& net, trace::RouteSetResolver& resolver) {
      fault::InstallOptions io;
      io.policy = parsePolicy(cli.policy);
      io.unreachable = fault::UnreachablePolicy::kDrop;
      faultState = fault::installFaultPlan(net, plan, healthy, &resolver, io);
    };

    patterns::OpenLoopConfig scfg;
    scfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
    scfg.arrivals = patterns::ArrivalProcess::kPoisson;
    scfg.dest = patterns::DestDistribution::kUniform;
    scfg.load = cli.load;
    scfg.messageBytes = 2048;
    scfg.stopNs = opt.warmupNs + opt.measureNs;  // Then drain.
    scfg.seed = core::deriveSeed(cli.seed, "source");
    patterns::OpenLoopSource source(scfg);

    std::cout << "\nfault transitions:\n";
    const trace::OpenLoopResult r =
        trace::runOpenLoop(topo, *router, source, opt);
    probe.finishNarration();

    std::cout << "\noperating point:\n"
              << "  offered load   " << engine::formatFixed(r.offeredLoad, 3)
              << "\n"
              << "  accepted load  " << engine::formatFixed(r.acceptedLoad, 3)
              << "\n"
              << "  latency p50    " << r.latency.p50Ns << " ns\n"
              << "  latency p99    " << r.latency.p99Ns << " ns\n"
              << "fault counters:\n"
              << "  segments rerouted  " << r.stats.segmentsRerouted << "\n"
              << "  segments stranded  " << r.stats.segmentsStranded << "\n"
              << "  messages dropped   " << r.stats.messagesDropped << "\n"
              << "  link-down time     " << r.stats.linkDownNs << " ns\n";

    if (!cli.traceOut.empty()) {
      std::ofstream out(cli.traceOut, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::invalid_argument("cannot write: " + cli.traceOut);
      }
      obs::ChromeTraceOptions topt;
      topt.processName = "fault_cli " + cli.faults;
      obs::writeChromeTrace(out, probe, topt);
      std::cout << "chrome trace written to " << cli.traceOut
                << " (open at ui.perfetto.dev)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
