#include "engine/campaigns.hpp"

#include <sstream>

#include "engine/spec.hpp"

namespace engine {

namespace {

/// The Fig. 2/5 progressive slimming sweep on XGFT(2;16,16;1,w2):
/// deterministic schemes once, seeded schemes swept over opt.seeds.
std::string slimmingCampaign(const std::string& name,
                             const std::string& pattern, bool rnca,
                             const CampaignOptions& opt) {
  std::ostringstream os;
  const std::string scale = " msg_scale=" + formatShortest(opt.msgScale);
  os << "# " << name << ": progressive slimming sweep, XGFT(2;16,16;1,w2)\n"
     << "pattern=" << pattern << scale
     << " w2=16..1 routing={s-mod-k,d-mod-k,colored} seed=1\n"
     << "pattern=" << pattern << scale << " w2=16..1 routing="
     << (rnca ? "{Random,r-NCA-u,r-NCA-d}" : "Random") << " seed=1.."
     << opt.seeds << "\n";
  return os.str();
}

void registerBuiltinCampaigns(core::Registry<CampaignInfo>& registry) {
  const auto slimming = [&](const std::string& name,
                            const std::string& pattern, bool rnca,
                            const std::string& figure) {
    CampaignInfo info;
    info.summary = figure + " slimming sweep of " + pattern +
                   (rnca ? " incl. the r-NCA proposals" : "");
    info.text = [name, pattern, rnca](const CampaignOptions& opt) {
      return slimmingCampaign(name, pattern, rnca, opt);
    };
    registry.add(name, std::move(info));
  };
  slimming("fig2-cg", "cg128", false, "Fig. 2");
  slimming("fig2-wrf", "wrf256", false, "Fig. 2");
  slimming("fig5-cg", "cg128", true, "Fig. 5");
  slimming("fig5-wrf", "wrf256", true, "Fig. 5");

  {
    CampaignInfo info;
    info.summary = "Fig. 4 per-NCA route-census extremes (alltoall:256)";
    info.text = [](const CampaignOptions& opt) {
      // All ordered pairs (alltoall) on the full and the slimmed tree: the
      // nca_routes_min/max columns are Fig. 4's per-NCA census extremes.
      // Tiny messages: the census is static, the simulation is a formality.
      std::ostringstream os;
      for (const char* w2 : {"16", "10"}) {
        os << "pattern=alltoall:256 msg_scale=0.002 w2=" << w2
           << " routing={s-mod-k,d-mod-k} seed=1\n"
           << "pattern=alltoall:256 msg_scale=0.002 w2=" << w2
           << " routing={Random,r-NCA-u,r-NCA-d} seed=1.." << opt.seeds
           << "\n";
      }
      return os.str();
    };
    registry.add("fig4", std::move(info));
  }

  {
    CampaignInfo info;
    info.summary =
        "open-loop load-latency sweep (uniform Poisson, paper-slim tree)";
    info.text = [](const CampaignOptions& opt) {
      // The classic accepted-throughput/latency methodology of the
      // random-traffic literature the paper cites (Sec. VII-C, [9]): sweep
      // the offered load on the slimmed tree and read the saturation knee
      // off the p99 column.  Deterministic schemes once, Random swept over
      // opt.seeds for the spread.
      std::ostringstream os;
      const std::string scale = " msg_scale=" + formatShortest(opt.msgScale);
      os << "# loadsweep: offered load vs accepted throughput + latency "
            "percentiles\n"
         << "topo=paper-slim source=poisson:uniform"
         << " load={0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9}"
         << scale << " routing={d-mod-k,adaptive} seed=1\n"
         << "topo=paper-slim source=poisson:uniform"
         << " load={0.2,0.4,0.6,0.8}" << scale << " routing=Random seed=1.."
         << opt.seeds << "\n";
      return os.str();
    };
    registry.add("loadsweep", std::move(info));
  }

  {
    CampaignInfo info;
    info.summary =
        "accepted throughput / p99 latency vs link-failure rate "
        "(paper-slim tree)";
    info.text = [](const CampaignOptions& opt) {
      // Resilience curves: the loadsweep methodology at one moderate
      // operating point, swept over the fraction of failed fabric links.
      // Static table schemes only (adaptive/spray honour faults through
      // the per-segment policy, not table recompilation).  Accepted
      // throughput must degrade monotonically with the failure rate —
      // tests/engine/faultsweep_test.cpp pins that and byte-identity
      // across --threads.
      std::ostringstream os;
      const std::string scale = " msg_scale=" + formatShortest(opt.msgScale);
      os << "# faultsweep: accepted throughput + latency vs failure rate\n"
         << "topo=paper-slim source=poisson:uniform load=0.45" << scale
         << " routing={d-mod-k,Random}"
         << " faults={none,links:5,links:10,links:20,links:30} seed=1\n";
      return os.str();
    };
    registry.add("faultsweep", std::move(info));
  }

  {
    CampaignInfo info;
    info.summary =
        "scale-out open-loop tier: three-level trees up to 4096 hosts "
        "(routed by the router, no forwarding table)";
    info.text = [](const CampaignOptions& opt) {
      // The loadsweep methodology on the three-level scale-out tier, at two
      // operating points (below and near the knee).  Healthy jobs build no
      // forwarding table, so the 4096-host tree, whose table (80 MiB) would
      // exceed the budget, runs like the 512-host one: each message asks
      // the router, and the manifest's table_misses reads 0.
      std::ostringstream os;
      const std::string scale = " msg_scale=" + formatShortest(opt.msgScale);
      os << "# bigsweep: open-loop scale-out tier, XGFT(3;...) trees\n"
         << "topo=xgft3:8:8:8:4:4:2 source=poisson:uniform"
         << " load={0.3,0.6}" << scale
         << " routing={d-mod-k,adaptive} seed=1\n"
         << "topo=xgft3:16:16:16:1:8:8 source=poisson:uniform"
         << " load={0.3,0.6}" << scale << " routing=d-mod-k seed=1\n";
      return os.str();
    };
    registry.add("bigsweep", std::move(info));
  }

  {
    CampaignInfo info;
    info.summary =
        "small cross-scheme determinism probe (golden-CSV regression)";
    info.text = [](const CampaignOptions& opt) {
      // Every route mode (table, adaptive, spray) over two slimmings of a
      // small tree — cheap enough for CI, wide enough that a change to any
      // construction or simulation path shows up in the CSV.
      std::ostringstream os;
      os << "# smoke: all route modes on XGFT(2;8,8;1,w2)\n"
         << "pattern=ring:64 msg_scale=" << formatShortest(opt.msgScale)
         << " m1=8 m2=8 w2={4,2} "
            "routing={s-mod-k,d-mod-k,colored,adaptive} seed=1\n"
         << "pattern=ring:64 msg_scale=" << formatShortest(opt.msgScale)
         << " m1=8 m2=8 w2={4,2} routing={Random,spray} seed=1.."
         << opt.seeds << "\n";
      return os.str();
    };
    registry.add("smoke", std::move(info));
  }
}

}  // namespace

core::Registry<CampaignInfo>& campaignRegistry() {
  return core::populatedRegistry<CampaignInfo, registerBuiltinCampaigns>(
      "builtin campaign");
}

std::string builtinCampaign(const std::string& name,
                            const CampaignOptions& opt) {
  return campaignRegistry().at(name).text(opt);
}

}  // namespace engine
