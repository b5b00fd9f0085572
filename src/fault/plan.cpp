#include "fault/plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "sim/network.hpp"
#include "xgft/rng.hpp"

namespace fault {

namespace {

/// Argument @p i parsed whole by std::from_chars: no sign, blank or base
/// prefix that the type's plain decimal form does not have.
template <typename T>
T parseArg(const core::SpecName& spec, std::size_t i, const char* what) {
  if (i >= spec.args.size()) {
    throw std::invalid_argument("fault model '" + spec.full +
                                "': missing argument " + std::to_string(i + 1));
  }
  const std::string& a = spec.args[i];
  T value{};
  const auto [p, ec] = std::from_chars(a.data(), a.data() + a.size(), value);
  if (ec != std::errc{} || p != a.data() + a.size()) {
    throw std::invalid_argument("fault model '" + spec.full + "': malformed " +
                                what + " '" + a + "'");
  }
  return value;
}

double argF64(const core::SpecName& spec, std::size_t i) {
  return parseArg<double>(spec, i, "number");
}

std::uint64_t argU64(const core::SpecName& spec, std::size_t i) {
  return parseArg<std::uint64_t>(spec, i, "integer");
}

double percentArg(const core::SpecName& spec, std::size_t i) {
  const double pct = argF64(spec, i);
  if (!(pct >= 0.0 && pct <= 100.0)) {
    throw std::invalid_argument("fault model '" + spec.full +
                                "': percentage must be in [0, 100]");
  }
  return pct;
}

/// Seeded selection of round(pct% of |pool|) elements: Fisher–Yates under
/// the shared SplitMix64 stream, then sorted for a stable plan order.
template <typename T>
std::vector<T> pickPct(std::vector<T> pool, double pct, std::uint64_t seed) {
  const std::size_t k = static_cast<std::size_t>(
      std::llround(pct / 100.0 * static_cast<double>(pool.size())));
  xgft::Rng rng(seed);
  rng.shuffle(pool);
  pool.resize(std::min(k, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// All switch-to-switch links (child endpoint at level >= 1).  Host
/// up-links are excluded: failing them removes hosts, not path diversity,
/// which is a different experiment (use switches:PCT or timed: for that).
std::vector<xgft::LinkId> fabricLinks(const xgft::Topology& topo) {
  std::vector<xgft::LinkId> out;
  for (std::uint32_t l = 1; l < topo.height(); ++l) {
    for (xgft::NodeIndex idx = 0; idx < topo.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < topo.params().w(l + 1); ++p) {
        out.push_back(topo.upLink(l, idx, p));
      }
    }
  }
  return out;
}

std::vector<LinkFault> staticFaults(std::vector<xgft::LinkId> links) {
  std::vector<LinkFault> out;
  out.reserve(links.size());
  for (const xgft::LinkId link : links) {
    out.push_back(LinkFault{link, 0, kNeverNs});
  }
  return out;
}

/// Every link incident to the level-`level` switch @p idx.
void incidentLinks(const xgft::Topology& topo, std::uint32_t level,
                   xgft::NodeIndex idx, std::vector<xgft::LinkId>& out) {
  for (std::uint32_t c = 0; c < topo.params().m(level); ++c) {
    out.push_back(topo.downLink(level, idx, c));
  }
  if (level < topo.height()) {
    for (std::uint32_t p = 0; p < topo.params().w(level + 1); ++p) {
      out.push_back(topo.upLink(level, idx, p));
    }
  }
}

void registerBuiltinPlans(core::Registry<PlanInfo>& reg) {
  reg.add("none",
          PlanInfo{"none", "no failures (the healthy baseline)", false,
                   [](const core::SpecName& spec, const xgft::Topology&,
                      std::uint64_t) -> std::vector<LinkFault> {
                     spec.requireArity(0);
                     return {};
                   }});

  reg.add("links",
          PlanInfo{
              "links:PCT",
              "fail PCT% of the switch-to-switch links, seed-selected",
              true,
              [](const core::SpecName& spec, const xgft::Topology& topo,
                 std::uint64_t seed) {
                spec.requireArity(1);
                return staticFaults(
                    pickPct(fabricLinks(topo), percentArg(spec, 0), seed));
              }});

  reg.add("switches",
          PlanInfo{
              "switches:PCT",
              "fail every link of PCT% of the switches, seed-selected",
              true,
              [](const core::SpecName& spec, const xgft::Topology& topo,
                 std::uint64_t seed) {
                spec.requireArity(1);
                std::vector<std::pair<std::uint32_t, xgft::NodeIndex>> pool;
                for (std::uint32_t l = 1; l <= topo.height(); ++l) {
                  for (xgft::NodeIndex i = 0; i < topo.nodesAtLevel(l); ++i) {
                    pool.emplace_back(l, i);
                  }
                }
                std::vector<xgft::LinkId> links;
                for (const auto& [l, i] :
                     pickPct(std::move(pool), percentArg(spec, 0), seed)) {
                  incidentLinks(topo, l, i, links);
                }
                // Two dead switches can share a link.
                std::sort(links.begin(), links.end());
                links.erase(std::unique(links.begin(), links.end()),
                            links.end());
                return staticFaults(std::move(links));
              }});

  reg.add("uplinks-of",
          PlanInfo{
              "uplinks-of:LEVEL:INDEX",
              "fail all up-links of one switch (siblings keep subtrees "
              "reachable when w > 1)",
              false,
              [](const core::SpecName& spec, const xgft::Topology& topo,
                 std::uint64_t) {
                spec.requireArity(2);
                const std::uint32_t level = spec.argU32(0);
                const std::uint64_t index = argU64(spec, 1);
                if (level < 1 || level > topo.height()) {
                  throw std::invalid_argument(
                      "fault model '" + spec.full + "': level " +
                      std::to_string(level) + " is not a switch level (1.." +
                      std::to_string(topo.height()) + ")");
                }
                if (level == topo.height()) {
                  throw std::invalid_argument("fault model '" + spec.full +
                                              "': a level-" +
                                              std::to_string(level) +
                                              " (top) switch has no up-links");
                }
                if (index >= topo.nodesAtLevel(level)) {
                  throw std::invalid_argument(
                      "fault model '" + spec.full + "': switch index " +
                      std::to_string(index) + " out of range (level has " +
                      std::to_string(topo.nodesAtLevel(level)) + ")");
                }
                std::vector<xgft::LinkId> links;
                for (std::uint32_t p = 0; p < topo.params().w(level + 1);
                     ++p) {
                  links.push_back(topo.upLink(
                      level, static_cast<xgft::NodeIndex>(index), p));
                }
                return staticFaults(std::move(links));
              }});

  reg.add("timed",
          PlanInfo{
              "timed:LINK:DOWN_NS[:UP_NS]",
              "fail one specific link mid-run, optionally restoring it",
              false,
              [](const core::SpecName& spec, const xgft::Topology&,
                 std::uint64_t) {
                if (spec.args.size() != 2 && spec.args.size() != 3) {
                  throw std::invalid_argument(
                      "fault model '" + spec.full +
                      "': expected timed:LINK:DOWN_NS[:UP_NS]");
                }
                LinkFault f;
                f.link = argU64(spec, 0);
                f.downNs = argU64(spec, 1);
                if (spec.args.size() == 3) {
                  f.upNs = argU64(spec, 2);
                  if (f.upNs <= f.downNs) {
                    throw std::invalid_argument(
                        "fault model '" + spec.full +
                        "': restore time must be after the fail time");
                  }
                }
                return std::vector<LinkFault>{f};
              }});
}

}  // namespace

core::Registry<PlanInfo>& planRegistry() {
  return core::populatedRegistry<PlanInfo, registerBuiltinPlans>(
      "fault model");
}

bool FaultPlan::hasTimed() const {
  for (const LinkFault& f : faults) {
    if (f.downNs > 0 || f.upNs != kNeverNs) return true;
  }
  return false;
}

std::vector<xgft::LinkId> FaultPlan::failedAt(sim::TimeNs t) const {
  std::vector<xgft::LinkId> out;
  for (const LinkFault& f : faults) {
    if (f.downNs <= t && t < f.upNs) out.push_back(f.link);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<sim::TimeNs> FaultPlan::transitionTimes() const {
  std::vector<sim::TimeNs> out;
  for (const LinkFault& f : faults) {
    if (f.downNs > 0) out.push_back(f.downNs);
    if (f.upNs != kNeverNs) out.push_back(f.upNs);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void FaultPlan::validate(const xgft::Topology& topo) const {
  for (const LinkFault& f : faults) {
    if (f.link >= topo.numLinks()) {
      throw std::invalid_argument(
          "fault plan '" + spec + "': link " + std::to_string(f.link) +
          " out of range (topology has " + std::to_string(topo.numLinks()) +
          " links)");
    }
    if (f.upNs <= f.downNs) {
      throw std::invalid_argument("fault plan '" + spec + "': link " +
                                  std::to_string(f.link) +
                                  " restores before it fails");
    }
  }
}

void FaultPlan::scheduleOn(sim::Network& net) const {
  for (const LinkFault& f : faults) {
    net.scheduleLinkDown(f.downNs, f.link);
    if (f.upNs != kNeverNs) net.scheduleLinkUp(f.upNs, f.link);
  }
}

FaultPlan makeFaultPlan(const std::string& spec, const xgft::Topology& topo,
                        std::uint64_t seed) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") return plan;
  const core::SpecName name = core::splitSpec(spec);
  const PlanInfo& info = planRegistry().at(name.name);
  plan.spec = core::joinSpec(planRegistry().canonical(name.name), name.args)
                  .full;
  plan.faults = info.make(name, topo, seed);
  plan.validate(topo);
  return plan;
}

}  // namespace fault
