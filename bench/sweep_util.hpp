// sweep_util.hpp — The progressive tree-slimming sweep shared by the
// Fig. 2 and Fig. 5 harnesses, expressed as an engine campaign.
//
// Both figures plot slowdown vs. Full-Crossbar on XGFT(2;16,16;1,w2) for
// w2 = 16..1.  Fig. 2 compares {Random, S-mod-k, D-mod-k, Colored}; Fig. 5
// adds the proposals {r-NCA-u, r-NCA-d} as boxplots over many seeds.
//
// The sweep is declared as a list of ExperimentSpecs and executed by
// engine::Runner, so its jobs run on all cores (--threads), reuses each w2
// topology across algorithms and seeds, and simulates the Full-Crossbar
// reference exactly once — while producing the same numbers the serial
// harness produced (the engine's per-job results are thread-count
// independent).
#pragma once

#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

namespace benchutil {

/// Measured slowdowns at one w2 point.
struct SweepPoint {
  std::uint32_t w2 = 0;
  std::map<std::string, double> centered;           ///< Deterministic lines.
  std::map<std::string, analysis::BoxStats> boxes;  ///< Seeded algorithms.
};

/// Runs the progressive-slimming sweep of the builtin workload named by
/// @p patternSpec ("cg128", "wrf256", ... — see engine::makeWorkload).
/// @p withRnca adds the Fig. 5 proposals; Random is always box-plotted over
/// opt.seeds seeds (the paper plots it centered in Fig. 2 and boxed in
/// Fig. 5 — the median is reported either way).
inline std::vector<SweepPoint> slimmingSweep(const std::string& patternSpec,
                                             const Options& opt, bool withRnca,
                                             std::ostream& log) {
  std::vector<engine::ExperimentSpec> specs;
  const auto pushSpec = [&](std::uint32_t w2, const std::string& scheme,
                            std::uint64_t seed) {
    engine::ExperimentSpec spec;
    spec.topo = xgft::xgft2(16, 16, w2);
    spec.pattern = patternSpec;
    spec.routing = scheme;
    spec.msgScale = opt.msgScale;
    spec.seed = seed;
    specs.push_back(std::move(spec));
  };
  std::vector<std::string> boxed{"Random"};
  if (withRnca) {
    boxed.push_back("r-NCA-u");
    boxed.push_back("r-NCA-d");
  }
  for (std::uint32_t w2 = 16; w2 >= 1; --w2) {
    pushSpec(w2, "s-mod-k", 1);
    pushSpec(w2, "d-mod-k", 1);
    pushSpec(w2, "colored", 1);
    for (const std::string& scheme : boxed) {
      for (std::uint32_t seed = 1; seed <= opt.seeds; ++seed) {
        pushSpec(w2, scheme, seed);
      }
    }
  }

  engine::RunnerOptions ropt;
  ropt.threads = opt.threads;
  ropt.collectContention = false;  // The figures only need slowdowns.
  std::size_t done = 0;
  ropt.onJobDone = [&](const engine::JobResult&) {
    if (++done % 25 == 0 || done == specs.size()) {
      log << "  " << done << "/" << specs.size() << " jobs done\n"
          << std::flush;
    }
  };
  engine::Runner runner(ropt);
  const engine::CampaignResults results = runner.run(specs);

  // Reassemble figure points; the campaign order above is deterministic, so
  // jobs can be consumed sequentially.
  std::vector<SweepPoint> points;
  std::size_t next = 0;
  const auto take = [&]() -> const engine::JobResult& {
    const engine::JobResult& job = results.jobs.at(next++);
    if (!job.ok) {
      throw std::runtime_error("sweep job failed (" + job.spec.toLine() +
                               "): " + job.error);
    }
    return job;
  };
  for (std::uint32_t w2 = 16; w2 >= 1; --w2) {
    SweepPoint point;
    point.w2 = w2;
    point.centered["s-mod-k"] = take().slowdown;
    point.centered["d-mod-k"] = take().slowdown;
    point.centered["colored"] = take().slowdown;
    for (const std::string& scheme : boxed) {
      std::vector<double> sample;
      sample.reserve(opt.seeds);
      for (std::uint32_t seed = 1; seed <= opt.seeds; ++seed) {
        sample.push_back(take().slowdown);
      }
      point.boxes[scheme] = analysis::boxStats(sample);
    }
    points.push_back(std::move(point));
  }
  return points;
}

/// Renders the sweep in the paper's orientation: one row per w2, one column
/// per algorithm (medians for boxed algorithms), then per-algorithm boxplot
/// detail tables.
inline void printSweep(const std::vector<SweepPoint>& points,
                       const Options& opt, std::ostream& os) {
  if (points.empty()) return;
  std::vector<std::string> header{"w2", "Full-Crossbar"};
  for (const auto& [name, v] : points.front().centered) header.push_back(name);
  for (const auto& [name, v] : points.front().boxes) {
    header.push_back(name + "(med)");
  }
  analysis::Table table(header);
  for (const SweepPoint& p : points) {
    std::vector<std::string> row{std::to_string(p.w2), "1.000"};
    for (const auto& [name, v] : p.centered) {
      row.push_back(analysis::Table::num(v));
    }
    for (const auto& [name, b] : p.boxes) {
      row.push_back(analysis::Table::num(b.median));
    }
    table.addRow(std::move(row));
  }
  if (opt.csv) {
    table.printCsv(os);
  } else {
    table.print(os);
  }

  for (const auto& [name, unused] : points.front().boxes) {
    os << "\nboxplot: " << name << " (" << opt.seeds << " seeds)\n";
    analysis::Table box({"w2", "min", "q1", "median", "q3", "max"});
    for (const SweepPoint& p : points) {
      const analysis::BoxStats& b = p.boxes.at(name);
      box.addRow({std::to_string(p.w2), analysis::Table::num(b.min),
                  analysis::Table::num(b.q1), analysis::Table::num(b.median),
                  analysis::Table::num(b.q3), analysis::Table::num(b.max)});
    }
    if (opt.csv) {
      box.printCsv(os);
    } else {
      box.print(os);
    }
  }
}

}  // namespace benchutil
