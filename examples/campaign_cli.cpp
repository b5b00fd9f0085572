// campaign_cli.cpp — Declarative experiment campaigns from the command line.
//
// Runs a campaign file (one sweepable key=value spec per line, see
// engine/spec.hpp) or one of the builtin campaigns that replay the paper's
// figure sweeps, with --threads workers running whole jobs, and emits one
// deterministic CSV row per job.  The CSV is byte-identical regardless of
// --threads, so campaign outputs can be diffed across machines.
//
// Every axis is registry-driven (core/scenario.hpp): the --list-* flags
// enumerate whatever schemes, patterns, topology presets and builtin
// campaigns are registered, and a newly registered name is immediately
// usable in campaign files with no CLI change.
//
//   campaign_cli --builtin fig5-cg --threads 8 --out fig5.csv
//   campaign_cli --builtin fig2-cg --seeds 3 --msg-scale 0.03125
//   campaign_cli --list-schemes
//   campaign_cli my_campaign.txt
//   echo 'pattern=ring:64 w2=8..1 routing=Random seed=1..4' | campaign_cli -
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/timeseries.hpp"
#include "core/scenario.hpp"
#include "engine/campaigns.hpp"
#include "engine/manifest.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "fault/plan.hpp"
#include "obs/chrome_trace.hpp"

namespace {

struct CliOptions {
  std::string campaignFile;
  std::string builtin;
  std::string outFile;
  std::string list;           // One of: schemes, patterns, sources, faults,
                              // topologies, campaigns ("" = no listing).
  std::uint32_t threads = 0;  // 0 = hardware concurrency.
  std::uint32_t seeds = 10;
  double msgScale = 0.125;
  bool contention = true;
  bool printCampaign = false;
  bool quiet = false;
  bool telemetry = false;     // --telemetry[=DIR]: summary floor + manifest.
  std::string telemetryDir;   // Non-empty: manifest + per-job series there.
  std::string traceOut;       // --trace-out FILE: combined Chrome trace.
};

std::string joinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " | ";
    out += n;
  }
  return out;
}

void usage(std::ostream& os) {
  os << "usage: campaign_cli [options] [campaign-file|-]\n"
        "  --builtin NAME    "
     << joinNames(*engine::campaignRegistry().names())
     << "\n"
        "  --threads N       worker threads, each running whole jobs\n"
        "                    (default: hardware concurrency)\n"
        "  --seeds N         seed-sweep width of builtin campaigns "
        "(default 10)\n"
        "  --msg-scale X     message-size scale of builtin campaigns "
        "(default 0.125)\n"
        "  --out FILE        write the CSV there instead of stdout\n"
        "  --telemetry[=DIR] record per-job telemetry; writes a run manifest\n"
        "                    (JSON) next to --out, or manifest + per-job\n"
        "                    occupancy time-series CSVs into DIR\n"
        "  --trace-out FILE  write a combined Chrome trace (implies event\n"
        "                    recording; open at ui.perfetto.dev)\n"
        "  --no-contention   skip the static contention/census columns\n"
        "  --print-campaign  print the expanded campaign text and exit\n"
        "  --list-schemes    registered routing schemes, one per line\n"
        "  --list-patterns   registered workload patterns\n"
        "  --list-sources    registered open-loop traffic sources "
        "(source=/load= keys)\n"
        "  --list-faults     registered fault-plan models (faults= key)\n"
        "  --list-topologies registered topology presets\n"
        "  --list-campaigns  registered builtin campaigns\n"
        "  --quiet           no progress on stderr\n";
}

/// Renders one "name - summary" listing from whichever registry @p what
/// names; returns the process exit code.
int listRegistry(const std::string& what) {
  const auto row = [](const std::string& name, const std::string& usage,
                      const std::string& summary) {
    std::cout << "  " << name;
    for (std::size_t pad = name.size(); pad < 22; ++pad) std::cout << ' ';
    std::cout << summary;
    if (!usage.empty() && usage != name) std::cout << "  [" << usage << "]";
    std::cout << "\n";
  };
  if (what == "schemes") {
    std::cout << "registered routing schemes:\n";
    const auto names = core::schemeRegistry().names();
    for (const std::string& name : *names) {
      row(name, name, core::schemeRegistry().at(name).summary);
    }
  } else if (what == "patterns") {
    std::cout << "registered patterns:\n";
    const auto names = core::patternRegistry().names();
    for (const std::string& name : *names) {
      const core::PatternInfo& info = core::patternRegistry().at(name);
      row(name, info.usage, info.summary);
    }
  } else if (what == "sources") {
    std::cout << "registered open-loop traffic sources (use with source= "
                 "and load=):\n";
    const auto names = core::sourceRegistry().names();
    for (const std::string& name : *names) {
      const core::SourceInfo& info = core::sourceRegistry().at(name);
      row(name, info.usage, info.summary);
    }
  } else if (what == "faults") {
    std::cout << "registered fault-plan models (use with faults=):\n";
    const auto names = fault::planRegistry().names();
    for (const std::string& name : *names) {
      const fault::PlanInfo& info = fault::planRegistry().at(name);
      row(name, info.usage, info.summary);
    }
  } else if (what == "topologies") {
    std::cout << "registered topology presets (or explicit "
                 "topo=\"XGFT(h; m...; w...)\"):\n";
    const auto names = core::topologyRegistry().names();
    for (const std::string& name : *names) {
      const core::TopologyInfo& info = core::topologyRegistry().at(name);
      row(name, info.usage, info.summary);
    }
  } else if (what == "campaigns") {
    std::cout << "registered builtin campaigns:\n";
    const auto names = engine::campaignRegistry().names();
    for (const std::string& name : *names) {
      row(name, name, engine::campaignRegistry().at(name).summary);
    }
  } else {
    std::cerr << "error: unknown listing '" << what << "'\n";
    return 2;
  }
  return 0;
}

/// @p value as a whole u32 (no sign, no trailing characters), else throws
/// naming @p flag.
std::uint32_t parseU32Flag(const char* flag, const std::string& value) {
  std::uint32_t v = 0;
  const char* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || p != end) {
    throw std::invalid_argument(std::string(flag) +
                                " wants an integer in [0, 4294967295], got '" +
                                value + "'");
  }
  return v;
}

/// @p value as a whole finite double, else throws naming @p flag.
double parseDoubleFlag(const char* flag, const std::string& value) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || p != end || !std::isfinite(v)) {
    throw std::invalid_argument(std::string(flag) +
                                " wants a finite number, got '" + value +
                                "'");
  }
  return v;
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
    if (arg == "--builtin") {
      opt.builtin = next("--builtin");
    } else if (arg == "--threads") {
      opt.threads = parseU32Flag("--threads", next("--threads"));
    } else if (arg == "--seeds") {
      opt.seeds = parseU32Flag("--seeds", next("--seeds"));
    } else if (arg == "--msg-scale") {
      opt.msgScale = parseDoubleFlag("--msg-scale", next("--msg-scale"));
    } else if (arg == "--out") {
      opt.outFile = next("--out");
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry = true;
      opt.telemetryDir = arg.substr(std::string("--telemetry=").size());
      if (opt.telemetryDir.empty()) {
        throw std::invalid_argument("--telemetry= wants a directory");
      }
    } else if (arg == "--trace-out") {
      opt.traceOut = next("--trace-out");
    } else if (arg == "--no-contention") {
      opt.contention = false;
    } else if (arg == "--print-campaign") {
      opt.printCampaign = true;
    } else if (arg == "--list-schemes") {
      opt.list = "schemes";
    } else if (arg == "--list-patterns") {
      opt.list = "patterns";
    } else if (arg == "--list-sources") {
      opt.list = "sources";
    } else if (arg == "--list-faults") {
      opt.list = "faults";
    } else if (arg == "--list-topologies") {
      opt.list = "topologies";
    } else if (arg == "--list-campaigns") {
      opt.list = "campaigns";
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      throw std::invalid_argument("unknown flag '" + arg + "' (see --help)");
    } else if (opt.campaignFile.empty()) {
      opt.campaignFile = arg;
    } else {
      throw std::invalid_argument("more than one campaign file given");
    }
  }
  if (opt.list.empty() && opt.builtin.empty() == opt.campaignFile.empty()) {
    throw std::invalid_argument(
        "give exactly one of --builtin NAME or a campaign file (or '-')");
  }
  if (opt.telemetry && opt.telemetryDir.empty() && opt.outFile.empty()) {
    throw std::invalid_argument(
        "--telemetry without a DIR needs --out FILE (the manifest is "
        "written next to it); use --telemetry=DIR otherwise");
  }
  return opt;
}

/// Write-then-rename (an error mid-write must not leave a truncated file
/// under the requested name), shared by every CLI output artifact.
void writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& fill) {
  const std::string tmpFile = path + ".tmp";
  try {
    std::ofstream out(tmpFile, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::invalid_argument("cannot write: " + tmpFile);
    }
    fill(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("write failed: " + tmpFile);
    }
    out.close();
    if (std::rename(tmpFile.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmpFile + " to " + path);
    }
  } catch (...) {
    std::remove(tmpFile.c_str());  // Every failure path: no .tmp litter.
    throw;
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
    if (!cli.list.empty()) return listRegistry(cli.list);

    std::string campaignText;
    if (!cli.builtin.empty()) {
      campaignText = engine::builtinCampaign(
          cli.builtin, engine::CampaignOptions{cli.seeds, cli.msgScale});
    } else if (cli.campaignFile == "-") {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      campaignText = buf.str();
    } else {
      std::ifstream file(cli.campaignFile);
      if (!file) {
        throw std::invalid_argument("cannot open campaign file: " +
                                    cli.campaignFile);
      }
      std::ostringstream buf;
      buf << file.rdbuf();
      campaignText = buf.str();
    }
    if (cli.printCampaign) {
      std::cout << campaignText;
      return 0;
    }

    const std::vector<engine::ExperimentSpec> specs =
        engine::parseCampaign(campaignText);
    if (specs.empty()) {
      throw std::invalid_argument("campaign expanded to zero jobs");
    }
    // Defensive pre-flight: parseCampaign already resolves these names, so
    // today this loop cannot fire — it exists to pin the contract that a
    // registry lookup can never fail mid-campaign (uniform "unknown <kind>
    // '<name>' (registered: ...)" error, non-zero exit, output file never
    // created) even if parse-time validation and job-time lookups drift
    // apart in a future refactor.
    for (const engine::ExperimentSpec& spec : specs) {
      (void)core::schemeRegistry().at(spec.routing);
      (void)core::patternRegistry().at(core::splitSpec(spec.pattern).name);
      if (!spec.source.empty()) {
        (void)core::sourceRegistry().at(core::splitSpec(spec.source).name);
      }
    }

    engine::RunnerOptions ropt;
    ropt.threads = cli.threads;
    ropt.collectContention = cli.contention;
    // Telemetry floors: --trace-out needs the event log, --telemetry the
    // summary series; a spec's own telemetry= key can only raise a job
    // further, never below the floor.
    if (!cli.traceOut.empty()) {
      ropt.telemetry = engine::TelemetryLevel::kTrace;
    } else if (cli.telemetry) {
      ropt.telemetry = engine::TelemetryLevel::kSummary;
    }
    // One progress line per completed job, rate-limited so huge sweeps of
    // tiny jobs don't flood the terminal; failures and the final job always
    // print.  Suppressed when stderr is piped (logs stay clean) or --quiet.
    std::size_t done = 0;
    const bool progress = !cli.quiet && isatty(fileno(stderr)) != 0;
    if (progress) {
      auto lastPrint = std::chrono::steady_clock::time_point{};
      ropt.onJobDone = [&, lastPrint](const engine::JobResult& job) mutable {
        ++done;
        const auto now = std::chrono::steady_clock::now();
        const bool due =
            now - lastPrint >= std::chrono::milliseconds(100) || !job.ok ||
            done == specs.size();
        if (!due) return;
        lastPrint = now;
        std::cerr << "[" << done << "/" << specs.size() << "] "
                  << job.spec.toLine() << (job.ok ? " ... " : " FAILED ... ")
                  << job.wallNs / 1000000 << " ms\n";
      };
    }
    engine::Runner runner(ropt);
    const engine::CampaignResults results = runner.run(specs);

    if (cli.outFile.empty()) {
      results.writeCsv(std::cout);
    } else {
      writeFileAtomic(cli.outFile,
                      [&](std::ostream& os) { results.writeCsv(os); });
    }

    if (cli.telemetry) {
      std::string manifestPath = cli.outFile + ".manifest.json";
      if (!cli.telemetryDir.empty()) {
        std::filesystem::create_directories(cli.telemetryDir);
        manifestPath = cli.telemetryDir + "/manifest.json";
        for (const engine::JobResult& job : results.jobs) {
          if (!job.telemetry) continue;
          const std::string seriesPath = cli.telemetryDir + "/job" +
                                         std::to_string(job.jobIndex) +
                                         ".timeseries.csv";
          writeFileAtomic(seriesPath, [&](std::ostream& os) {
            analysis::writeTimeSeriesCsv(os, job.telemetry->series());
          });
        }
      }
      writeFileAtomic(manifestPath, [&](std::ostream& os) {
        engine::writeManifest(os, results);
      });
    }

    if (!cli.traceOut.empty()) {
      writeFileAtomic(cli.traceOut, [&](std::ostream& os) {
        obs::ChromeTraceWriter writer(os);
        for (const engine::JobResult& job : results.jobs) {
          if (!job.telemetry) continue;
          obs::ChromeTraceOptions topt;
          topt.pid = job.jobIndex + 1;
          topt.processName = job.spec.toLine();
          writer.addProcess(*job.telemetry, topt);
        }
        writer.finish();
      });
    }

    std::size_t failed = 0;
    for (const engine::JobResult& job : results.jobs) {
      if (!job.ok) ++failed;
    }
    if (!cli.quiet) {
      const engine::CacheStats& c = results.cache;
      std::cerr << specs.size() << " jobs on " << results.threadsUsed
                << " thread(s) in "
                << static_cast<double>(results.wallTimeNs) / 1e9
                << " s; cache: topo " << c.topologyHits << "/"
                << (c.topologyHits + c.topologyMisses) << " hits, routers "
                << c.routerHits << "/" << (c.routerHits + c.routerMisses)
                << ", tables " << c.tableHits << "/"
                << (c.tableHits + c.tableMisses) << ", references "
                << c.referenceHits << "/"
                << (c.referenceHits + c.referenceMisses) << "\n";
      if (failed > 0) std::cerr << failed << " job(s) failed\n";
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
