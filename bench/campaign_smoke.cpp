// campaign_smoke — Serial vs. multi-threaded campaign engine wall-time on a
// small sweep, emitted as JSON for trajectory tracking (BENCH_*.json).
//
// The workload is a 64-job sweep over small topologies and cheap synthetic
// patterns, so the whole bench stays in the seconds range.  Each
// configuration runs with 1 worker thread and with all hardware threads
// (fresh caches both times, so the comparison is fair), and the bench
// verifies the engine's determinism contract on the way: both runs must
// produce byte-identical CSV.
//
//   campaign_smoke [--threads N] [--jobs N] [--json]
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "engine/runner.hpp"
#include "engine/spec.hpp"

namespace {

std::vector<engine::ExperimentSpec> smokeCampaign(std::uint32_t jobs) {
  // ring/stencil/permutations over two small trees, seeds as the fastest
  // axis; truncated/extended to exactly `jobs` entries.
  const std::string lines =
      "pattern={ring:64,stencil:8:8,permutations:64:2} m1=8 m2=8 w2={8,4} "
      "routing={d-mod-k,Random,r-NCA-d,adaptive} seed=1..8\n";
  std::vector<engine::ExperimentSpec> all = engine::parseCampaign(lines);
  std::vector<engine::ExperimentSpec> out;
  out.reserve(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    engine::ExperimentSpec spec = all[i % all.size()];
    spec.seed += 8 * (i / static_cast<std::uint32_t>(all.size()));
    out.push_back(std::move(spec));
  }
  return out;
}

double runOnce(const std::vector<engine::ExperimentSpec>& specs,
               std::uint32_t threads, std::string* csv) {
  engine::RunnerOptions opt;
  opt.threads = threads;
  opt.collectContention = false;
  engine::Runner runner(opt);  // Fresh runner: cold caches for a fair race.
  const engine::CampaignResults results = runner.run(specs);
  for (const engine::JobResult& job : results.jobs) {
    if (!job.ok) {
      throw std::runtime_error("smoke job failed: " + job.error);
    }
  }
  if (csv) *csv = results.toCsv();
  return static_cast<double>(results.wallTimeNs) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t jobs = 64;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " wants a value");
        return argv[++i];
      };
      if (arg == "--threads") {
        threads = engine::parseU32(next(), "--threads");
      } else if (arg == "--jobs") {
        jobs = engine::parseU32(next(), "--jobs");
      } else if (arg == "--json") {
        // JSON is the only output format; flag kept for interface symmetry.
      } else {
        throw std::invalid_argument(
            "unknown flag '" + arg +
            "' (known: --threads N, --jobs N, --json)");
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  try {
    const std::vector<engine::ExperimentSpec> specs = smokeCampaign(jobs);
    std::string serialCsv;
    std::string parallelCsv;
    const double serialS = runOnce(specs, 1, &serialCsv);
    const double parallelS = runOnce(specs, threads, &parallelCsv);
    const bool identical = serialCsv == parallelCsv;
    std::cout << "{\n"
              << "  \"name\": \"campaign_smoke\",\n"
              << "  \"jobs\": " << specs.size() << ",\n"
              << "  \"threads\": " << threads << ",\n"
              << "  \"serial_s\": " << engine::formatFixed(serialS, 6) << ",\n"
              << "  \"parallel_s\": " << engine::formatFixed(parallelS, 6)
              << ",\n"
              << "  \"speedup\": "
              << engine::formatFixed(
                     parallelS > 0 ? serialS / parallelS : 0, 6)
              << ",\n"
              << "  \"csv_identical\": " << (identical ? "true" : "false")
              << "\n}\n";
    return identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
