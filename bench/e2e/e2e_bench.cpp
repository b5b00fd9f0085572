// e2e_bench.cpp — End-to-end campaign benchmark, one phase per process.
//
//   e2e_bench setup  CAMPAIGN SEED_OFFSET
//   e2e_bench run    CAMPAIGN SEED_OFFSET CSV_OUT
//   e2e_bench traced CAMPAIGN SEED_OFFSET CSV_OUT SPANS_OUT
//   e2e_bench probe
//
// Every campaign phase parses the campaign file, adds SEED_OFFSET to every
// job seed and prints one flat JSON object of measurements on stdout.
// bench/e2e/run.py starts each repetition as a fresh process, so caches, the
// allocator and peak RSS start cold, as they do for a campaign_cli user.
//
//  * setup   On a fresh CampaignCache and one thread, builds every distinct
//            artifact the jobs will ask the cache for (topologies, routers,
//            forwarding tables, degraded tables, crossbar references).
//  * run     A fresh engine::Runner at its defaults with one worker thread,
//            timed around Runner::run; writes the CSV.  One thread because
//            the benchmark shares a few cores with other work: a wider
//            pool measured the scheduler, not the program (README.md).
//  * traced  setup again with one span around each cache call, then every
//            job serially through engine::runJob on that warm cache (one
//            span per job), then one span around writeCsv + writeManifest.
//            Spans stay in memory and go to SPANS_OUT at exit.
//  * probe   Times a fixed binary-heap workload that no code under src/
//            runs.  run.py times it next to every setup and run phase and
//            scales their times by it, because the host's speed drifts by
//            tens of percent within minutes (README.md).
//
// The benchmark measures from outside: spans wrap calls into the layers'
// public functions, and nothing inside src/ is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "engine/manifest.hpp"
#include "engine/results.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "obs/json_util.hpp"

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // "Clang 15.0.7 ..."
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secondsBetween(std::int64_t startNs, std::int64_t endNs) {
  return static_cast<double>(endNs - startNs) * 1e-9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One flat JSON object; every double goes through engine::formatFixed.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    return raw(key, engine::formatFixed(v, 9));
  }
  JsonObject& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + obs::jsonEscape(v) + "\"");
  }
  [[nodiscard]] std::string text() const { return body_ + "}"; }

 private:
  JsonObject& raw(std::string_view key, const std::string& value) {
    body_ += body_.size() == 1 ? "\"" : ", \"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_ = "{";
};

struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  ///< Index of the enclosing span; -1 at top level.
  int job = -1;     ///< Job the span works for; -1 for campaign-wide work.
};

/// In-memory span log.  A disabled log records nothing, so the setup phase
/// and the traced pass run the same code.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs @p body inside a span named @p name and returns its result.
  template <typename Body>
  decltype(auto) around(const char* name, int job, Body&& body) {
    const Scope scope(*this, name, job);
    return body();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int job) : log_(log) {
      if (!log_.enabled_) return;
      id_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, nowNs(), 0, log_.open_, job});
      log_.open_ = id_;
    }
    ~Scope() {
      if (id_ < 0) return;
      Span& span = log_.spans_[static_cast<std::size_t>(id_)];
      span.endNs = nowNs();
      log_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Distinct healthy forwarding tables (both layouts) the setup obtained.
using TableSet = std::set<const core::CompiledRoutes*>;

/// Asks @p cache for every artifact engine::runJob will request, along
/// runJob's own selection ladder: the flat table within the memory budget,
/// else the compressed one (built fully here), degraded tables for static
/// failure sets, and the crossbar reference of closed-loop jobs.  The traced
/// pass counts cache misses during its jobs (engine.setup_misses_in_run),
/// which proves this ladder and runJob's agree.
void buildArtifacts(const std::vector<engine::ExperimentSpec>& specs,
                    engine::CampaignCache& cache, SpanLog& log,
                    TableSet& tables) {
  const engine::RunnerOptions defaults;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const engine::ExperimentSpec& spec = specs[i];
    const int job = static_cast<int>(i);
    const bool openLoop = !spec.source.empty();
    try {
      const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
      const auto topo = log.around("xgft.topology", job,
                                   [&] { return cache.topology(spec.topo); });
      patterns::PhasedPattern app;
      if (!openLoop) {
        app = log.around("patterns.workload", job,
                         [&] { return engine::makeWorkload(spec); });
        // runJob fails such jobs before touching the cache.
        if (app.numRanks > topo->numHosts()) continue;
      } else if (scheme.patternAware) {
        continue;
      }
      const auto router = log.around(
          "routing.router", job, [&] { return cache.router(spec, topo, app); });

      if (scheme.mode == core::RouteMode::kTable) {
        std::shared_ptr<const core::CompiledRoutes> table;
        if (core::CompiledRoutes::tableBytes(*topo) <=
            defaults.maxCompiledTableBytes) {
          table = log.around("core.compile_flat", job, [&] {
            return cache.compiledRoutes(spec, router, 1);
          });
        } else if (!openLoop || spec.faults.empty()) {
          table = log.around("core.compile_compressed", job, [&] {
            auto built = cache.compressedRoutes(
                spec, router, defaults.maxCompiledTableBytes);
            if (built) built->compileAll(1);
            return built;
          });
        }
        if (table) tables.insert(table.get());
      }

      if (!spec.faults.empty()) {
        (void)fault::requireDegradable(spec.routing);
        const fault::FaultPlan plan = log.around("fault.plan", job, [&] {
          return fault::makeFaultPlan(spec.faults, *topo,
                                      engine::deriveSeed(spec.seed, "fault"));
        });
        const bool staticFailures =
            openLoop ? !plan.failedAt(0).empty()
                     : !plan.empty() && !plan.hasTimed();
        if (staticFailures) {
          const auto policy = openLoop ? fault::UnreachablePolicy::kDrop
                                       : fault::UnreachablePolicy::kThrow;
          (void)log.around("fault.degraded_compile", job, [&] {
            return cache.degradedRoutes(spec, router, plan, policy, 1);
          });
        }
      }

      if (!openLoop) {
        (void)log.around("trace.crossbar", job, [&] {
          return cache.crossbarMakespan(spec, app, defaults.sim);
        });
      }
    } catch (const std::exception&) {
      // runJob records this job's failure itself; set-up moves on.
    }
  }
}

std::uint64_t totalMisses(const engine::CacheStats& s) {
  return s.topologyMisses + s.routerMisses + s.tableMisses +
         s.referenceMisses + s.degradedMisses + s.compressedMisses;
}

std::vector<engine::ExperimentSpec> loadCampaign(const std::string& path,
                                                 std::uint64_t seedOffset) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open campaign file: " + path);
  std::vector<engine::ExperimentSpec> specs = engine::parseCampaign(in);
  if (specs.empty()) throw std::invalid_argument("campaign has no jobs");
  for (engine::ExperimentSpec& spec : specs) spec.seed += seedOffset;
  return specs;
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

int setupPhase(const std::vector<engine::ExperimentSpec>& specs) {
  engine::CampaignCache cache;
  SpanLog off(false);
  TableSet tables;
  const std::int64_t start = nowNs();
  buildArtifacts(specs, cache, off, tables);
  const double setupS = secondsBetween(start, nowNs());
  std::cout << JsonObject().num("setup_s", setupS).text() << '\n';
  return 0;
}

int runPhase(const std::vector<engine::ExperimentSpec>& specs,
             const std::string& csvPath) {
  const std::uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
  engine::RunnerOptions opt;
  opt.threads = 1;
  engine::Runner runner(opt);
  const std::int64_t start = nowNs();
  const engine::CampaignResults results = runner.run(specs);
  const double wallS = secondsBetween(start, nowNs());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpuS =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  writeFile(csvPath, results.toCsv());

  std::vector<std::uint64_t> jobNs;
  std::uint64_t busyNs = 0;
  std::uint64_t failed = 0;
  for (const engine::JobResult& job : results.jobs) {
    jobNs.push_back(job.wallNs);
    busyNs += job.wallNs;
    if (!job.ok) ++failed;
  }
  std::sort(jobNs.begin(), jobNs.end());
  // Tail: the highest sample with at least ten samples above it (the
  // fastest job when there are fewer than eleven).
  const std::size_t tail = jobNs.size() > 11 ? jobNs.size() - 11 : 0;
  const engine::CacheStats& c = results.cache;
  std::cout
      << JsonObject()
             .num("wall_s", wallS)
             .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
             .count("jobs", results.jobs.size())
             .count("failed", failed)
             .count("threads", results.threadsUsed)
             .count("nproc", nproc)
             .str("compiler", kCompiler)
             .str("build_type", E2E_BUILD_TYPE)
             .num("engine.cpu_s", cpuS)
             .num("engine.pool_busy_frac",
                  ratio(static_cast<double>(busyNs) * 1e-9,
                        results.threadsUsed * wallS))
             .num("engine.job_wall_p50_ms",
                  static_cast<double>(jobNs[jobNs.size() / 2]) * 1e-6)
             .num("engine.job_wall_tail_ms",
                  static_cast<double>(jobNs[tail]) * 1e-6)
             .num("engine.job_wall_max_ms",
                  static_cast<double>(jobNs.back()) * 1e-6)
             .num("engine.table_hit_ratio",
                  ratio(static_cast<double>(c.tableHits + c.compressedHits),
                        static_cast<double>(c.tableHits + c.tableMisses +
                                            c.compressedHits +
                                            c.compressedMisses)))
             .num("engine.router_hit_ratio",
                  ratio(static_cast<double>(c.routerHits),
                        static_cast<double>(c.routerHits + c.routerMisses)))
             .num("engine.reference_hit_ratio",
                  ratio(static_cast<double>(c.referenceHits),
                        static_cast<double>(c.referenceHits +
                                            c.referenceMisses)))
             .text()
      << '\n';
  return 0;
}

/// Mean cost of one span's clock pair, measured on this host.
double clockPairSeconds() {
  constexpr int kPairs = 200000;
  const std::int64_t start = nowNs();
  for (int i = 0; i < kPairs; ++i) {
    (void)nowNs();
    (void)nowNs();
  }
  return secondsBetween(start, nowNs()) / kPairs;
}

std::string spansJson(const std::vector<Span>& spans, std::int64_t originNs) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "  {\"name\": \"" + obs::jsonEscape(s.name) +
           "\", \"start_ns\": " + std::to_string(s.startNs - originNs) +
           ", \"end_ns\": " + std::to_string(s.endNs - originNs) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"job\": " + std::to_string(s.job) + "}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  return out + "]\n";
}

int tracedPhase(const std::vector<engine::ExperimentSpec>& specs,
                const std::string& csvPath, const std::string& spansPath) {
  const std::int64_t start = nowNs();
  SpanLog log(true);
  engine::CampaignCache cache;
  TableSet tables;
  log.around("setup", -1, [&] { buildArtifacts(specs, cache, log, tables); });
  const engine::CacheStats afterSetup = cache.stats();

  engine::CampaignResults results;
  const engine::RunnerOptions opt;
  log.around("jobs", -1, [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const engine::ExperimentSpec& spec = specs[i];
      const char* kind = !spec.faults.empty() ? "fault.job"
                         : spec.source.empty() ? "trace.replay"
                                               : "trace.openloop";
      const auto index = static_cast<std::uint32_t>(i);
      results.jobs.push_back(log.around(kind, static_cast<int>(i), [&] {
        return engine::runJob(spec, index, cache, opt);
      }));
    }
  });
  results.threadsUsed = 1;
  results.simThreadsUsed = 1;
  results.cache = cache.stats();
  results.forwarding = cache.forwardingStats();

  std::string csv;
  log.around("engine.output", -1, [&] {
    std::ostringstream csvOut;
    results.writeCsv(csvOut);
    std::ostringstream manifest;
    engine::writeManifest(manifest, results);
    csv = csvOut.str();
  });
  const std::int64_t end = nowNs();

  const std::vector<Span>& spans = log.spans();
  std::map<std::string, double> seconds;
  std::vector<bool> hasChild(spans.size(), false);
  for (const Span& s : spans) {
    seconds[s.name] += secondsBetween(s.startNs, s.endNs);
    if (s.parent >= 0) hasChild[static_cast<std::size_t>(s.parent)] = true;
  }
  double attributedS = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!hasChild[i]) attributedS += secondsBetween(spans[i].startNs,
                                                    spans[i].endNs);
  }

  std::uint64_t pairs = 0;
  std::uint64_t tableBytes = 0;
  std::uint64_t compressedTables = 0;
  for (const core::CompiledRoutes* table : tables) {
    pairs += table->numHosts() * (table->numHosts() - 1);
    tableBytes += table->forwardingBytes();
    if (table->compressed()) ++compressedTables;
  }
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t arenaEntries = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  for (const engine::JobResult& job : results.jobs) {
    events += job.net.eventsProcessed;
    messages += job.net.messagesDelivered;
    arenaEntries = std::max(arenaEntries, job.routeArenaEntries);
    rerouted += job.net.segmentsRerouted;
    dropped += job.net.messagesDropped;
    if (!job.ok) ++failed;
  }
  const double compileS =
      seconds["core.compile_flat"] + seconds["core.compile_compressed"];
  const double jobS = seconds["trace.replay"] + seconds["trace.openloop"] +
                      seconds["fault.job"];
  const double tracedS = secondsBetween(start, end);

  writeFile(csvPath, csv);
  writeFile(spansPath, spansJson(spans, start));
  std::cout
      << JsonObject()
             .count("jobs", results.jobs.size())
             .count("failed", failed)
             .count("spans", spans.size())
             .num("engine.traced_s", tracedS)
             .num("xgft.topology_s", seconds["xgft.topology"])
             .num("routing.router_s", seconds["routing.router"])
             .count("routing.routers_built", afterSetup.routerMisses)
             .num("core.compile_s", compileS)
             .count("core.tables_built", tables.size())
             .count("core.compressed_tables_built", compressedTables)
             .count("core.pairs_compiled", pairs)
             .num("core.compile_ns_per_pair",
                  ratio(compileS * 1e9, static_cast<double>(pairs)))
             .num("core.table_mb", static_cast<double>(tableBytes) / kMiB)
             .count("fault.degraded_tables_built", afterSetup.degradedMisses)
             .count("trace.crossbar_runs", afterSetup.referenceMisses)
             .num("trace.job_s", jobS)
             .count("sim.events", events)
             .count("sim.messages", messages)
             .num("sim.ns_per_event",
                  ratio(jobS * 1e9, static_cast<double>(events)))
             .num("sim.ns_per_message",
                  ratio(jobS * 1e9, static_cast<double>(messages)))
             .num("sim.route_arena_mb",
                  static_cast<double>(arenaEntries) * 4.0 / kMiB)
             .count("fault.segments_rerouted", rerouted)
             .count("fault.messages_dropped", dropped)
             .num("engine.output_s", seconds["engine.output"])
             .count("engine.setup_misses_in_run",
                    totalMisses(results.cache) - totalMisses(afterSetup))
             .num("engine.unattributed_s", tracedS - attributedS)
             .num("engine.trace_overhead_s",
                  static_cast<double>(spans.size()) * clockPairSeconds())
             .text()
      << '\n';
  return 0;
}

/// Pops and re-pushes a 64k-entry min-heap 1.5 million times, the shape of
/// the event core's queue.  Keys come from a fixed multiplicative sequence,
/// so the work is the same on every call; the checksum keeps it from being
/// optimized away.
int probePhase() {
  constexpr std::uint64_t kEntries = 1u << 16;
  constexpr std::uint64_t kOps = 1500000;
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const std::int64_t start = nowNs();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  for (std::uint64_t i = 0; i < kEntries; ++i) heap.push((i * kMul) >> 40);
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t top = heap.top();
    heap.pop();
    checksum += top;
    heap.push(top + ((i * kMul) >> 48));
  }
  const double probeS = secondsBetween(start, nowNs());
  std::cout << JsonObject()
                   .num("probe_s", probeS)
                   .count("checksum", checksum)
                   .text()
            << '\n';
  return 0;
}

bool parseOffset(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

constexpr const char* kUsage =
    "usage: e2e_bench setup  CAMPAIGN SEED_OFFSET\n"
    "       e2e_bench run    CAMPAIGN SEED_OFFSET CSV_OUT\n"
    "       e2e_bench traced CAMPAIGN SEED_OFFSET CSV_OUT SPANS_OUT\n"
    "       e2e_bench probe\n";

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "probe") return probePhase();
  std::uint64_t offset = 0;
  if (args.size() < 3 || !parseOffset(args[2], offset)) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string& phase = args[0];
  const std::size_t want = phase == "setup" ? 3 : phase == "run" ? 4 : 5;
  if ((phase != "setup" && phase != "run" && phase != "traced") ||
      args.size() != want) {
    std::cerr << "e2e_bench: unknown phase '" << phase
              << "' or wrong argument count (see usage)\n"
              << kUsage;
    return 2;
  }
  try {
    const std::vector<engine::ExperimentSpec> specs =
        loadCampaign(args[1], offset);
    if (phase == "setup") return setupPhase(specs);
    if (phase == "run") return runPhase(specs, args[3]);
    return tracedPhase(specs, args[3], args[4]);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 1;
  }
}
