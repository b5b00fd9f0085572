// Tests for the campaign engine: thread-count-independent results, a job
// cursor that runs every job once at any pool width, cache hit/miss
// behaviour (including shared in-flight builds), closed-loop jobs' per-job
// forwarding state, failure capture and the single-job execution path.
#include "engine/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/spec.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

namespace engine {
namespace {

/// A cheap but non-trivial campaign: two small topologies, three algorithms,
/// two seeds, scaled-down ring traffic.
std::vector<ExperimentSpec> smallCampaign() {
  return parseCampaign(
      "pattern=ring:64 msg_scale=0.0625 m1=8 m2=8 w2={4,2} "
      "routing={d-mod-k,Random,adaptive} seed=1..2\n");
}

TEST(Runner, CsvIsByteIdenticalAcrossThreadCounts) {
  const std::vector<ExperimentSpec> specs = smallCampaign();
  ASSERT_EQ(specs.size(), 12u);
  std::string csv1;
  std::string csv4;
  {
    RunnerOptions opt;
    opt.threads = 1;
    csv1 = Runner(opt).run(specs).toCsv();
  }
  {
    RunnerOptions opt;
    opt.threads = 4;
    csv4 = Runner(opt).run(specs).toCsv();
  }
  EXPECT_EQ(csv1, csv4);
  EXPECT_NE(csv1.find("ok"), std::string::npos);
}

TEST(Runner, ResultsAreSortedByJobIndexRegardlessOfCompletionOrder) {
  RunnerOptions opt;
  opt.threads = 4;
  const CampaignResults results = Runner(opt).run(smallCampaign());
  ASSERT_EQ(results.jobs.size(), 12u);
  for (std::size_t i = 0; i < results.jobs.size(); ++i) {
    EXPECT_EQ(results.jobs[i].jobIndex, i);
    EXPECT_TRUE(results.jobs[i].ok) << results.jobs[i].error;
  }
}

TEST(Runner, MatchesTheSerialHarness) {
  // The engine must reproduce trace::runApp / slowdownVsCrossbar exactly.
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(8, 8, 4);
  spec.pattern = "ring:64";
  spec.routing = "d-mod-k";
  spec.msgScale = 0.0625;
  RunnerOptions opt;
  opt.threads = 1;
  const CampaignResults results = Runner(opt).run({spec});
  ASSERT_TRUE(results.jobs.at(0).ok);

  const xgft::Topology topo(spec.topo);
  const patterns::PhasedPattern app = makeWorkload(spec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const trace::RunResult expected = trace::runApp(topo, *router, app);
  EXPECT_EQ(results.jobs.at(0).makespanNs, expected.makespanNs);
  EXPECT_DOUBLE_EQ(results.jobs.at(0).slowdown,
                   trace::slowdownVsCrossbar(topo, *router, app));
}

TEST(Runner, CacheReusesTopologiesRoutersAndReferences) {
  const std::vector<ExperimentSpec> specs = smallCampaign();
  RunnerOptions opt;
  opt.threads = 2;
  Runner runner(opt);
  const CampaignResults results = runner.run(specs);
  const CacheStats& c = results.cache;
  // 12 jobs over 2 distinct topologies -> 2 misses, the rest hits.  (Every
  // job takes a topology exactly once.)
  EXPECT_EQ(c.topologyMisses, 2u);
  EXPECT_EQ(c.topologyHits, 10u);
  // Routers per topology: d-mod-k (1, shared by both seeds AND by the
  // adaptive jobs' placeholder) + Random seeds 1,2 -> 3 distinct per topo.
  EXPECT_EQ(c.routerMisses, 6u);
  EXPECT_EQ(c.routerHits, 6u);
  // One crossbar reference for the whole campaign: same pattern and scale.
  EXPECT_EQ(c.referenceMisses, 1u);
  EXPECT_EQ(c.referenceHits, 11u);
}

TEST(Runner, CacheStaysWarmAcrossCampaigns) {
  RunnerOptions opt;
  opt.threads = 1;
  Runner runner(opt);
  (void)runner.run(smallCampaign());
  const CampaignResults again = runner.run(smallCampaign());
  EXPECT_EQ(again.cache.topologyMisses, 2u);   // No new misses.
  EXPECT_EQ(again.cache.topologyHits, 22u);
  EXPECT_EQ(again.cache.referenceMisses, 1u);
}

TEST(Runner, ClosedLoopJobsTakeNoForwardingTableFromTheCache) {
  // A closed-loop job keeps its forwarding state to itself: self-routing
  // schemes compile a compressed table for the job alone, Random and
  // colored route each pattern pair on demand.  Neither path asks the cache
  // for a flat or compressed table, the bytes equal the table-free run's,
  // and a static fault plan still builds exactly one degraded table.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=cg128 msg_scale=0.03125 w2={16,1} "
      "routing={s-mod-k,d-mod-k,colored,Random,r-NCA-u,r-NCA-d} seed=1\n"
      "pattern=cg128 msg_scale=0.03125 w2=16 routing=d-mod-k "
      "faults=links:2 seed=1\n");
  ASSERT_EQ(specs.size(), 13u);
  RunnerOptions opt;
  opt.threads = 2;
  const CampaignResults results = Runner(opt).run(specs);
  for (const JobResult& job : results.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
  }
  EXPECT_EQ(results.cache.tableMisses, 0u);
  EXPECT_EQ(results.cache.compressedMisses, 0u);
  EXPECT_EQ(results.cache.degradedMisses, 1u);

  opt.compileRoutes = false;
  EXPECT_EQ(Runner(opt).run(specs).toCsv(), results.toCsv());
}

TEST(Runner, PartitionedClosedLoopJobNamesTheFirstUnreachablePair) {
  // A lone job compiles on all four pool threads; the kThrow error must
  // still name the first unreachable pair in (src, dst) order, not
  // whichever worker's pair surfaced first.  Switch 3 of level 1 holds
  // hosts 48..63, so that pair is 0 -> 48.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=cg128 msg_scale=0.03125 w2=16 routing=d-mod-k "
      "faults=uplinks-of:1:3 seed=1\n");
  RunnerOptions opt;
  opt.threads = 4;
  for (int run = 0; run < 10; ++run) {
    const CampaignResults results = Runner(opt).run(specs);
    ASSERT_EQ(results.jobs.size(), 1u);
    EXPECT_FALSE(results.jobs[0].ok);
    EXPECT_NE(results.jobs[0].error.find("pair 0 -> 48 is unreachable"),
              std::string::npos)
        << results.jobs[0].error;
  }
}

TEST(Runner, SeededRoutersGetDistinctCacheEntries) {
  CampaignCache cache;
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 2);
  spec.routing = "Random";
  const patterns::PhasedPattern app = makeWorkload(spec);
  const auto topo = cache.topology(spec.topo);
  const auto r1 = cache.router(spec, topo, app);
  spec.seed = 2;
  const auto r2 = cache.router(spec, topo, app);
  EXPECT_NE(r1.get(), r2.get());
  spec.seed = 1;
  EXPECT_EQ(cache.router(spec, topo, app).get(), r1.get());
  EXPECT_EQ(cache.stats().routerMisses, 2u);
  EXPECT_EQ(cache.stats().routerHits, 1u);
}

TEST(Runner, UnseededRoutersAreSharedAcrossSeeds) {
  CampaignCache cache;
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 2);
  spec.routing = "s-mod-k";
  const patterns::PhasedPattern app = makeWorkload(spec);
  const auto topo = cache.topology(spec.topo);
  const auto r1 = cache.router(spec, topo, app);
  spec.seed = 99;
  EXPECT_EQ(cache.router(spec, topo, app).get(), r1.get());
}

TEST(Runner, FailedJobsAreCapturedNotThrown) {
  // 128 ranks cannot fit on a 16-host tree.
  ExperimentSpec bad;
  bad.topo = xgft::xgft2(4, 4, 2);
  bad.pattern = "cg128";
  ExperimentSpec good;
  good.topo = xgft::xgft2(4, 4, 2);
  good.pattern = "ring:16";
  good.msgScale = 0.0625;
  RunnerOptions opt;
  opt.threads = 2;
  const CampaignResults results = Runner(opt).run({bad, good});
  EXPECT_FALSE(results.jobs.at(0).ok);
  EXPECT_NE(results.jobs.at(0).error.find("ranks"), std::string::npos);
  EXPECT_TRUE(results.jobs.at(1).ok) << results.jobs.at(1).error;
}

TEST(Runner, RunJobPopulatesUtilizationAndContention) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 4);
  spec.pattern = "alltoall:16";
  spec.msgScale = 0.0625;
  CampaignCache cache;
  const RunnerOptions opt;
  const JobResult job = runJob(spec, 0, cache, opt);
  ASSERT_TRUE(job.ok) << job.error;
  EXPECT_GT(job.makespanNs, 0u);
  EXPECT_GE(job.slowdown, 1.0);
  EXPECT_GT(job.utilMax, 0.0);
  EXPECT_LE(job.utilMax, 1.0);
  EXPECT_GT(job.utilMean, 0.0);
  EXPECT_LE(job.utilMean, job.utilMax);
  EXPECT_GT(job.maxFlowsPerChannel, 0u);
  EXPECT_GT(job.maxDemand, 0.9);  // ~1.0 up to accumulated rounding.
  // All-to-all uses every root; census extremes are populated and sane.
  EXPECT_GT(job.ncaRoutesMax, 0u);
  EXPECT_LE(job.ncaRoutesMin, job.ncaRoutesMax);
}

TEST(Runner, PerSegmentAlgorithmsSkipStaticContention) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 4);
  spec.pattern = "alltoall:16";
  spec.msgScale = 0.0625;
  spec.routing = "spray";
  CampaignCache cache;
  const RunnerOptions opt;
  const JobResult job = runJob(spec, 0, cache, opt);
  ASSERT_TRUE(job.ok) << job.error;
  EXPECT_EQ(job.maxFlowsPerChannel, 0u);
  EXPECT_EQ(job.maxDemand, 0.0);
  EXPECT_GT(job.makespanNs, 0u);
}

TEST(Runner, EveryJobRunsOnceWhateverThePoolWidth) {
  // Ring jobs of mixed cost (msg_scale spans 32x) and one job that fails
  // at once (128 ranks on 16 hosts), so workers finish out of index order.
  std::vector<ExperimentSpec> mixed = parseCampaign(
      "pattern=ring:16 m1=4 m2=4 w2={4,2} msg_scale={0.03125,1,0.25} "
      "routing={d-mod-k,adaptive,Random} seed=1..3\n");
  ASSERT_GE(mixed.size(), 37u);
  mixed[5].pattern = "cg128";
  for (const std::size_t count : {0u, 1u, 7u, 37u}) {
    const std::vector<ExperimentSpec> specs(mixed.begin(),
                                            mixed.begin() + count);
    for (const std::uint32_t threads : {1u, 3u, 4u, 64u}) {
      SCOPED_TRACE(testing::Message() << count << " jobs, " << threads
                                      << " threads");
      std::vector<std::atomic<std::uint32_t>> seen(count);
      std::atomic<bool> inside{false};
      std::atomic<bool> overlapped{false};
      RunnerOptions opt;
      opt.threads = threads;
      opt.onJobDone = [&](const JobResult& job) {
        if (inside.exchange(true)) overlapped = true;
        seen.at(job.jobIndex).fetch_add(1);
        std::this_thread::yield();  // Widen the window a second call hits.
        inside = false;
      };
      const CampaignResults results = Runner(opt).run(specs);
      EXPECT_FALSE(overlapped.load());
      ASSERT_EQ(results.jobs.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(seen[i].load(), 1u) << "job " << i;
        EXPECT_EQ(results.jobs[i].jobIndex, i);
        EXPECT_EQ(results.jobs[i].spec, specs[i]);
        EXPECT_EQ(results.jobs[i].ok, i != 5) << results.jobs[i].error;
      }
    }
  }
}

TEST(Runner, AThrowingOnJobDoneSurfacesFromRunAfterEveryJob) {
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=ring:16 msg_scale=0.0625 m1=4 m2=4 w2=2 seed=1..6\n");
  for (const std::uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    std::uint32_t calls = 0;  // onJobDone is serialized.
    RunnerOptions opt;
    opt.threads = threads;
    opt.onJobDone = [&](const JobResult&) {
      ++calls;
      throw std::runtime_error("progress sink failed");
    };
    EXPECT_THROW((void)Runner(opt).run(specs), std::runtime_error);
    EXPECT_EQ(calls, 1u);
  }
}

TEST(Runner, ThreadCountDefaultsAndClamping) {
  RunnerOptions opt;
  opt.threads = 64;  // Far more threads than jobs: must clamp, not crash.
  const CampaignResults results = Runner(opt).run(
      parseCampaign("pattern=ring:16 msg_scale=0.0625 m1=4 m2=4 w2=2\n"));
  EXPECT_EQ(results.threadsUsed, 1u);
  EXPECT_TRUE(results.jobs.at(0).ok);

  // More jobs than the host has hardware threads: the host caps the pool
  // too, so a large --threads never multiplies OS threads past it.
  const CampaignResults wide = Runner(opt).run(parseCampaign(
      "pattern=ring:16 msg_scale=0.0625 m1=4 m2=4 w2=2 seed=1..8\n"));
  ASSERT_EQ(wide.jobs.size(), 8u);
  EXPECT_LE(wide.threadsUsed,
            std::max(1u, std::thread::hardware_concurrency()));
  for (const JobResult& job : wide.jobs) EXPECT_TRUE(job.ok) << job.error;
}

}  // namespace
}  // namespace engine
