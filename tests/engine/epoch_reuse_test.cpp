// Tests for replay-epoch reuse in the campaign engine: jobs that share a
// CampaignCache fast-forward through the epochs earlier jobs simulated and
// end exactly where memo-less replays end; a campaign run twice reuses
// every epoch the second time; and probes, spray, adaptive routing and
// fault plans keep reuse off without changing any result.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "trace/harness.hpp"
#include "trace/replayer.hpp"

namespace engine {
namespace {

/// Every table scheme, comma-separated for a campaign axis.
std::string tableSchemes() {
  std::string all;
  for (const std::string& name : *core::schemeRegistry().names()) {
    if (core::schemeRegistry().at(name).mode != core::RouteMode::kTable) {
      continue;
    }
    all += (all.empty() ? "" : ",") + name;
  }
  return all;
}

/// What a replay leaves behind.
struct Outcome {
  sim::TimeNs makespan = 0;
  sim::NetworkStats stats;
  std::vector<sim::TimeNs> barriers;
  std::vector<sim::TimeNs> busy;
  std::uint32_t reused = 0;
};

Outcome replay(const xgft::Topology& topo, const patterns::PhasedPattern& app,
               const routing::Router& router, trace::EpochMemo* memo) {
  sim::Network net(topo, sim::SimConfig{});
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  trace::Replayer replayer(net, app, mapping, router, memo);
  Outcome out;
  out.makespan = replayer.run();
  out.stats = net.stats();
  out.barriers = replayer.barrierTimes();
  for (std::uint32_t g = 0; g < net.numGlobalPorts(); ++g) {
    out.busy.push_back(net.wireBusyNs(g));
  }
  out.reused = replayer.epochsReused();
  return out;
}

TEST(EpochReuse, SharedCacheReplaysEqualMemoLessOnes) {
  // Later jobs reuse the switch-local phases earlier jobs on the same tree
  // simulated (and whole jobs where schemes route alike, as at w2 = 1).
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern={cg128,wrf256} msg_scale=0.03125 w2={16,10,4,1} routing={" +
      tableSchemes() + "} seed=1\n");
  CampaignCache cache;
  std::uint32_t reused = 0;
  for (const ExperimentSpec& spec : specs) {
    SCOPED_TRACE(spec.toLine());
    const patterns::PhasedPattern app = makeWorkload(spec);
    const auto topo = cache.topology(spec.topo);
    const auto router = cache.router(spec, topo, app);
    const Outcome shared = replay(*topo, app, *router, &cache.epochs());
    const Outcome plain = replay(*topo, app, *router, nullptr);
    reused += shared.reused;
    EXPECT_EQ(shared.makespan, plain.makespan);
    EXPECT_EQ(shared.stats.segmentsInjected, plain.stats.segmentsInjected);
    EXPECT_EQ(shared.stats.segmentsDelivered, plain.stats.segmentsDelivered);
    EXPECT_EQ(shared.stats.messagesDelivered, plain.stats.messagesDelivered);
    EXPECT_EQ(shared.stats.eventsProcessed, plain.stats.eventsProcessed);
    EXPECT_EQ(shared.stats.lastDeliveryNs, plain.stats.lastDeliveryNs);
    EXPECT_EQ(shared.stats.maxOutputQueueDepth,
              plain.stats.maxOutputQueueDepth);
    EXPECT_EQ(shared.stats.maxInputQueueDepth, plain.stats.maxInputQueueDepth);
    EXPECT_EQ(shared.stats.segmentsRerouted, plain.stats.segmentsRerouted);
    EXPECT_EQ(shared.stats.segmentsStranded, plain.stats.segmentsStranded);
    EXPECT_EQ(shared.stats.messagesDropped, plain.stats.messagesDropped);
    EXPECT_EQ(shared.stats.linkDownNs, plain.stats.linkDownNs);
    EXPECT_EQ(shared.barriers, plain.barriers);
    EXPECT_EQ(shared.busy, plain.busy);
  }
  EXPECT_GT(reused, specs.size());
}

TEST(EpochReuse, ASecondRunReusesEveryEpochAndWritesTheSameCsv) {
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=cg128 msg_scale=0.03125 w2={16,6,1} "
      "routing={d-mod-k,r-NCA-u,Random} seed=1\n");
  RunnerOptions opt;
  opt.threads = 1;
  Runner runner(opt);
  const CampaignResults first = runner.run(specs);
  const CampaignResults second = runner.run(specs);
  EXPECT_EQ(first.toCsv(), second.toCsv());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].toLine());
    ASSERT_TRUE(first.jobs[i].ok) << first.jobs[i].error;
    // cg128 runs five phases, each one epoch.
    EXPECT_EQ(first.jobs[i].epochsReused + first.jobs[i].epochsSimulated, 5u);
    EXPECT_LE(first.jobs[i].eventsSimulated, first.jobs[i].net.eventsProcessed);
    EXPECT_EQ(second.jobs[i].epochsReused, 5u);
    EXPECT_EQ(second.jobs[i].epochsSimulated, 0u);
    EXPECT_EQ(second.jobs[i].eventsSimulated, 0u);
  }
  EXPECT_EQ(first.epochMemo.entries, second.epochMemo.entries);
  EXPECT_GT(first.epochMemo.bytes, 0u);
}

TEST(EpochReuse, ReusesTheMeasuredShareOfTheFigureWorkloads) {
  // Pins how much the memo saves, not only that it is exact: a slip in
  // the key or the release order that keeps every CSV but stops reuse
  // fails here.  One worker fixes which job records and which reuses.
  // Memo bytes are left out: they follow the platform's string and map
  // layout.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern={cg128,wrf256} msg_scale=0.03125 w2={16,10,4,1} "
      "routing={s-mod-k,d-mod-k,Random,r-NCA-u,r-NCA-d,colored} seed=1\n");
  RunnerOptions opt;
  opt.threads = 1;
  const CampaignResults results = Runner(opt).run(specs);
  std::uint64_t reused = 0;
  std::uint64_t simulated = 0;
  std::uint64_t eventsSimulated = 0;
  std::uint64_t events = 0;
  for (const JobResult& job : results.jobs) {
    ASSERT_TRUE(job.ok) << job.spec.toLine() << ": " << job.error;
    reused += job.epochsReused;
    simulated += job.epochsSimulated;
    eventsSimulated += job.eventsSimulated;
    events += job.net.eventsProcessed;
  }
  EXPECT_EQ(reused, 95u);
  EXPECT_EQ(simulated, 49u);
  EXPECT_EQ(eventsSimulated, 2'001'168u);
  EXPECT_EQ(events, 4'238'208u);
  EXPECT_EQ(results.epochMemo.entries, 49u);
}

/// Runs @p line twice on one cache and once on a fresh one: no run reuses
/// an epoch or records one, and all three agree.
void expectNoReuse(const std::string& line) {
  SCOPED_TRACE(line);
  const ExperimentSpec spec = parseCampaign(line + "\n").front();
  const RunnerOptions opt;
  CampaignCache shared;
  CampaignCache fresh;
  const JobResult results[] = {runJob(spec, 0, shared, opt),
                               runJob(spec, 0, shared, opt),
                               runJob(spec, 0, fresh, opt)};
  for (const JobResult& job : results) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.epochsReused, 0u);
    EXPECT_EQ(job.epochsSimulated, 5u);
    EXPECT_EQ(job.eventsSimulated, job.net.eventsProcessed);
    EXPECT_EQ(job.makespanNs, results[0].makespanNs);
    EXPECT_EQ(job.net.eventsProcessed, results[0].net.eventsProcessed);
    EXPECT_EQ(job.net.segmentsDelivered, results[0].net.segmentsDelivered);
    EXPECT_EQ(job.net.maxOutputQueueDepth, results[0].net.maxOutputQueueDepth);
    EXPECT_EQ(job.net.maxInputQueueDepth, results[0].net.maxInputQueueDepth);
    EXPECT_EQ(job.net.linkDownNs, results[0].net.linkDownNs);
    EXPECT_EQ(job.utilMax, results[0].utilMax);
  }
  EXPECT_EQ(shared.epochs().stats().entries, 0u);
}

const char* const kCg = "pattern=cg128 msg_scale=0.03125 w2=10 seed=1 ";

TEST(EpochReuse, StaysOffUnderAProbe) {
  expectNoReuse(std::string(kCg) + "routing=d-mod-k telemetry=summary");
}

TEST(EpochReuse, StaysOffForSprayAndAdaptive) {
  expectNoReuse(std::string(kCg) + "routing=spray");
  expectNoReuse(std::string(kCg) + "routing=adaptive");
}

TEST(EpochReuse, StaysOffUnderAFaultPlan) {
  expectNoReuse(std::string(kCg) + "routing=d-mod-k faults=links:10");
}

TEST(EpochReuse, PerSegmentReplaysEqualTheHarness) {
  // The memo-less harness routes spray and adaptive the way runJob does.
  const ExperimentSpec spec =
      parseCampaign(std::string(kCg) + "routing=adaptive\n").front();
  CampaignCache cache;
  const JobResult job = runJob(spec, 0, cache, RunnerOptions{});
  ASSERT_TRUE(job.ok) << job.error;
  const auto topo = cache.topology(spec.topo);
  const trace::RunResult plain =
      trace::runApp(*topo, trace::Adaptive{}, makeWorkload(spec));
  EXPECT_EQ(job.makespanNs, plain.makespanNs);
  EXPECT_EQ(job.net.eventsProcessed, plain.stats.eventsProcessed);
}

}  // namespace
}  // namespace engine
