// Shard-count byte-identity at the campaign level: every builtin campaign
// must emit byte-identical CSVs and (includeHost=false) manifests whether
// each job's event core runs serial or sharded (sim_threads 1/2/4).  For
// closed-loop and faulted campaigns the engine falls back to the serial
// core, so identity is structural; for the open-loop loadsweep the sharded
// path genuinely executes — this is the engine-level pin of the
// determinism contract in sim/shard.hpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/campaigns.hpp"
#include "engine/manifest.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

namespace engine {
namespace {

/// Trimmed campaign instances (two seeds, 1/32 message scale, short
/// open-loop windows) — the shapes stay real, the runtime stays test-sized.
std::vector<ExperimentSpec> smallCampaign(const std::string& name) {
  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.03125};
  return parseCampaign(builtinCampaign(name, copt));
}

RunnerOptions optionsWith(std::uint32_t simThreads) {
  RunnerOptions opt;
  opt.threads = 1;  // One job at a time; sim_threads is the varied axis.
  opt.simThreads = simThreads;
  opt.openLoopWarmupNs = 50'000;
  opt.openLoopMeasureNs = 200'000;
  return opt;
}

struct CampaignOutput {
  std::string csv;
  std::string manifest;
};

CampaignOutput runCampaign(const std::string& name,
                           std::uint32_t simThreads) {
  Runner runner(optionsWith(simThreads));
  const CampaignResults results = runner.run(smallCampaign(name));
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << name << ": " << job.error;
  }
  ManifestOptions mopt;
  mopt.includeHost = false;  // The byte-identity form.
  return CampaignOutput{results.toCsv(), manifestToJson(results, mopt)};
}

class ParallelIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelIdentity, CsvAndManifestAreByteIdenticalAcrossSimThreads) {
  const std::string name = GetParam();
  const CampaignOutput serial = runCampaign(name, 1);
  EXPECT_NE(serial.csv.find('\n'), std::string::npos);
  for (const std::uint32_t simThreads : {2u, 4u}) {
    SCOPED_TRACE(simThreads);
    const CampaignOutput sharded = runCampaign(name, simThreads);
    EXPECT_EQ(serial.csv, sharded.csv);
    EXPECT_EQ(serial.manifest, sharded.manifest);
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, ParallelIdentity,
                         ::testing::Values("fig2-cg", "fig4", "fig5-cg",
                                           "smoke", "loadsweep",
                                           "faultsweep"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ParallelIdentity, FewJobsOnAWidePoolRunTheSerialCore) {
  // Idle pool threads must not shard a job's event core: sharding is slower
  // than serial at every scale measured, so only sim_threads= or
  // --sim-threads opt in.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "m1=8 m2=8 w2=2 source=poisson:uniform load=0.6 routing=d-mod-k "
      "seed=1\n");
  ASSERT_EQ(specs.size(), 1u);
  RunnerOptions wide = optionsWith(0);
  wide.threads = 4;
  Runner pooled(wide);
  const CampaignResults results = pooled.run(specs);
  EXPECT_EQ(results.simThreadsUsed, 1u);
  Runner serial(optionsWith(1));
  EXPECT_EQ(results.toCsv(), serial.run(specs).toCsv());
}

TEST(ParallelIdentity, SpecLevelSimThreadsKeyOverridesTheRunner) {
  // sim_threads= inside a spec line parses, overrides the runner budget,
  // and stays out of the canonical line form (host-volatile).
  const ExperimentSpec spec =
      parseSpecLine("m1=8 m2=8 w2=2 source=poisson:uniform load=0.6 "
                    "routing=d-mod-k sim_threads=4");
  EXPECT_EQ(spec.simThreads, 4u);
  EXPECT_EQ(spec.toLine().find("sim_threads"), std::string::npos);
  // And the measured configuration compares equal across the knob.
  ExperimentSpec serial = spec;
  serial.simThreads = 0;
  EXPECT_EQ(serial, spec);
}

}  // namespace
}  // namespace engine
