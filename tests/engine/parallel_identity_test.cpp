// Worker-count byte-identity at the campaign level: every builtin campaign
// must emit byte-identical CSVs and (includeHost=false) manifests whether
// its jobs run on one worker or three.  Three workers share one campaign
// cache, so they race on its in-flight builds, and job counts like
// loadsweep's 28 leave the cursor an uneven tail — the pool's scheduling
// varies from run to run while the bytes must not.
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

struct CampaignOutput {
  std::string csv;
  std::string manifest;
};

CampaignOutput runCampaign(const std::string& name, std::uint32_t threads) {
  RunnerOptions opt;
  opt.threads = threads;
  opt.openLoopWarmupNs = 50'000;
  opt.openLoopMeasureNs = 200'000;
  Runner runner(opt);
  const CampaignResults results = runner.run(smallCampaign(name));
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << name << ": " << job.error;
  }
  ManifestOptions mopt;
  mopt.includeHost = false;  // The byte-identity form.
  return CampaignOutput{results.toCsv(), manifestToJson(results, mopt)};
}

class ParallelIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelIdentity, CsvAndManifestAreByteIdenticalAcrossWorkerCounts) {
  const std::string name = GetParam();
  const CampaignOutput serial = runCampaign(name, 1);
  EXPECT_NE(serial.csv.find('\n'), std::string::npos);
  const CampaignOutput pooled = runCampaign(name, 3);
  EXPECT_EQ(serial.csv, pooled.csv);
  EXPECT_EQ(serial.manifest, pooled.manifest);
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

}  // namespace
}  // namespace engine
