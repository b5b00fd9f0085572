// Golden-CSV regression for the registry-driven Scenario path: replays the
// "smoke" builtin campaign through the engine and byte-compares the CSV
// against a checked-in fixture.  This pins the engine's determinism
// contract across construction-path refactors: topology, pattern and
// router construction, router-mode route resolution, the simulator's event
// ordering, and the CSV formatting all feed this byte stream.
//
// Regenerate the fixture ONLY for an intentional behaviour change:
//   ./build/campaign_cli --builtin smoke --seeds 2 --msg-scale 0.0625
//       --quiet --out tests/engine/data/smoke_campaign.csv   (one line)
// and explain the change in the commit message.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "engine/campaigns.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

#ifndef XGFT_TESTS_DIR
#error "XGFT_TESTS_DIR must point at the source tests/ directory"
#endif

namespace engine {
namespace {

std::string fixturePath() {
  return std::string(XGFT_TESTS_DIR) + "/engine/data/smoke_campaign.csv";
}

TEST(GoldenCampaign, SmokeCsvIsByteIdenticalToTheFixture) {
  std::ifstream fixture(fixturePath(), std::ios::binary);
  ASSERT_TRUE(fixture) << "missing fixture " << fixturePath();
  std::ostringstream want;
  want << fixture.rdbuf();

  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.0625};
  const std::vector<ExperimentSpec> specs =
      parseCampaign(builtinCampaign("smoke", copt));
  ASSERT_FALSE(specs.empty());

  RunnerOptions ropt;  // campaign_cli defaults: contention on.
  const CampaignResults results = Runner(ropt).run(specs);
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << job.spec.toLine() << ": " << job.error;
  }
  EXPECT_EQ(results.toCsv(), want.str())
      << "smoke campaign CSV drifted from the checked-in fixture — if this "
         "is an intentional behaviour change, regenerate it (see the "
         "comment at the top of this test)";
}

}  // namespace
}  // namespace engine
