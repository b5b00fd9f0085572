// Golden-CSV regressions for the registry-driven Scenario path: campaigns
// replayed through the engine and byte-compared against checked-in
// fixtures.  They pin the engine's determinism contract across
// construction-path refactors: topology, pattern and router construction,
// route resolution in every mode, the simulator's event ordering, and the
// CSV formatting all feed these byte streams.
//
//  * smoke — the "smoke" builtin: router-mode table schemes and adaptive.
//  * route modes — what no other fixture covers: open-loop spray jobs, and
//    spray pairs with more NCAs than maxPaths (level-3 pairs of
//    xgft3:8:8:8:4:4:2 have 32), whose lists are seeded per-pair draws;
//    adaptive jobs beside them on the same tree.
//  * replay shapes — the release order of closed-loop phases: alltoall:64
//    sends 63 flows per rank in one phase, shift:64 moves the closing rank
//    over 63 phases, and wrf256 sends up to two halo flows per rank.
//
// Regenerate a fixture ONLY for an intentional behaviour change:
//   ./build/campaign_cli --builtin smoke --seeds 2 --msg-scale 0.0625
//       --quiet --out tests/engine/data/smoke_campaign.csv   (one line)
//   ./build/campaign_cli --quiet
//       --out tests/engine/data/route_modes_campaign.csv -   (one line,
//       with the two lines of kRouteModesCampaign below on stdin)
//   ./build/campaign_cli --quiet
//       --out tests/engine/data/replay_shapes_campaign.csv -   (one line,
//       with the line of kReplayShapesCampaign below on stdin)
// and explain the change in the commit message.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "engine/campaigns.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

#ifndef XGFT_TESTS_DIR
#error "XGFT_TESTS_DIR must point at the source tests/ directory"
#endif

namespace engine {
namespace {

constexpr const char* kRouteModesCampaign =
    "topo=xgft3:8:8:8:4:4:2 source=poisson:uniform load=0.3 msg_scale=1 "
    "routing={spray,adaptive} seed=1\n"
    "topo=xgft3:8:8:8:4:4:2 pattern=cg128 msg_scale=0.0625 "
    "routing={spray,adaptive} seed=1\n";

constexpr const char* kReplayShapesCampaign =
    "pattern={wrf256,alltoall:64,shift:64} m1=16 m2=16 w2={16,4,1} "
    "routing={s-mod-k,d-mod-k,Random,colored,adaptive,spray} "
    "msg_scale=0.002 seed=1\n";

/// Runs @p specs at campaign_cli's defaults (contention on) and compares
/// the CSV with tests/engine/data/@p fixture.
void expectCsvMatchesFixture(const std::vector<ExperimentSpec>& specs,
                             const std::string& fixture) {
  const std::string path =
      std::string(XGFT_TESTS_DIR) + "/engine/data/" + fixture;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::ostringstream want;
  want << in.rdbuf();

  ASSERT_FALSE(specs.empty());
  const CampaignResults results = Runner(RunnerOptions{}).run(specs);
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << job.spec.toLine() << ": " << job.error;
  }
  EXPECT_EQ(results.toCsv(), want.str())
      << fixture << " drifted — if this is an intentional behaviour change, "
      << "regenerate it (see the comment at the top of this test)";
}

TEST(GoldenCampaign, SmokeCsvIsByteIdenticalToTheFixture) {
  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.0625};
  expectCsvMatchesFixture(parseCampaign(builtinCampaign("smoke", copt)),
                          "smoke_campaign.csv");
}

TEST(GoldenCampaign, RouteModesCsvIsByteIdenticalToTheFixture) {
  expectCsvMatchesFixture(parseCampaign(kRouteModesCampaign),
                          "route_modes_campaign.csv");
}

TEST(GoldenCampaign, ReplayShapesCsvIsByteIdenticalToTheFixture) {
  expectCsvMatchesFixture(parseCampaign(kReplayShapesCampaign),
                          "replay_shapes_campaign.csv");
}

}  // namespace
}  // namespace engine
