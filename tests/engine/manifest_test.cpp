// Tests for per-job run manifests: determinism across worker-thread counts
// (the contract engine/manifest.hpp pins with includeHost=false), the
// host-volatile fields gated by includeHost, the telemetry= spec key, and
// the invariant that telemetry never changes the campaign CSV.
#include "engine/manifest.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "obs/recorder.hpp"

namespace engine {
namespace {

std::vector<ExperimentSpec> smallCampaign() {
  return parseCampaign(
      "pattern=ring:64 msg_scale=0.0625 m1=8 m2=8 w2={4,2} "
      "routing={d-mod-k,Random} seed=1\n");
}

CampaignResults runWith(std::uint32_t threads, TelemetryLevel level) {
  RunnerOptions opt;
  opt.threads = threads;
  opt.telemetry = level;
  return Runner(opt).run(smallCampaign());
}

TEST(Manifest, ByteIdenticalAcrossThreadCountsWithoutHostFields) {
  ManifestOptions opt;
  opt.includeHost = false;
  const std::string one =
      manifestToJson(runWith(1, TelemetryLevel::kSummary), opt);
  const std::string three =
      manifestToJson(runWith(3, TelemetryLevel::kSummary), opt);
  EXPECT_EQ(one, three);
  EXPECT_NE(one.find("\"schema\": \"xgft-manifest-v1\""), std::string::npos);
  EXPECT_NE(one.find("\"telemetry\": {"), std::string::npos);
  // Host-volatile fields must be absent in the deterministic form.
  EXPECT_EQ(one.find("wall_ms"), std::string::npos);
  EXPECT_EQ(one.find("threads"), std::string::npos);
  EXPECT_EQ(one.find("events_per_sec"), std::string::npos);
  EXPECT_EQ(one.find("epoch"), std::string::npos);
  EXPECT_EQ(one.find("events_simulated"), std::string::npos);
}

TEST(Manifest, HostFieldsAppearWhenRequested) {
  const CampaignResults results = runWith(2, TelemetryLevel::kOff);
  std::ostringstream os;
  writeManifest(os, results, ManifestOptions{});  // includeHost defaults on.
  const std::string json = os.str();
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("wall_ms"), std::string::npos);
  EXPECT_NE(json.find("events_per_sec"), std::string::npos);
  EXPECT_NE(json.find("\"epochs_reused\": "), std::string::npos);
  EXPECT_NE(json.find("\"epochs_simulated\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"events_simulated\": "), std::string::npos);
  EXPECT_NE(json.find("\"epoch_memo_entries\": "), std::string::npos);
  EXPECT_NE(json.find("\"epoch_memo_bytes\": "), std::string::npos);
  // No recorder attached: no telemetry blocks.
  EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST(Manifest, EventsPerSecCountsOnlySimulatedEvents) {
  // A second run of a campaign reuses every epoch the first simulated: its
  // jobs report their events but handled none of them.
  RunnerOptions opt;
  opt.threads = 1;
  Runner runner(opt);
  (void)runner.run(smallCampaign());
  const CampaignResults again = runner.run(smallCampaign());
  for (const JobResult& job : again.jobs) {
    EXPECT_GT(job.net.eventsProcessed, 0u);
    EXPECT_EQ(job.eventsSimulated, 0u);
  }
  const std::string json = manifestToJson(again, ManifestOptions{});
  // Every job's value of @p key reads 0.
  const auto allZero = [&](const std::string& key) {
    const std::string field = "\"" + key + "\": ";
    std::size_t n = 0;
    for (std::size_t at = json.find(field); at != std::string::npos;
         at = json.find(field, at + 1), ++n) {
      const std::size_t value = at + field.size();
      if (json[value] != '0' || std::isdigit(json[value + 1]) != 0) {
        return false;
      }
    }
    return n == again.jobs.size();
  };
  EXPECT_TRUE(allZero("events_per_sec"));
  EXPECT_TRUE(allZero("events_simulated"));
  EXPECT_TRUE(allZero("epochs_simulated"));
}

TEST(Manifest, JobsAreOrderedAndKeyedBySpecLine) {
  const CampaignResults results = runWith(2, TelemetryLevel::kOff);
  const std::string json = manifestToJson(results, ManifestOptions{});
  // Job 0 (d-mod-k) must be rendered before job 1 (Random).
  const std::size_t first = json.find("\"job\": 0");
  const std::size_t second = json.find("\"job\": 1");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(json.find("routing=d-mod-k"), std::string::npos);
}

TEST(Manifest, FailedJobsCarryTheirError) {
  std::vector<ExperimentSpec> specs = smallCampaign();
  specs[0].routing = "no-such-scheme";
  RunnerOptions opt;
  opt.threads = 1;
  const CampaignResults results = Runner(opt).run(specs);
  ManifestOptions mopt;
  mopt.includeHost = false;
  const std::string json = manifestToJson(results, mopt);
  EXPECT_NE(json.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"error\": "), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST(Spec, TelemetryKeyRoundTrips) {
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=ring:16 m1=4 m2=4 w2=2 routing=d-mod-k telemetry=trace\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].telemetry, TelemetryLevel::kTrace);
  const std::string line = specs[0].toLine();
  EXPECT_NE(line.find("telemetry=trace"), std::string::npos);
  const std::vector<ExperimentSpec> reparsed = parseCampaign(line + "\n");
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0], specs[0]);
}

TEST(Spec, DefaultTelemetryIsOffAndOmittedFromTheLine) {
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=ring:16 m1=4 m2=4 w2=2 routing=d-mod-k\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].telemetry, TelemetryLevel::kOff);
  EXPECT_EQ(specs[0].toLine().find("telemetry"), std::string::npos);
}

TEST(Runner, TelemetryLevelNeverChangesTheCsv) {
  const std::string off = runWith(2, TelemetryLevel::kOff).toCsv();
  const std::string summary = runWith(2, TelemetryLevel::kSummary).toCsv();
  const std::string trace = runWith(2, TelemetryLevel::kTrace).toCsv();
  EXPECT_EQ(off, summary);
  EXPECT_EQ(off, trace);
}

TEST(Runner, TelemetryRecorderIsAttachedPerLevel) {
  const CampaignResults off = runWith(1, TelemetryLevel::kOff);
  for (const JobResult& job : off.jobs) EXPECT_EQ(job.telemetry, nullptr);

  const CampaignResults summary = runWith(1, TelemetryLevel::kSummary);
  for (const JobResult& job : summary.jobs) {
    ASSERT_NE(job.telemetry, nullptr);
    EXPECT_FALSE(job.telemetry->config().recordEvents);
    EXPECT_GT(job.telemetry->summary().samples, 0u);
  }

  const CampaignResults trace = runWith(1, TelemetryLevel::kTrace);
  for (const JobResult& job : trace.jobs) {
    ASSERT_NE(job.telemetry, nullptr);
    EXPECT_TRUE(job.telemetry->config().recordEvents);
    EXPECT_GT(job.telemetry->summary().eventsRecorded, 0u);
  }
}

}  // namespace
}  // namespace engine
