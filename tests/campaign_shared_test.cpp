// One front end and one set of compiled monitor tables per campaign: every
// worker thread reads the same compiled program, and in compiled mode the
// first seed that needs the monitor tables builds them once for all seeds.
// The jobs=8 test is the one to run under -DESV_TSAN=ON; its `unit-campaign`
// label keeps it in check-fast as well as in `ctest -L campaign`.
#include <gtest/gtest.h>

#include <string>

#include "campaign/campaign.hpp"
#include "campaign/seed_runner.hpp"

namespace esv::campaign {
namespace {

const char* kCounter = R"(
int x;
int cycles;
void main(void) {
  while (cycles < 120) {
    x = __in(x);
    cycles = cycles + 1;
  }
}
)";

const char* kCounterSpec = R"(
input x 0 7
prop low  = x < 4
prop high = x >= 4
prop done = cycles >= 120
check covers: G (low || high)
check swings: G (low -> F[6] high)
check ends: F done
)";

CampaignConfig counter_config(std::uint64_t hi, unsigned jobs) {
  CampaignConfig config;
  config.program_source = kCounter;
  config.spec_text = kCounterSpec;
  config.seed_hi = hi;
  config.jobs = jobs;
  return config;
}

/// The report renderings with the mode echo rewritten to `progression`, so
/// runs that differ only in the monitor mode compare byte for byte.
std::string without_mode(const CampaignReport& report, bool json) {
  std::string text = json ? report.to_json(false) : report.verdict_table();
  const std::string from = std::string(json ? "\"mode\": \"" : "mode=") +
                           sctc::monitor_mode_name(report.mode);
  const std::string to =
      std::string(json ? "\"mode\": \"" : "mode=") + "progression";
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(SharedCampaignTest, CompiledIsTheDefaultMode) {
  EXPECT_EQ(CampaignConfig{}.mode, sctc::MonitorMode::kCompiled);
  EXPECT_EQ(CampaignReport{}.mode, sctc::MonitorMode::kCompiled);
}

TEST(SharedCampaignTest, TablesAreBuiltByTheFirstSeedNotBySetup) {
  const CampaignConfig config = counter_config(4, 1);
  const CampaignSetup setup = prepare_campaign(config);
  ASSERT_NE(setup.stack, nullptr);
  ASSERT_NE(setup.monitors, nullptr);
  SeedRunner first(config, setup);
  SeedRunner second(config, setup);
  // Neither the probe nor the runners synthesized anything.
  EXPECT_EQ(setup.monitors->tables, nullptr);

  const SeedResult one = first.run_seed(1);
  ASSERT_TRUE(one.error.empty()) << one.error;
  const sctc::MonitorTables* built = setup.monitors->tables.get();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->size(), 3u);
  const SeedResult two = second.run_seed(2);
  ASSERT_TRUE(two.error.empty()) << two.error;
  EXPECT_EQ(setup.monitors->tables.get(), built);  // built once, then shared
}

TEST(SharedCampaignTest, OnlyCompiledModeSharesTables) {
  for (const sctc::MonitorMode mode :
       {sctc::MonitorMode::kProgression,
        sctc::MonitorMode::kSynthesizedAutomaton, sctc::MonitorMode::kBoth}) {
    CampaignConfig config = counter_config(2, 1);
    config.mode = mode;
    const CampaignSetup setup = prepare_campaign(config);
    EXPECT_NE(setup.stack, nullptr) << sctc::monitor_mode_name(mode);
    EXPECT_EQ(setup.monitors, nullptr) << sctc::monitor_mode_name(mode);
  }
}

TEST(SharedCampaignTest, JobsEightOnSharedFrontEndAndTablesMatchesJobsOne) {
  const CampaignReport serial = run(counter_config(48, 1));
  const CampaignReport parallel = run(counter_config(48, 8));
  EXPECT_EQ(parallel.jobs, 8u);
  EXPECT_EQ(serial.error_seeds, 0u);
  EXPECT_EQ(serial.verdict_table(), parallel.verdict_table());
  EXPECT_EQ(serial.to_json(false), parallel.to_json(false));

  CampaignConfig progression = counter_config(48, 8);
  progression.mode = sctc::MonitorMode::kProgression;
  const CampaignReport reference = run(progression);
  EXPECT_EQ(without_mode(parallel, false), without_mode(reference, false));
  EXPECT_EQ(without_mode(parallel, true), without_mode(reference, true));
}

// --- limits fall back to progression ----------------------------------------

/// A spec over `count` propositions p0..p{count-1} (p_i: x == i % 8) plus
/// the given checks.
std::string many_props_spec(int count, const std::string& checks) {
  std::string spec = "input x 0 7\n";
  for (int i = 0; i < count; ++i) {
    spec += "prop p" + std::to_string(i) + " = x == " +
            std::to_string(i % 8) + "\n";
  }
  return spec + checks;
}

void expect_progression_verdicts(const std::string& spec) {
  CampaignConfig config = counter_config(6, 2);
  config.spec_text = spec;
  const CampaignReport compiled = run(config);
  EXPECT_EQ(compiled.mode, sctc::MonitorMode::kCompiled);
  config.mode = sctc::MonitorMode::kProgression;
  const CampaignReport reference = run(config);
  EXPECT_EQ(compiled.error_seeds, 0u);
  EXPECT_EQ(without_mode(compiled, false), without_mode(reference, false));
  EXPECT_EQ(without_mode(compiled, true), without_mode(reference, true));
}

TEST(SharedCampaignTest, SeventeenPropositionPropertyFallsBack) {
  // More than 16 propositions: synthesis refuses the alphabet.
  std::string any = "check any: G (p0";
  for (int i = 1; i < 17; ++i) any += " || p" + std::to_string(i);
  any += ")\ncheck swing: G (p0 -> F[12] p1)\n";
  expect_progression_verdicts(many_props_spec(17, any));
}

TEST(SharedCampaignTest, PropositionIndex64FallsBack) {
  // p64 is factory index 64, past the 64-bit proposition word.
  expect_progression_verdicts(many_props_spec(
      65, "check late: G (p64 -> F[12] p1)\ncheck early: F p3\n"));
}

}  // namespace
}  // namespace esv::campaign
