// Campaign-level monitor-mode oracle: the default mode (compiled, on the
// campaign's shared tables) must report exactly what formula progression
// reports, on every shipped study and both approaches, at any jobs count.
// The two renderings are compared byte for byte after rewriting the mode
// echo, the one field that is meant to differ.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "casestudy/eeprom.hpp"

namespace esv::campaign {
namespace {

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(ESV_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The EEPROM case study as a campaign spec: one G-shaped bounded response
/// per operation, over the propositions register_operation_propositions
/// would register. The campaign maps no flash controller, so each seed
/// stops with a memory fault at the first flash access; the verdicts and
/// the error capture up to that point must still agree.
std::string eeprom_spec() {
  std::string spec = "input op_select 0 7\ninput inject_fault chance 1 50\n";
  for (const casestudy::OperationSpec& op : casestudy::eeprom_operations()) {
    spec += "prop " + op.name + " = fname == " + op.function + "\n";
    for (const std::uint32_t code : op.return_codes) {
      const std::string name = casestudy::eee_code_name(code);
      spec += "prop " + op.name + "_" + name + " = " + op.ret_global +
              " == " + name + "\n";
    }
  }
  for (const casestudy::OperationSpec& op : casestudy::eeprom_operations()) {
    spec += "check " + op.name + ": " +
            casestudy::response_property(op, 200) + "\n";
  }
  return spec;
}

std::string with_progression_echo(std::string text, const std::string& key,
                                  sctc::MonitorMode mode) {
  const std::string from = key + sctc::monitor_mode_name(mode);
  const std::size_t at = text.find(from);
  if (at != std::string::npos) {
    text.replace(at, from.size(), key + "progression");
  }
  return text;
}

struct Study {
  std::string name;
  std::string program;
  std::string spec;
  int approach;
};

void expect_default_matches_progression(const Study& study) {
  CampaignConfig config;
  config.program_source = study.program;
  config.spec_text = study.spec;
  config.approach = study.approach;
  config.seed_lo = 1;
  config.seed_hi = 8;
  const sctc::MonitorMode default_mode = config.mode;

  config.mode = sctc::MonitorMode::kProgression;
  config.jobs = 1;
  const CampaignReport reference = run(config);
  const std::string table = reference.verdict_table();
  const std::string json = reference.to_json(false);

  config.mode = default_mode;
  for (const unsigned jobs : {1u, 4u}) {
    config.jobs = jobs;
    const CampaignReport report = run(config);
    EXPECT_EQ(with_progression_echo(report.verdict_table(), "mode=",
                                    default_mode),
              table)
        << study.name << " approach " << study.approach << " jobs " << jobs;
    EXPECT_EQ(with_progression_echo(report.to_json(false), "\"mode\": \"",
                                    default_mode),
              json)
        << study.name << " approach " << study.approach << " jobs " << jobs;
  }
}

TEST(ModeOracleTest, DefaultModeMatchesProgressionOnEveryStudy) {
  ASSERT_EQ(CampaignConfig{}.mode, sctc::MonitorMode::kCompiled);
  for (const char* name :
       {"blinker", "sensor_debounce", "osek_scheduler", "can_transport"}) {
    const Study study{name, read_data(std::string(name) + ".c"),
                      read_data(std::string(name) + ".esv"), 2};
    ASSERT_FALSE(study.program.empty()) << name;
    expect_default_matches_progression(study);
  }
  expect_default_matches_progression(
      {"eeprom", casestudy::eeprom_emulation_source(), eeprom_spec(), 2});
}

TEST(ModeOracleTest, DefaultModeMatchesProgressionOnApproachOne) {
  // osek_scheduler and can_transport carry statement-granularity bounds
  // that are meant to fail at clock granularity, so approach 1 runs the two
  // studies whose specs hold under it.
  for (const char* name : {"blinker", "sensor_debounce"}) {
    const Study study{name, read_data(std::string(name) + ".c"),
                      read_data(std::string(name) + ".esv"), 1};
    expect_default_matches_progression(study);
  }
}

}  // namespace
}  // namespace esv::campaign
