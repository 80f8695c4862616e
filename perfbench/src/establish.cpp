// `perfbench establish`: derives expected.tsv by cross-check instead of by
// reading back a single run.
//
//   * every kind runs its seed pool under both the progression and the
//     compiled monitor mode; verdicts, steps and statements must agree;
//   * approach 1 (microprocessor) and approach 2 (derived) must agree on the
//     verdicts of every clock-free property (no F[n] bound) of the studies
//     they share.
//
// Any disagreement is printed and the file is not written.
#include <fstream>
#include <iostream>
#include <regex>

#include "common.hpp"
#include "spec/specfile.hpp"

namespace perfbench {

namespace campaign = esv::campaign;

namespace {

/// Campaign threads of each seed-pool run, at most nproc (4).
constexpr unsigned kThreads = 4;

campaign::CampaignReport run_pool(const CampaignKind& kind, const Study& study,
                                  esv::sctc::MonitorMode mode) {
  campaign::CampaignConfig config =
      make_config(kind, study, 1, kSeedPool, kThreads);
  config.mode = mode;
  return campaign::run(config);
}

}  // namespace

int establish_expected(const std::string& data_dir, const std::string& out) {
  ExpectedTable table;
  int disagreements = 0;
  static const std::regex time_bounded(R"(\[\s*[0-9])");

  for (const CampaignKind& kind : campaign_kinds()) {
    for (const Study& study : load_kind_studies(kind, data_dir)) {
      const campaign::CampaignReport progression =
          run_pool(kind, study, esv::sctc::MonitorMode::kProgression);
      const campaign::CampaignReport compiled =
          run_pool(kind, study, esv::sctc::MonitorMode::kCompiled);
      for (std::size_t i = 0; i < progression.seeds.size(); ++i) {
        const campaign::SeedResult& a = progression.seeds[i];
        const campaign::SeedResult& b = compiled.seeds[i];
        if (!a.error.empty() || !b.error.empty() ||
            verdict_letters(a) != verdict_letters(b) || a.steps != b.steps ||
            a.statements != b.statements) {
          ++disagreements;
          std::cerr << kind.name << "/" << study.name << " seed " << a.seed
                    << ": progression " << verdict_letters(a) << " "
                    << a.steps << " " << a.statements << " " << a.error
                    << " vs compiled " << verdict_letters(b) << " " << b.steps
                    << " " << b.statements << " " << b.error << "\n";
          continue;
        }
        table.put(kind.name, study.name, a.seed,
                  {verdict_letters(a), a.steps, a.statements});
      }
      std::cerr << "establish: " << kind.name << "/" << study.name << " "
                << progression.seeds.size() << " seeds, modes agree\n";
    }
  }

  // Approach 1 vs approach 2 on the clock-free properties.
  const CampaignKind& micro = campaign_kind("microprocessor");
  for (const Study& study : load_kind_studies(micro, data_dir)) {
    const esv::spec::SpecFile spec = esv::spec::parse_spec(study.spec);
    for (std::uint64_t seed = 1; seed <= kSeedPool; ++seed) {
      const Expected* a1 = table.find(micro.name, study.name, seed);
      const Expected* a2 = table.find("derived", study.name, seed);
      if (a1 == nullptr || a2 == nullptr) continue;
      for (std::size_t p = 0; p < spec.properties.size(); ++p) {
        if (std::regex_search(spec.properties[p].text, time_bounded)) continue;
        if (a1->verdicts[p] != a2->verdicts[p]) {
          ++disagreements;
          std::cerr << study.name << " seed " << seed << " property "
                    << spec.properties[p].name << ": approach 1 "
                    << a1->verdicts[p] << " vs approach 2 " << a2->verdicts[p]
                    << "\n";
        }
      }
    }
    std::cerr << "establish: " << study.name
              << " approach 1 vs 2 checked on clock-free properties\n";
  }

  if (disagreements != 0) {
    std::cerr << "establish: " << disagreements
              << " disagreements; expected answers not written\n";
    return 1;
  }
  std::ofstream file(out, std::ios::trunc);
  file << table.render();
  if (!file) {
    std::cerr << "establish: cannot write " << out << "\n";
    return 1;
  }
  std::cerr << "establish: wrote " << out << "\n";
  return 0;
}

}  // namespace perfbench
