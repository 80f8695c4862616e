// Per-seed campaign execution, factored out of the thread-pool runner so the
// in-process pool (campaign::run) and the out-of-process worker shards
// (src/dist/, tools/esv-worker) execute seeds through exactly the same code
// path. Determinism across deployment shapes — any --jobs count, any
// --workers count, or the plain in-process runner — follows from this
// sharing: a SeedResult is a pure function of (CampaignConfig, seed)
// regardless of which process or thread computed it.
//
// Split of responsibilities:
//   prepare_campaign()    validate the whole configuration once (spec parse,
//                         fault-plan parse + resolve, property probe) and
//                         build the campaign's one front end; throws on
//                         configuration errors before any seed runs
//   SeedRunner            one per worker thread; runs seeds on the shared
//                         front end (and, in compiled mode, the shared
//                         monitor tables) with the bounded
//                         infrastructure-retry policy
//   make_report_skeleton  the config-echo half of a CampaignReport
//   finalize_report       deterministic aggregation over report.seeds in
//                         ascending seed order, metrics merge, and trace_dir
//                         file writing — shared by the pool and the broker
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "campaign/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "spec/specfile.hpp"

namespace esv::campaign {

/// The compiled program of a campaign: the mini-C AST and its lowering
/// (approach 2) or code image (approach 1). Defined in seed_runner.cpp.
struct VerifStack;
/// The campaign's compiled-mode monitor tables: empty until the first seed
/// that needs them builds them, once, under `once`; read-only after that.
struct SharedMonitorTables {
  std::once_flag once;
  std::unique_ptr<const sctc::MonitorTables> tables;
};

/// Validated, immutable, shareable campaign state. One instance serves every
/// worker thread of a process. Workers only read it; the one exception is
/// `monitors`, which the first seed that needs the tables fills, once and
/// under std::call_once.
struct CampaignSetup {
  spec::SpecFile specfile;
  fault::FaultPlan plan;  // merged --faults + spec fault lines, resolved
  std::vector<std::string> property_names;
  std::vector<std::string> proposition_names;
  /// FaultPlan::digest() of the resolved plan; empty on nominal campaigns.
  /// Stamped into SeedResult::fault_plan_digest of every errored seed so a
  /// crash report names the exact plan needed to reproduce it.
  std::string plan_digest;
  /// The one front end: every seed's interpreter or CPU reads it.
  std::shared_ptr<const VerifStack> stack;
  /// kCompiled only (null otherwise): one synthesis and compilation of the
  /// spec's properties per campaign, shared by every seed.
  std::shared_ptr<SharedMonitorTables> monitors;
};

/// Validates the configuration (approach, seed range, spec, program, fault
/// plan) and resolves everything that can fail before a single seed runs.
/// Throws spec::SpecError, minic::SemaError, fault::FaultPlanError,
/// std::invalid_argument, ... on configuration errors. Outside automaton
/// mode it synthesizes nothing: the property probe only parses and resolves
/// names.
CampaignSetup prepare_campaign(const CampaignConfig& config);

/// One per worker thread. Construction is free: seeds run on the setup's
/// shared front end, which no seed writes. Each seed builds its own memory,
/// simulation, stimulus and checker.
class SeedRunner {
 public:
  SeedRunner(const CampaignConfig& config, const CampaignSetup& setup)
      : config_(config), setup_(setup) {}
  SeedRunner(const SeedRunner&) = delete;
  SeedRunner& operator=(const SeedRunner&) = delete;

  /// Runs one seed under the bounded retry policy: infrastructure errors are
  /// retried up to config.seed_retries times, SUT faults and timeouts are
  /// results. Never throws; every failure is captured in the SeedResult.
  SeedResult run_seed(std::uint64_t seed);

 private:
  SeedResult run_attempt(std::uint64_t seed);

  const CampaignConfig& config_;
  const CampaignSetup& setup_;
};

/// Fills the configuration-echo fields of a report (seed range, approach,
/// mode, property names, fault-campaign header) and pre-sizes the seed slots.
CampaignReport make_report_skeleton(const CampaignConfig& config,
                                    const CampaignSetup& setup);

/// Aggregates report.seeds (which must hold one slot per seed, ascending) on
/// the calling thread: per-property tallies, merged coverage, totals, the
/// merged metrics snapshot, and the trace_dir files. Byte-identical output
/// for any schedule that produced the same per-seed results.
void finalize_report(const CampaignConfig& config, const CampaignSetup& setup,
                     CampaignReport& report);

}  // namespace esv::campaign
