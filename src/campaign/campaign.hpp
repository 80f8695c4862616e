// Multi-seed verification campaigns.
//
// The paper's simulation-based checking explores exactly one stimulus trace
// per run, so confidence comes from running *many* seeds — the campaign-style
// dynamic verification that statistical model checking of SystemC advocates
// (Ngo & Legay; Ngo, Legay & Quilbeuf). A campaign fans a seed range out over
// a pool of worker threads. Each seed builds its own simulation kernel, ESW
// model (or microprocessor model), memory, stimulus provider, and SCTC; the
// compiled program and (in compiled mode) the compiled monitor tables are
// built once per campaign and only read by the seeds. Seeds thus never
// share mutable state, and the per-seed results are independent of
// scheduling.
//
// Determinism guarantee: for a fixed (program, spec, approach, mode,
// max_steps, seed range), the verdict table, per-seed results, and merged
// coverage are identical for any jobs count. Every seed writes into a
// pre-sized slot indexed by (seed - seed_lo); aggregation walks the slots in
// seed order on the calling thread after all workers have joined. Only the
// wall-clock figures vary between runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sctc/checker.hpp"
#include "temporal/monitor.hpp"

namespace esv::campaign {

struct SeedResult;

struct CampaignConfig {
  std::string program_source;  // mini-C source text
  std::string spec_text;       // ESV spec-file text
  int approach = 2;            // 1 = microprocessor model, 2 = derived model
  /// The one default monitor mode; esv-verify and esv-client take theirs
  /// from here.
  sctc::MonitorMode mode = sctc::MonitorMode::kCompiled;
  std::uint64_t max_steps = 1'000'000;  // per-seed statement/cycle budget
  std::uint64_t seed_lo = 1;            // inclusive
  std::uint64_t seed_hi = 1;            // inclusive
  unsigned jobs = 1;                    // worker threads (clamped to >= 1)
  std::size_t witness_depth = 0;  // violation witness steps kept per seed

  // --- distributed execution (docs/DISTRIBUTED.md) ---
  /// Worker *processes* for the out-of-process broker
  /// (dist::run_distributed). 0 keeps the campaign in process; campaign::run
  /// itself always runs in process and ignores this field. Total parallelism
  /// of a distributed run is workers x jobs (processes x threads).
  unsigned workers = 0;
  /// esv-worker binary the broker spawns. Empty lets the broker fall back to
  /// dist::default_worker_binary() (ESV_WORKER_BIN or the sibling of the
  /// running executable).
  std::string worker_binary;

  // --- fault injection (docs/FAULTS.md) ---
  /// Fault-plan text (the --faults file). Parsed together with any `fault`
  /// lines embedded in the spec; both target the same plan. Empty plus an
  /// empty spec fault section means a nominal campaign.
  std::string fault_plan_text;
  /// Detailed fault-log records kept per seed (counts stay exact beyond
  /// the limit; 0 keeps every record).
  std::size_t fault_log_limit = 64;

  // --- observability (docs/OBSERVABILITY.md) ---
  /// Collect per-seed run metrics (kernel, checker, fault, stimulus
  /// counters) and merge them into CampaignReport::metrics. The merged
  /// snapshot is deterministic: byte-identical for any jobs count.
  bool collect_metrics = false;
  /// Keep each seed's JSONL event trace in SeedResult::trace_jsonl.
  bool capture_traces = false;
  /// When non-empty, also write every seed's trace to
  /// `<trace_dir>/seed_<N>.trace.jsonl` (the directory is created; files are
  /// written on the calling thread after the workers join, so their bytes
  /// are independent of scheduling). Implies capture_traces.
  std::string trace_dir;

  // --- hardening ---
  /// Per-seed wall-clock watchdog in seconds; a seed past the deadline is
  /// stopped and recorded with error_kind "timeout". 0 disables. Timeouts
  /// depend on the wall clock, so enabling the watchdog trades the
  /// cross-jobs determinism guarantee for liveness.
  double seed_timeout_seconds = 0.0;
  /// Bounded retries for seeds that die with an infrastructure error (not
  /// a fault of the software under test, not a timeout). The last attempt's
  /// result is kept; SeedResult::attempts records how many ran. Retries
  /// wait out a short exponential backoff between attempts.
  unsigned seed_retries = 0;
  /// Whole-campaign wall-clock deadline in seconds (--campaign-timeout);
  /// past it the run aborts in a structured way: every unfinished seed is
  /// captured as a deterministic "infrastructure" error naming the deadline
  /// and CampaignReport::deadline_exceeded is set (esv-verify exits 3).
  /// 0 disables. Orchestrator-side only: never crosses the wire to workers
  /// and is excluded from the journal config digest, so an aborted run can
  /// be resumed with a fresh (or no) deadline. Like seed_timeout_seconds,
  /// enabling it trades cross-run determinism for a bounded wall clock.
  double campaign_timeout_seconds = 0.0;
  /// Cooperative cancellation (esv-serve's cancel frame; any embedder can
  /// use it). When set and flipped true, workers stop claiming new seeds —
  /// a seed already running finishes, mirroring the campaign deadline —
  /// every unfinished seed is captured as a deterministic "infrastructure"
  /// error and CampaignReport::cancelled is set. Orchestrator-side only:
  /// never crosses the wire to workers and is excluded from the journal
  /// config digest (like campaign_timeout_seconds, it can abort a run but
  /// never changes a completed seed's bytes). Null means not cancellable.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Per-seed address-space ceiling in MiB, enforced by esv-worker via
  /// RLIMIT_AS around seed execution (distributed runs only; the in-process
  /// runner ignores it because a process-wide limit would also cap the
  /// orchestrator). A seed past the ceiling records a structured "sut"
  /// error capture instead of killing the whole shard. 0 disables.
  std::uint64_t seed_mem_limit_mb = 0;

  // --- checkpointing (docs/JOURNAL.md) -----------------------------------
  // Neither field crosses the wire: the journal lives with the orchestrator.
  /// When set, invoked once per freshly computed SeedResult, after the seed
  /// finishes and before the campaign completes — the write-ahead journal's
  /// hook. In-process runs call it from worker threads (callee serializes);
  /// the broker calls it from its event loop before acking the RESULT.
  /// Never called for resume_results. Must not throw.
  std::function<void(const SeedResult&)> on_result;
  /// Seeds already completed by a previous interrupted run (recovered from
  /// a journal). Slots for these seeds are pre-filled and skipped; results
  /// whose seed falls outside [seed_lo, seed_hi] are ignored.
  std::vector<SeedResult> resume_results;
};

/// Per-property outcome of one seed.
struct PropertyOutcome {
  temporal::Verdict verdict = temporal::Verdict::kPending;
  std::uint64_t decided_at_step = 0;  // 0 while pending
  /// Robustness classification; kNotApplicable on nominal (fault-free) runs.
  sctc::FaultClass fault_class = sctc::FaultClass::kNotApplicable;
};

/// Everything one seed produced. `properties` is index-aligned with
/// CampaignReport::property_names, `prop_true_counts` with
/// CampaignReport::coverage.
struct SeedResult {
  std::uint64_t seed = 0;
  std::vector<PropertyOutcome> properties;
  std::uint64_t steps = 0;       // temporal steps taken by the checker
  std::uint64_t statements = 0;  // executed statements (a2) / cycles (a1)
  std::uint64_t draws = 0;       // stimulus values drawn
  bool finished = false;         // SUT ran to completion within the budget
  std::string error;    // non-empty if the run aborted (assertion, trap, ...)
  /// Error taxonomy, empty when error is empty:
  ///   "sut"            — fault of the software under test (assertion,
  ///                      runtime fault, memory fault, CPU trap)
  ///   "timeout"        — the per-seed watchdog stopped the run
  ///   "infrastructure" — anything else that escaped the verification
  ///                      stack; eligible for bounded retry
  std::string error_kind;
  unsigned attempts = 1;  // runs of this seed (> 1 after retries)
  std::string witness;  // violation witness table (witness_depth > 0 only)
  std::vector<std::uint64_t> prop_true_counts;
  std::uint64_t injected_faults = 0;  // faults injected into this seed's run
  std::string fault_log;  // deterministic rendered fault log (may truncate)
  /// FaultPlan::digest() of the active plan, recorded when the seed errored
  /// in a fault campaign: the (digest, seed) pair makes any crash report —
  /// local or shipped back from a remote worker — reproducible with one
  /// `esv-verify --seed=N --faults=PLAN` run against the matching plan file.
  std::string fault_plan_digest;
  /// Per-seed metrics snapshot (collect_metrics only). Deterministic.
  obs::MetricsSnapshot metrics;
  /// Per-seed JSONL event trace (capture_traces / trace_dir only).
  /// Deterministic: contains no wall-clock data.
  std::string trace_jsonl;
  double wall_ms = 0.0;  // timing only; excluded from deterministic output
};

/// Per-property verdict tally over all seeds.
struct PropertyAggregate {
  std::string name;
  std::uint64_t validated = 0;
  std::uint64_t violated = 0;
  std::uint64_t pending = 0;  // pending at budget
  std::optional<std::uint64_t> first_violation_seed;
  // Fault-campaign classification tallies (zero on nominal campaigns).
  std::uint64_t held_under_fault = 0;
  std::uint64_t violated_under_fault = 0;
  std::uint64_t monitor_errors = 0;
};

/// Merged proposition coverage: in how many of the campaign's temporal steps
/// (summed over every seed) was the proposition true.
struct PropositionCoverage {
  std::string name;
  std::uint64_t true_steps = 0;
  std::uint64_t total_steps = 0;
  double percent() const {
    return total_steps == 0
               ? 0.0
               : 100.0 * static_cast<double>(true_steps) /
                     static_cast<double>(total_steps);
  }
};

struct CampaignReport {
  // Configuration echo (jobs affects only timing, never results).
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 0;
  int approach = 2;
  sctc::MonitorMode mode = CampaignConfig{}.mode;
  std::uint64_t max_steps = 0;
  unsigned jobs = 1;

  std::vector<std::string> property_names;
  std::vector<SeedResult> seeds;  // ascending seed order, one slot per seed
  std::vector<PropertyAggregate> per_property;
  std::vector<PropositionCoverage> coverage;

  std::uint64_t validated_total = 0;  // over seeds x properties
  std::uint64_t violated_total = 0;
  std::uint64_t pending_total = 0;
  std::uint64_t violated_seeds = 0;  // seeds with >= 1 violated property
  std::uint64_t error_seeds = 0;     // seeds whose run aborted
  std::uint64_t timeout_seeds = 0;   // subset of error_seeds: watchdog hits
  std::uint64_t retried_seeds = 0;   // seeds that needed more than 1 attempt

  // Fault-campaign totals (fault_campaign == false on nominal runs).
  bool fault_campaign = false;
  std::uint64_t fault_plan_entries = 0;
  std::uint64_t injected_faults_total = 0;
  std::uint64_t held_under_fault_total = 0;
  std::uint64_t violated_under_fault_total = 0;
  std::uint64_t monitor_error_total = 0;

  // Merged per-seed metrics (collect_metrics only). Merging walks the seed
  // slots in ascending order on the calling thread; the snapshot renders
  // byte-identically for any jobs count.
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;

  // --- distributed-run operational data (docs/DISTRIBUTED.md) ---
  // Everything below is timing-class information: it describes how the run
  // was executed, never what it computed, and is excluded from every
  // deterministic rendering so distributed and in-process reports stay
  // byte-identical.
  bool distributed = false;
  unsigned workers = 0;  // worker processes (distributed runs only)
  /// Broker-side `dist.*` counters (frames, bytes, steals, respawns, queue
  /// depth) plus per-worker counters merged from METRICS frames.
  obs::MetricsSnapshot dist_metrics;
  /// Worker lifecycle JSONL (spawn/exit/respawn/timeout events).
  std::string dist_events_jsonl;
  /// The campaign finished in-process after every worker slot died with no
  /// respawn budget left (docs/RESILIENCE.md "graceful degradation"). The
  /// per-seed results are unaffected; only this flag and timing differ.
  bool degraded = false;
  /// campaign_timeout_seconds elapsed before every seed finished; the
  /// unfinished seeds hold deterministic deadline captures (error_kind
  /// "infrastructure") and esv-verify exits 3.
  bool deadline_exceeded = false;
  /// CampaignConfig::cancel flipped true before every seed finished; the
  /// unfinished seeds hold deterministic cancellation captures (error_kind
  /// "infrastructure").
  bool cancelled = false;
  /// Self-chaos (--chaos, docs/RESILIENCE.md): orchestrator-side chaos.*
  /// counters and the chaos_injected event JSONL. Worker-side chaos
  /// counters ride home inside dist_metrics instead. Operational only —
  /// rendered in the timing section, never in deterministic output.
  obs::MetricsSnapshot chaos_metrics;
  std::string chaos_events_jsonl;

  std::uint64_t total_steps = 0;
  std::uint64_t total_statements = 0;
  std::uint64_t total_draws = 0;
  double wall_seconds = 0.0;  // timing only

  std::uint64_t seed_count() const { return seed_hi - seed_lo + 1; }
  bool any_violated() const { return violated_total > 0; }
  double seeds_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(seed_count()) / wall_seconds
               : 0.0;
  }

  /// Deterministic multi-line result table: per-seed verdict rows, the
  /// per-property tally, and merged coverage. Contains no timing and no
  /// jobs count, so it is bit-identical across jobs settings.
  std::string verdict_table() const;
  /// Deterministic one-paragraph tally (the --quiet output).
  std::string summary() const;
  /// JSON report. With include_timing=false the wall-clock fields (and the
  /// jobs count) are omitted and the output is bit-identical across jobs
  /// settings; the schema is documented in docs/CAMPAIGN.md.
  std::string to_json(bool include_timing = true) const;
};

/// Runs the campaign. Throws (spec::SpecError, minic::SemaError,
/// std::invalid_argument, ...) on configuration errors — a malformed spec or
/// program fails before any worker starts. Per-seed faults of the software
/// under test (assertion failures, CPU traps, memory faults) do not abort
/// the campaign; they are recorded in SeedResult::error.
CampaignReport run(const CampaignConfig& config);

}  // namespace esv::campaign
