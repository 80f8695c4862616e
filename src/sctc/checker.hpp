// TemporalChecker: the SystemC Temporal Checker (SCTC) core.
//
// The checker owns a set of named Propositions and a set of temporal
// properties (FLTL or PSL). On every trigger — a microprocessor clock edge in
// the paper's first approach, the derived model's program-counter event in
// the second — it evaluates all propositions once and advances every pending
// property monitor by one temporal step.
//
// Monitors run in one of four modes, which produce identical verdicts:
//   kProgression           — lazy formula rewriting, no build cost (the
//                            "interpreted" mode)
//   kSynthesizedAutomaton  — the paper's pipeline: the property is translated
//                            into an AR-automaton (IL) ahead of time; each
//                            step is then a table lookup. Generation time is
//                            part of the reported verification time, which is
//                            why the paper's TB-10000 column is dominated by
//                            AR-automaton generation.
//   kCompiled              — the AR-automaton lowered further into flat
//                            transition tables (temporal/compiled.hpp):
//                            propositions are evaluated once per step into a
//                            uint64_t word, each monitor step is one dense
//                            state x word-class lookup, and steady-state
//                            stepping performs zero heap allocations. The
//                            tables can be built once and shared by many
//                            checkers (use_monitor_tables). The default
//                            mode of campaigns and esv-verify.
//   kBoth                  — interpreted and compiled monitors run in
//                            lockstep; any verdict or obligation divergence
//                            between them is recorded as a first-class
//                            monitor error (docs/MONITORS.md). The verdicts
//                            reported are the interpreted oracle's.
//
// kCompiled and kBoth monitor a property by progression alone when its
// synthesis or compilation hits a limit (more than 16 propositions, more
// than 2M automaton states, or a proposition index beyond the 64-bit word);
// the verdicts are the same either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sctc/monitor_tables.hpp"
#include "sctc/proposition.hpp"
#include "sim/kernel.hpp"
#include "sim/module.hpp"
#include "temporal/automaton.hpp"
#include "temporal/compiled.hpp"
#include "temporal/monitor.hpp"
#include "temporal/parser.hpp"

namespace esv::sctc {

enum class MonitorMode : std::uint8_t {
  kProgression,
  kSynthesizedAutomaton,
  kCompiled,
  kBoth,
};

/// Stable lower-case mode name ("progression" / "automaton" / "compiled" /
/// "both"), used by reports, the wire protocol, and the CLI.
const char* monitor_mode_name(MonitorMode mode);

/// Parses a mode name. Accepts the canonical names plus "interpreted" as an
/// alias for progression (the --monitor-mode spelling). Returns nullopt for
/// anything else.
std::optional<MonitorMode> parse_monitor_mode(std::string_view name);

/// Robustness classification of a property verdict under fault injection.
/// Fault campaigns use it to separate software robustness bugs from
/// expected degradation:
///   kHeldUnderFault     — validated, or still undecided when the run ended
///                         cleanly: the property survived the faults
///   kViolatedUnderFault — the monitor reached a definitive violation while
///                         faults were being injected
///   kMonitorError       — the run aborted (SUT fault, watchdog timeout,
///                         infrastructure error) before the monitor decided;
///                         the verdict is unusable, not a property result
enum class FaultClass {
  kNotApplicable,  // nominal run, no faults configured
  kHeldUnderFault,
  kViolatedUnderFault,
  kMonitorError,
};

/// Classifies a final verdict from a fault-injection run. `run_errored` is
/// true when the run aborted before completing (error or timeout).
FaultClass classify_under_fault(temporal::Verdict verdict, bool run_errored);

/// Stable lower-case name ("held", "violated", "monitor-error", "n/a").
const char* fault_class_name(FaultClass fault_class);

/// Per-property state and result.
struct PropertyRecord {
  std::string name;
  std::string text;
  temporal::Dialect dialect = temporal::Dialect::kFltl;
  temporal::FormulaRef formula = nullptr;

  // Active monitors depend on the checker's mode: progression alone
  // (kProgression), automaton + automaton_monitor (kSynthesizedAutomaton),
  // compiled alone (kCompiled), or progression + compiled in lockstep
  // (kBoth). A property whose compilation fell back has progression alone.
  std::unique_ptr<temporal::ProgressionMonitor> progression;
  std::unique_ptr<temporal::ArAutomaton> automaton;
  std::unique_ptr<temporal::AutomatonMonitor> automaton_monitor;
  temporal::CompiledMonitor compiled;
  /// kBoth only: the compiled fast path disagreed with the interpreted
  /// oracle at some step. The reported verdict stays the oracle's; the
  /// divergence itself is surfaced through TemporalChecker::divergences().
  bool diverged = false;

  /// Steps consumed when the verdict became final (0 while pending).
  std::uint64_t decided_at_step = 0;
  /// Simulation time when the verdict became final.
  sim::Time decided_at_time;
  /// AR-automaton size (synthesized and compiled modes; 0 on a fallback).
  std::size_t automaton_states = 0;
  /// Last AR-automaton state id written to the trace (tracing only).
  std::uint32_t traced_state = UINT32_MAX;
  /// The reported verdict, kept by the checker: the oracle's in kBoth mode,
  /// otherwise the active monitor's.
  temporal::Verdict reported = temporal::Verdict::kPending;

  temporal::Verdict verdict() const { return reported; }
};

class TemporalChecker : public sim::Module {
 public:
  TemporalChecker(sim::Simulation& sim, std::string name,
                  MonitorMode mode = MonitorMode::kProgression);
  ~TemporalChecker() override;

  MonitorMode mode() const { return mode_; }

  /// Registers a named proposition. Properties refer to propositions by
  /// these names. Re-registering a name replaces the proposition.
  void register_proposition(const std::string& name,
                            std::unique_ptr<Proposition> proposition);
  /// Convenience: registers a LambdaProposition.
  void register_proposition(const std::string& name,
                            std::function<bool()> predicate);
  bool has_proposition(const std::string& name) const;

  /// Parses and instantiates a property monitor. Every proposition the
  /// property mentions must already be registered (throws std::runtime_error
  /// otherwise). Returns the property index.
  ///
  /// In kCompiled mode with tables attached (use_monitor_tables) the
  /// monitor is a run over the shared tables; otherwise the property is
  /// synthesized and compiled here.
  std::size_t add_property(const std::string& name, const std::string& text,
                           temporal::Dialect dialect = temporal::Dialect::kFltl);

  /// kCompiled only: properties added from now on run on `tables` instead
  /// of being synthesized per checker. Property i of this checker must be
  /// property i of the tables, over the same proposition indices (throws
  /// std::logic_error from add_property otherwise). The tables must outlive
  /// the checker.
  void use_monitor_tables(const MonitorTables* tables);

  /// Binds the checker to a trigger event: a method process steps all
  /// monitors every time the event fires.
  void bind_trigger(sim::Event& trigger);

  /// Advances every pending monitor by one temporal step (called by the
  /// trigger, or manually in tests).
  void step_all();

  /// If set, the simulation stops as soon as any property is violated.
  void set_stop_on_violation(bool stop) { stop_on_violation_ = stop; }

  // --- observability (docs/OBSERVABILITY.md) ---
  /// Attaches a metrics registry: the checker bumps `sctc.steps`,
  /// `sctc.prop_changes`, `sctc.monitor_transitions`, `sctc.validated` /
  /// `sctc.violated`, and records decision steps into the
  /// `sctc.decide_step` histogram. Counter references are cached here, so
  /// the per-step cost is a handful of relaxed atomic adds. Pass nullptr to
  /// detach.
  void set_metrics(obs::MetricsRegistry* metrics);
  /// Attaches a JSONL tracer recording proposition value changes, monitor
  /// verdict transitions, and (in synthesized-automaton mode) AR-automaton
  /// state movement. Pass nullptr to detach.
  void set_trace(obs::TraceWriter* trace) { trace_ = trace; }

  /// Resets all monitors to their initial state (verdicts and step counts
  /// are cleared; propositions keep their own state).
  void reset_monitors();

  // --- differential oracle (kBoth; docs/MONITORS.md) ---
  /// Number of properties whose compiled monitor diverged from the
  /// interpreted oracle. Always 0 outside kBoth mode; any non-zero count is
  /// a monitor implementation bug, never a property result.
  std::size_t divergence_count() const { return divergences_.size(); }
  /// One deterministic description per diverged property (first divergence
  /// wins; later steps of an already-diverged monitor are not re-reported).
  const std::vector<std::string>& divergences() const { return divergences_; }
  /// Test hook: forces a property's compiled monitor into the given state so
  /// the divergence reporting path can be exercised (kCompiled/kBoth only).
  void corrupt_compiled_for_test(std::size_t property_index,
                                 std::uint32_t state);

  // --- results ---
  const std::vector<PropertyRecord>& properties() const { return properties_; }
  std::uint64_t steps() const { return steps_; }
  std::size_t pending_count() const { return pending_; }
  std::size_t validated_count() const;
  std::size_t violated_count() const;
  bool any_violated() const { return violated_count() > 0; }
  bool all_decided() const { return pending_ == 0; }

  /// Multi-line result table.
  std::string report() const;

  // --- proposition coverage ---
  /// Number of steps in which the proposition with the given factory index
  /// evaluated to true (since construction / the last reset_monitors()).
  /// Campaign runs merge these counts across seeds into a stimulus-coverage
  /// figure: a proposition that is never (or always) true points at a
  /// constraint set that cannot exercise the property.
  std::uint64_t proposition_true_count(int prop_index) const;
  /// Names of all registered propositions, in factory index order.
  std::vector<std::string> registered_proposition_names() const;
  /// True counts for all registered propositions, aligned index-by-index
  /// with registered_proposition_names().
  std::vector<std::uint64_t> registered_proposition_true_counts() const;

  /// The formula factory (exposed for tests and tooling, e.g. IL dumps).
  temporal::FormulaFactory& factory() { return factory_; }

  // --- witness traces ---
  /// Keeps a ring buffer of the last `depth` proposition valuations (0
  /// disables, the default). When a property is violated, the buffer shows
  /// the steps leading into the violation. Once full, recording a step
  /// overwrites the oldest slot in place and allocates nothing.
  void set_witness_depth(std::size_t depth);
  /// One recorded step: (step number, proposition values by factory index).
  struct WitnessStep {
    std::uint64_t step;
    sim::Time time;
    std::vector<bool> values;
  };
  /// The recorded steps, oldest first (a copy of the ring).
  std::vector<WitnessStep> witness() const;
  /// Renders the witness buffer as a small waveform-style table.
  std::string witness_table() const;

 private:
  temporal::PropValuation make_valuation();
  void evaluate_propositions();
  void record_witness();
  void compare_lockstep(PropertyRecord& record, temporal::Verdict oracle);
  /// The verdict of the record's active monitor (the oracle's in kBoth).
  static temporal::Verdict monitor_verdict(const PropertyRecord& record);

  MonitorMode mode_;
  temporal::FormulaFactory factory_;
  temporal::CompiledTables compiled_tables_;  // this checker's own tables
  const MonitorTables* shared_tables_ = nullptr;
  std::vector<std::unique_ptr<Proposition>> propositions_by_index_;
  std::vector<PropertyRecord> properties_;
  std::vector<char> value_cache_;  // per-step proposition values
  temporal::PropWord prop_word_ = 0;  // same values, packed for compiled mode
  std::vector<std::uint64_t> true_counts_;  // per-proposition steps-true
  std::vector<std::string> divergences_;    // kBoth oracle mismatches
  std::uint64_t steps_ = 0;
  std::size_t pending_ = 0;  // properties whose reported verdict is pending
  bool needs_valuation_ = false;  // some property runs an interpreted monitor
  bool stop_on_violation_ = false;
  std::size_t witness_depth_ = 0;
  std::vector<WitnessStep> witness_;  // ring, oldest at witness_next_
  std::size_t witness_next_ = 0;

  // Observability sinks (all optional; cached counters avoid registry
  // lookups on the hot path).
  obs::TraceWriter* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_prop_changes_ = nullptr;
  obs::Counter* m_transitions_ = nullptr;
  obs::Counter* m_validated_ = nullptr;
  obs::Counter* m_violated_ = nullptr;
  obs::Counter* m_divergences_ = nullptr;
  obs::Histogram* m_decide_step_ = nullptr;
};

}  // namespace esv::sctc
