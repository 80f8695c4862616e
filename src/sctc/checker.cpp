#include "sctc/checker.hpp"

#include <sstream>
#include <stdexcept>

namespace esv::sctc {

namespace {

bool compare(std::uint32_t lhs, Compare op, std::uint32_t rhs) {
  switch (op) {
    case Compare::kEq: return lhs == rhs;
    case Compare::kNe: return lhs != rhs;
    case Compare::kLt: return lhs < rhs;
    case Compare::kLe: return lhs <= rhs;
    case Compare::kGt: return lhs > rhs;
    case Compare::kGe: return lhs >= rhs;
  }
  return false;
}

}  // namespace

const char* monitor_mode_name(MonitorMode mode) {
  switch (mode) {
    case MonitorMode::kProgression: return "progression";
    case MonitorMode::kSynthesizedAutomaton: return "automaton";
    case MonitorMode::kCompiled: return "compiled";
    case MonitorMode::kBoth: return "both";
  }
  return "?";
}

std::optional<MonitorMode> parse_monitor_mode(std::string_view name) {
  if (name == "progression" || name == "interpreted") {
    return MonitorMode::kProgression;
  }
  if (name == "automaton") return MonitorMode::kSynthesizedAutomaton;
  if (name == "compiled") return MonitorMode::kCompiled;
  if (name == "both") return MonitorMode::kBoth;
  return std::nullopt;
}

FaultClass classify_under_fault(temporal::Verdict verdict, bool run_errored) {
  switch (verdict) {
    case temporal::Verdict::kValidated:
      return FaultClass::kHeldUnderFault;
    case temporal::Verdict::kViolated:
      return FaultClass::kViolatedUnderFault;
    case temporal::Verdict::kPending:
      // Undecided at end of run: a clean run means the property survived
      // the whole fault schedule; an aborted run means the monitor never
      // got to finish — that is an error, not a property result.
      return run_errored ? FaultClass::kMonitorError
                         : FaultClass::kHeldUnderFault;
  }
  return FaultClass::kMonitorError;
}

const char* fault_class_name(FaultClass fault_class) {
  switch (fault_class) {
    case FaultClass::kNotApplicable: return "n/a";
    case FaultClass::kHeldUnderFault: return "held";
    case FaultClass::kViolatedUnderFault: return "violated";
    case FaultClass::kMonitorError: return "monitor-error";
  }
  return "n/a";
}

bool MemoryWordProposition::is_true() {
  return compare(memory_->sctc_read_uint(address_), op_, value_);
}

temporal::Verdict TemporalChecker::monitor_verdict(
    const PropertyRecord& record) {
  // In kBoth mode the interpreted monitor is the oracle, so progression is
  // consulted first; compiled alone answers in kCompiled mode.
  if (record.progression) return record.progression->verdict();
  if (record.automaton_monitor) return record.automaton_monitor->verdict();
  if (record.compiled.valid()) return record.compiled.verdict();
  return temporal::Verdict::kPending;
}

TemporalChecker::TemporalChecker(sim::Simulation& sim, std::string name,
                                 MonitorMode mode)
    : sim::Module(sim, std::move(name)), mode_(mode) {}

TemporalChecker::~TemporalChecker() = default;

void TemporalChecker::register_proposition(
    const std::string& name, std::unique_ptr<Proposition> proposition) {
  if (!proposition) {
    throw std::invalid_argument("register_proposition: null proposition");
  }
  temporal::FormulaRef node = factory_.prop(name);
  const auto index = static_cast<std::size_t>(node->prop_index());
  if (propositions_by_index_.size() <= index) {
    propositions_by_index_.resize(index + 1);
    value_cache_.resize(index + 1, 0);
    true_counts_.resize(index + 1, 0);
  }
  propositions_by_index_[index] = std::move(proposition);
}

void TemporalChecker::register_proposition(const std::string& name,
                                           std::function<bool()> predicate) {
  register_proposition(name,
                       std::make_unique<LambdaProposition>(std::move(predicate)));
}

bool TemporalChecker::has_proposition(const std::string& name) const {
  for (int i = 0; i < factory_.prop_count(); ++i) {
    if (factory_.prop_name(i) == name) {
      const auto idx = static_cast<std::size_t>(i);
      return idx < propositions_by_index_.size() &&
             propositions_by_index_[idx] != nullptr;
    }
  }
  return false;
}

std::size_t TemporalChecker::add_property(const std::string& name,
                                          const std::string& text,
                                          temporal::Dialect dialect) {
  PropertyRecord record;
  record.name = name;
  record.text = text;
  record.dialect = dialect;
  record.formula = temporal::parse_property(text, dialect, factory_);

  // Every proposition must be backed by a registered evaluator.
  const std::vector<int> prop_indices =
      factory_.collect_prop_indices(record.formula);
  for (int prop_index : prop_indices) {
    const auto idx = static_cast<std::size_t>(prop_index);
    if (idx >= propositions_by_index_.size() ||
        propositions_by_index_[idx] == nullptr) {
      throw std::runtime_error("add_property(" + name +
                               "): proposition \"" +
                               factory_.prop_name(prop_index) +
                               "\" is not registered");
    }
  }

  if (mode_ == MonitorMode::kProgression || mode_ == MonitorMode::kBoth) {
    record.progression = std::make_unique<temporal::ProgressionMonitor>(
        factory_, record.formula);
  }
  if (mode_ == MonitorMode::kSynthesizedAutomaton) {
    record.automaton = std::make_unique<temporal::ArAutomaton>(
        temporal::synthesize(factory_, record.formula));
    record.automaton_states = record.automaton->state_count();
    record.automaton_monitor =
        std::make_unique<temporal::AutomatonMonitor>(*record.automaton);
  }
  if (mode_ == MonitorMode::kCompiled && shared_tables_ != nullptr) {
    const MonitorTables::Property& shared = shared_tables_->match(
        properties_.size(), text, dialect, factory_, prop_indices);
    record.compiled = shared.initial;
    record.automaton_states = shared.automaton_states;
  } else if (mode_ == MonitorMode::kCompiled || mode_ == MonitorMode::kBoth) {
    // Synthesize, lower into this checker's flat arenas, and drop the
    // source automaton: the compiled tables are self-contained.
    record.compiled = temporal::compile_or_fallback(
        factory_, record.formula, compiled_tables_, record.automaton_states);
  }
  if (mode_ == MonitorMode::kCompiled && !record.compiled.valid()) {
    record.progression = std::make_unique<temporal::ProgressionMonitor>(
        factory_, record.formula);
  }
  if (record.progression || record.automaton_monitor) needs_valuation_ = true;
  record.reported = monitor_verdict(record);
  if (record.reported == temporal::Verdict::kPending) ++pending_;
  properties_.push_back(std::move(record));
  return properties_.size() - 1;
}

void TemporalChecker::use_monitor_tables(const MonitorTables* tables) {
  if (mode_ != MonitorMode::kCompiled) {
    throw std::logic_error("use_monitor_tables: checker is not in " +
                           std::string(monitor_mode_name(mode_)) + " mode");
  }
  shared_tables_ = tables;
}

void TemporalChecker::bind_trigger(sim::Event& trigger) {
  sim_.create_method(sub_name("trigger"), [this] { step_all(); }, {&trigger},
                     /*run_at_start=*/false);
}

void TemporalChecker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_steps_ = nullptr;
    m_prop_changes_ = nullptr;
    m_transitions_ = nullptr;
    m_validated_ = nullptr;
    m_violated_ = nullptr;
    m_divergences_ = nullptr;
    m_decide_step_ = nullptr;
    return;
  }
  m_steps_ = &metrics->counter("sctc.steps");
  m_prop_changes_ = &metrics->counter("sctc.prop_changes");
  m_transitions_ = &metrics->counter("sctc.monitor_transitions");
  m_validated_ = &metrics->counter("sctc.validated");
  m_violated_ = &metrics->counter("sctc.violated");
  m_divergences_ = &metrics->counter("sctc.divergences");
  m_decide_step_ = &metrics->histogram("sctc.decide_step");
}

void TemporalChecker::evaluate_propositions() {
  // The step-1 valuation counts every proposition as a "change" (from
  // unknown), so a trace always opens with the full initial valuation.
  // Every proposition is evaluated exactly once per step; the packed
  // prop_word_ is what the compiled monitors index their transition tables
  // with (bit i = factory proposition index i).
  const bool observe = trace_ != nullptr || m_prop_changes_ != nullptr;
  temporal::PropWord word = 0;
  for (std::size_t i = 0; i < propositions_by_index_.size(); ++i) {
    if (propositions_by_index_[i]) {
      const char value = propositions_by_index_[i]->is_true() ? 1 : 0;
      if (observe && (steps_ == 1 || value != value_cache_[i])) {
        if (m_prop_changes_ != nullptr) m_prop_changes_->add();
        if (trace_ != nullptr) {
          trace_->prop_change(steps_, factory_.prop_name(static_cast<int>(i)),
                              value != 0);
        }
      }
      value_cache_[i] = value;
      if (value) {
        ++true_counts_[i];
        if (i < temporal::kMaxPropWordBits) {
          word |= temporal::PropWord{1} << i;
        }
      }
    }
  }
  prop_word_ = word;
}

temporal::PropValuation TemporalChecker::make_valuation() {
  return [this](int prop_index) {
    return value_cache_[static_cast<std::size_t>(prop_index)] != 0;
  };
}

void TemporalChecker::set_witness_depth(std::size_t depth) {
  witness_depth_ = depth;
  witness_.clear();
  witness_next_ = 0;
}

void TemporalChecker::record_witness() {
  if (witness_depth_ == 0) return;
  WitnessStep* slot = nullptr;
  if (witness_.size() < witness_depth_) {
    slot = &witness_.emplace_back();
  } else {
    // Full: overwrite the oldest slot in place, reusing its value storage.
    slot = &witness_[witness_next_];
    witness_next_ = (witness_next_ + 1) % witness_depth_;
  }
  slot->step = steps_;
  slot->time = sim_.now();
  slot->values.resize(value_cache_.size());
  for (std::size_t i = 0; i < value_cache_.size(); ++i) {
    slot->values[i] = value_cache_[i] != 0;
  }
}

std::vector<TemporalChecker::WitnessStep> TemporalChecker::witness() const {
  std::vector<WitnessStep> ordered;
  ordered.reserve(witness_.size());
  for (std::size_t i = 0; i < witness_.size(); ++i) {
    ordered.push_back(witness_[(witness_next_ + i) % witness_.size()]);
  }
  return ordered;
}

std::string TemporalChecker::witness_table() const {
  std::ostringstream out;
  if (witness_.empty()) {
    out << "(no witness recorded; call set_witness_depth first)\n";
    return out.str();
  }
  const std::vector<WitnessStep> steps = witness();
  // Header: one row per proposition, one column per recorded step.
  out << "step:";
  for (const WitnessStep& w : steps) out << " " << w.step;
  out << "\n";
  for (int i = 0; i < factory_.prop_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (idx >= propositions_by_index_.size() ||
        propositions_by_index_[idx] == nullptr) {
      continue;
    }
    out << "  " << factory_.prop_name(i) << ":";
    for (const WitnessStep& w : steps) {
      out << " " << (idx < w.values.size() && w.values[idx] ? "1" : ".");
    }
    out << "\n";
  }
  return out.str();
}

void TemporalChecker::compare_lockstep(PropertyRecord& record,
                                       temporal::Verdict oracle) {
  // Lockstep differential oracle: the compiled fast path must follow the
  // interpreted monitor transition for transition — same verdict and the
  // same pending obligation (compiled states map back to hash-consed
  // obligation formulas, so pointer equality is exact). The first mismatch
  // per property is recorded; verdicts stay the oracle's.
  const temporal::Verdict compiled_verdict = record.compiled.step(prop_word_);
  if (record.diverged ||
      (compiled_verdict == oracle &&
       record.compiled.obligation() == record.progression->current())) {
    return;
  }
  record.diverged = true;
  std::ostringstream detail;
  detail << "property " << record.name << " diverged at step " << steps_
         << ": interpreted " << temporal::to_string(oracle) << " \""
         << record.progression->current()->to_string() << "\" vs compiled "
         << temporal::to_string(compiled_verdict) << " state "
         << record.compiled.state() << " \""
         << record.compiled.obligation()->to_string() << "\"";
  divergences_.push_back(detail.str());
  if (m_divergences_ != nullptr) m_divergences_->add();
  if (trace_ != nullptr) {
    trace_->monitor_divergence(steps_, record.name, divergences_.back());
  }
}

void TemporalChecker::step_all() {
  ++steps_;
  if (m_steps_ != nullptr) m_steps_->add();
  evaluate_propositions();
  record_witness();
  // Compiled monitors read prop_word_ directly; the closure-based valuation
  // is only materialized when some property interprets its formula.
  temporal::PropValuation valuation;
  if (needs_valuation_) valuation = make_valuation();
  bool violated_now = false;
  for (PropertyRecord& record : properties_) {
    if (record.reported != temporal::Verdict::kPending) continue;
    temporal::Verdict v;
    if (record.progression) {
      v = record.progression->step(valuation);
      if (record.compiled.valid()) compare_lockstep(record, v);  // kBoth
    } else if (record.automaton_monitor) {
      v = record.automaton_monitor->step(valuation);
    } else {
      v = record.compiled.step(prop_word_);
    }
    if (trace_ != nullptr &&
        (record.automaton_monitor || record.compiled.valid())) {
      const std::uint32_t state = record.automaton_monitor
                                      ? record.automaton_monitor->state()
                                      : record.compiled.state();
      if (state != record.traced_state) {
        trace_->automaton_state(steps_, record.name, state);
        record.traced_state = state;
      }
    }
    if (v != temporal::Verdict::kPending) {
      record.reported = v;
      --pending_;
      record.decided_at_step = steps_;
      record.decided_at_time = sim_.now();
      if (v == temporal::Verdict::kViolated) violated_now = true;
      if (m_transitions_ != nullptr) {
        m_transitions_->add();
        (v == temporal::Verdict::kViolated ? m_violated_ : m_validated_)
            ->add();
        m_decide_step_->record(steps_);
      }
      if (trace_ != nullptr) {
        trace_->monitor_transition(steps_, record.name, "pending",
                                   temporal::to_string(v));
      }
    }
  }
  if (violated_now && stop_on_violation_) sim_.stop();
}

std::uint64_t TemporalChecker::proposition_true_count(int prop_index) const {
  const auto idx = static_cast<std::size_t>(prop_index);
  return idx < true_counts_.size() ? true_counts_[idx] : 0;
}

std::vector<std::string> TemporalChecker::registered_proposition_names() const {
  std::vector<std::string> names;
  for (int i = 0; i < factory_.prop_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (idx < propositions_by_index_.size() &&
        propositions_by_index_[idx] != nullptr) {
      names.push_back(factory_.prop_name(i));
    }
  }
  return names;
}

std::vector<std::uint64_t> TemporalChecker::registered_proposition_true_counts()
    const {
  std::vector<std::uint64_t> counts;
  for (std::size_t i = 0; i < propositions_by_index_.size(); ++i) {
    if (propositions_by_index_[i] != nullptr) {
      counts.push_back(true_counts_[i]);
    }
  }
  return counts;
}

void TemporalChecker::reset_monitors() {
  steps_ = 0;
  prop_word_ = 0;
  divergences_.clear();
  pending_ = 0;
  for (std::uint64_t& count : true_counts_) count = 0;
  for (PropertyRecord& record : properties_) {
    if (record.progression) record.progression->reset();
    if (record.automaton_monitor) record.automaton_monitor->reset();
    if (record.compiled.valid()) record.compiled.reset();
    record.diverged = false;
    record.decided_at_step = 0;
    record.decided_at_time = sim::Time::zero();
    record.traced_state = UINT32_MAX;
    record.reported = monitor_verdict(record);
    if (record.reported == temporal::Verdict::kPending) ++pending_;
  }
}

void TemporalChecker::corrupt_compiled_for_test(std::size_t property_index,
                                                std::uint32_t state) {
  PropertyRecord& record = properties_.at(property_index);
  if (!record.compiled.valid()) {
    throw std::logic_error(
        "corrupt_compiled_for_test: property has no compiled monitor");
  }
  record.compiled.corrupt_state_for_test(state);
}

std::size_t TemporalChecker::validated_count() const {
  std::size_t n = 0;
  for (const auto& r : properties_) {
    if (r.verdict() == temporal::Verdict::kValidated) ++n;
  }
  return n;
}

std::size_t TemporalChecker::violated_count() const {
  std::size_t n = 0;
  for (const auto& r : properties_) {
    if (r.verdict() == temporal::Verdict::kViolated) ++n;
  }
  return n;
}

std::string TemporalChecker::report() const {
  std::ostringstream out;
  out << "SCTC " << name() << " after " << steps_ << " steps ("
      << monitor_mode_name(mode_) << " mode)\n";
  for (const std::string& divergence : divergences_) {
    out << "  MONITOR-ERROR " << divergence << "\n";
  }
  for (const auto& r : properties_) {
    out << "  [" << temporal::to_string(r.verdict()) << "] " << r.name << ": "
        << r.text;
    if (r.verdict() != temporal::Verdict::kPending) {
      out << "  (decided at step " << r.decided_at_step << ", t="
          << r.decided_at_time.to_string() << ")";
    }
    if (r.automaton_states != 0) {
      out << "  [" << r.automaton_states << " AR states]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace esv::sctc
