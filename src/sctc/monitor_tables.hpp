// MonitorTables: the compiled monitors of one property set, built once and
// shared read-only.
//
// A campaign runs the same propositions and properties on every seed, so
// synthesizing and compiling the AR automata per seed repeats identical
// work. MonitorTables does it once, into its own formula factory and
// CompiledTables arena, and every checker that registers the same
// propositions and properties in the same order attaches to it
// (TemporalChecker::use_monitor_tables). A checker then keeps only a
// CompiledMonitor run, a state index and a step count, per property. The
// tables are never written after construction, so any number of threads
// step through them at once.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "temporal/compiled.hpp"
#include "temporal/formula.hpp"
#include "temporal/parser.hpp"

namespace esv::sctc {

class MonitorTables {
 public:
  struct PropertySource {
    std::string text;
    temporal::Dialect dialect = temporal::Dialect::kFltl;
  };

  struct Property {
    std::string text;
    temporal::Dialect dialect = temporal::Dialect::kFltl;
    /// A run at the initial state; checkers copy it. Invalid when synthesis
    /// or compilation hit a limit: checkers then monitor the property by
    /// progression (temporal::compile_or_fallback).
    temporal::CompiledMonitor initial;
    std::size_t automaton_states = 0;
  };

  /// Synthesizes and compiles every property. `proposition_names` are in
  /// factory index order (registration order, as
  /// TemporalChecker::registered_proposition_names() returns them), so the
  /// tables read the same PropWord bits as the attached checkers. Throws
  /// temporal::ParseError on a malformed property.
  MonitorTables(const std::vector<std::string>& proposition_names,
                const std::vector<PropertySource>& properties);
  MonitorTables(const MonitorTables&) = delete;
  MonitorTables& operator=(const MonitorTables&) = delete;

  std::size_t size() const { return properties_.size(); }

  /// Property `index`, checked against the one a checker is adding: same
  /// text and dialect, and each proposition index in `prop_indices` (read
  /// from `factory`, the checker's) names the same proposition here.
  /// Throws std::logic_error on a mismatch, since the tables would then
  /// read the wrong bits of that checker's proposition word.
  const Property& match(std::size_t index, const std::string& text,
                        temporal::Dialect dialect,
                        const temporal::FormulaFactory& factory,
                        const std::vector<int>& prop_indices) const;

 private:
  temporal::FormulaFactory factory_;
  temporal::CompiledTables tables_;
  std::vector<Property> properties_;
};

}  // namespace esv::sctc
