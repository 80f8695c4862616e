#include "temporal/compiled.hpp"

#include <limits>
#include <string>

namespace esv::temporal {

CompiledMonitor CompiledTables::compile(const ArAutomaton& automaton,
                                        const FormulaFactory& factory) {
  const std::vector<int>& props = automaton.prop_indices();
  for (int prop_index : props) {
    if (prop_index < 0 || prop_index >= kMaxPropWordBits) {
      throw CompileError(
          "compile: proposition index " + std::to_string(prop_index) +
          " does not fit the " + std::to_string(kMaxPropWordBits) +
          "-bit proposition word (register at most " +
          std::to_string(kMaxPropWordBits) +
          " propositions for compiled monitor modes)");
    }
  }

  const std::size_t state_count = automaton.state_count();
  const std::size_t stride = automaton.assignment_count();
  if (state_count == 0 ||
      state_count > std::numeric_limits<std::uint32_t>::max() / stride) {
    throw CompileError("compile: automaton table does not fit 32-bit offsets");
  }

  Entry entry;
  entry.table_off = static_cast<std::uint32_t>(table_.size());
  entry.state_base = static_cast<std::uint32_t>(verdicts_.size());
  entry.bits_off = static_cast<std::uint32_t>(bit_sources_.size());
  entry.bit_count = static_cast<std::uint32_t>(props.size());
  entry.initial = automaton.initial();

  for (int prop_index : props) {
    bit_sources_.push_back(static_cast<std::uint8_t>(prop_index));
  }

  // Dense row-major lowering, state numbering preserved: row s of this
  // monitor's slab is exactly ArAutomaton state s, so compiled state ids are
  // interchangeable with AutomatonMonitor states in traces and oracles.
  table_.reserve(table_.size() + state_count * stride);
  verdicts_.reserve(verdicts_.size() + state_count);
  end_verdicts_.reserve(end_verdicts_.size() + state_count);
  obligations_.reserve(obligations_.size() + state_count);
  for (const ArAutomaton::State& state : automaton.states()) {
    verdicts_.push_back(static_cast<std::uint8_t>(state.verdict));
    // End-of-trace resolution is a pure function of the pending obligation,
    // precomputed here so verdict_at_end() is a table read like everything
    // else on the query path.
    const Verdict at_end =
        state.verdict != Verdict::kPending
            ? state.verdict
            : (factory.holds_on_empty(state.obligation) ? Verdict::kValidated
                                                        : Verdict::kViolated);
    end_verdicts_.push_back(static_cast<std::uint8_t>(at_end));
    obligations_.push_back(state.obligation);
    for (std::size_t a = 0; a < stride; ++a) {
      table_.push_back(state.next[a]);
    }
  }

  entries_.push_back(entry);
  return CompiledMonitor(this,
                         static_cast<std::uint32_t>(entries_.size() - 1),
                         entry.initial);
}

CompiledMonitor compile_or_fallback(FormulaFactory& factory,
                                    FormulaRef formula, CompiledTables& tables,
                                    std::size_t& automaton_states) {
  automaton_states = 0;
  try {
    const ArAutomaton automaton = synthesize(factory, formula);
    CompiledMonitor monitor = tables.compile(automaton, factory);
    automaton_states = automaton.state_count();
    return monitor;
  } catch (const SynthesisLimitError&) {
  } catch (const CompileError&) {
  }
  return CompiledMonitor();
}

}  // namespace esv::temporal
