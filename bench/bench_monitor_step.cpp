// Steady-state monitor stepping throughput: interpreted (progression) vs
// AR-automaton table walk vs the compiled flat-transition-table lowering
// (docs/MONITORS.md). Every mode consumes the *same* pre-evaluated
// proposition stream — exactly the checker's contract, where propositions
// are evaluated once per step and the monitors only differ in how they
// advance — so the numbers isolate the per-step monitor cost.
//
//   bench_monitor_step [--steps=N] [--gate=STEPS_PER_SEC] [--gate-ratio=R]
//                      [--json=FILE]
//
//   --steps=N       measured steps per mode (default 2,000,000)
//   --gate=S        regression gate: exit 1 if the compiled mode falls below
//                   S steps/s
//   --gate-ratio=R  exit 1 if compiled/interpreted speedup falls below R
//                   (the repo's recorded floor is 5x; BENCH_monitor.json)
//   --json=FILE     also write the result object to FILE
//
// The gates make the binary usable as an opt-in CTest perf check:
//   ctest -C perf -L perf        (or: cmake --build build --target check-perf)
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "temporal/automaton.hpp"
#include "temporal/compiled.hpp"
#include "temporal/monitor.hpp"
#include "temporal/parser.hpp"

namespace {

using namespace esv::temporal;

constexpr const char* kProperty = "G (req -> F[64] (ack || err))";
constexpr int kPropCount = 3;

/// Pre-generated proposition stream, cycled during measurement. 8192 steps
/// of the ablation bench's distribution: req 1/8, ack 1/4, err 1/16.
struct Stimulus {
  std::vector<PropWord> words;
  std::vector<std::vector<bool>> values;

  Stimulus() {
    esv::common::Rng rng(1234);
    words.reserve(8192);
    values.reserve(8192);
    for (int i = 0; i < 8192; ++i) {
      std::vector<bool> vals(kPropCount);
      vals[0] = rng.next_chance(1, 8);
      vals[1] = rng.next_chance(1, 4);
      vals[2] = rng.next_chance(1, 16);
      PropWord word = 0;
      for (int p = 0; p < kPropCount; ++p) {
        if (vals[static_cast<std::size_t>(p)]) word |= PropWord{1} << p;
      }
      words.push_back(word);
      values.push_back(std::move(vals));
    }
  }
};

double steps_per_second(std::uint64_t steps,
                        std::chrono::steady_clock::duration elapsed) {
  const double seconds = std::chrono::duration<double>(elapsed).count();
  return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
}

template <typename StepFn>
double measure(std::uint64_t steps, const StepFn& step_once) {
  // One untimed pass over the stimulus warms caches and the formula factory.
  for (std::size_t i = 0; i < 8192; ++i) step_once(i % 8192);
  const auto started = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < steps; ++s) step_once(s % 8192);
  return steps_per_second(steps, std::chrono::steady_clock::now() - started);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && out > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t steps = 2'000'000;
  double gate = 0.0;        // absolute compiled steps/s floor
  double gate_ratio = 0.0;  // compiled/interpreted speedup floor
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix, std::string& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    if (value_of("--steps=", value)) {
      if (!parse_u64(value, steps) || steps == 0) {
        std::cerr << "--steps must be a positive integer\n";
        return 2;
      }
    } else if (value_of("--gate=", value)) {
      if (!parse_double(value, gate)) {
        std::cerr << "--gate must be a positive steps/s figure\n";
        return 2;
      }
    } else if (value_of("--gate-ratio=", value)) {
      if (!parse_double(value, gate_ratio)) {
        std::cerr << "--gate-ratio must be a positive speedup factor\n";
        return 2;
      }
    } else if (value_of("--json=", value)) {
      json_path = value;
    } else {
      std::cerr << "usage: bench_monitor_step [--steps=N] [--gate=S]"
                   " [--gate-ratio=R] [--json=FILE]\n";
      return 2;
    }
  }

  const Stimulus stimulus;

  FormulaFactory factory;
  FormulaRef formula = parse_fltl(kProperty, factory);
  const ArAutomaton automaton = synthesize(factory, formula);
  CompiledTables tables;
  CompiledMonitor compiled = tables.compile(automaton, factory);
  AutomatonMonitor table(automaton);
  ProgressionMonitor interpreted(factory, formula);

  const double interpreted_sps = measure(steps, [&](std::size_t i) {
    const std::vector<bool>& vals = stimulus.values[i];
    if (interpreted.step([&vals](int index) {
          return vals[static_cast<std::size_t>(index)];
        }) != Verdict::kPending) {
      interpreted.reset();
    }
  });
  const double automaton_sps = measure(steps, [&](std::size_t i) {
    const std::vector<bool>& vals = stimulus.values[i];
    if (table.step([&vals](int index) {
          return vals[static_cast<std::size_t>(index)];
        }) != Verdict::kPending) {
      table.reset();
    }
  });
  const double compiled_sps = measure(steps, [&](std::size_t i) {
    if (compiled.step(stimulus.words[i]) != Verdict::kPending) {
      compiled.reset();
    }
  });

  const double speedup =
      interpreted_sps > 0.0 ? compiled_sps / interpreted_sps : 0.0;

  std::ostringstream json;
  json << "{\n";
  json << "  \"property\": \"" << kProperty << "\",\n";
  json << "  \"steps\": " << steps << ",\n";
  json << "  \"ar_states\": " << automaton.state_count() << ",\n";
  json << "  \"table_entries\": " << tables.table_entries() << ",\n";
  json << "  \"interpreted_steps_per_second\": "
       << static_cast<std::uint64_t>(interpreted_sps) << ",\n";
  json << "  \"automaton_steps_per_second\": "
       << static_cast<std::uint64_t>(automaton_sps) << ",\n";
  json << "  \"compiled_steps_per_second\": "
       << static_cast<std::uint64_t>(compiled_sps) << ",\n";
  json << "  \"speedup_compiled_vs_interpreted\": "
       << static_cast<std::uint64_t>(speedup * 100.0) / 100.0 << "\n";
  json << "}\n";

  std::cout << json.str();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out << json.str();
  }

  if (gate > 0.0 && compiled_sps < gate) {
    std::cerr << "GATE FAILED: compiled mode at "
              << static_cast<std::uint64_t>(compiled_sps)
              << " steps/s, gate is " << static_cast<std::uint64_t>(gate)
              << "\n";
    return 1;
  }
  if (gate_ratio > 0.0 && speedup < gate_ratio) {
    std::cerr << "GATE FAILED: compiled/interpreted speedup " << speedup
              << "x, gate is " << gate_ratio << "x\n";
    return 1;
  }
  return 0;
}
