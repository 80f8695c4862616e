// ESV spec files: a small text format binding propositions and temporal
// properties to a mini-C program, so verification runs can be configured
// without writing C++ (the esv-verify tool consumes these).
//
//   # EEPROM read response
//   input  op_select 0 6            # constrained-random range (inclusive)
//   input  inject_fault chance 1 100
//   prop   reading = fname == EEE_Read      # function-activity proposition
//   prop   ok      = ret_read == EEE_OK     # enum constants resolve
//   prop   busy    = eee_state != 0
//   check  response: G (reading -> F[2000] ok)
//   check  psl_response psl: always (reading -> eventually! ok)
//
// Lines: blank, '#' comments, `input`, `prop`, `check`, `fault` (a fault-
// injection directive, see docs/FAULTS.md). Proposition
// right-hand sides are <global> <op> <value> where <op> is one of
// == != < <= > >=, <global> may be `fname`, and <value> is an integer
// literal (decimal or 0x hex), an enum constant of the program, or — when
// the left side is fname — a function name.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mem/read_interface.hpp"
#include "minic/ast.hpp"
#include "sctc/checker.hpp"

namespace esv::spec {

class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& message, int line)
      : std::runtime_error("spec line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

struct PropositionSpec {
  std::string name;
  std::string global;  // global variable name, or "fname"
  sctc::Compare op = sctc::Compare::kEq;
  std::string value_text;  // unresolved: literal / enum constant / function
  int line = 0;
};

struct PropertySpec {
  std::string name;
  std::string text;
  temporal::Dialect dialect = temporal::Dialect::kFltl;
  int line = 0;
};

struct InputSpec {
  std::string name;
  bool is_chance = false;
  std::int64_t lo = 0;  // range lo, or chance numerator
  std::int64_t hi = 0;  // range hi, or chance denominator
  int line = 0;
};

/// A `fault` directive, stored as raw text. The spec layer does not depend
/// on the fault subsystem; consumers (campaign runner, esv-verify) parse
/// the text with fault::parse_fault_line. docs/FAULTS.md has the syntax.
struct FaultLineSpec {
  std::string text;  // the directive with the leading `fault` stripped
  int line = 0;
};

struct SpecFile {
  std::vector<PropositionSpec> propositions;
  std::vector<PropertySpec> properties;
  std::vector<InputSpec> inputs;
  std::vector<FaultLineSpec> fault_lines;
};

/// Parses the text of a spec file. Throws SpecError on malformed input.
SpecFile parse_spec(std::string_view text);

/// Resolves every proposition against `program` (addresses, enum constants,
/// fname ids) and registers propositions + properties on `checker`, reading
/// values through `memory`. Throws SpecError on unresolvable names.
void apply_spec(const SpecFile& spec, const minic::Program& program,
                const mem::MemoryReadInterface& memory,
                sctc::TemporalChecker& checker);

}  // namespace esv::spec
