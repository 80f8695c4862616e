// Case-study definitions: the EEPROM-emulation software, its operations,
// return codes, propositions, and temporal properties.
//
// The paper extracts its FLTL property set from the case study's
// specification manual: one property per EEELib operation (format, prepare,
// read, write, refresh, startup1, startup2), each of the shape
//
//     F (Read -> F[b] (EEE_OK || ...))          (paper property (A))
//
// i.e. calling the operation leads, within time bound b, to one of its
// documented return values. We provide that literal shape plus the
// always-variant G (Read -> F[b] (...)) which checks *every* call; the
// coverage metric (percentage of documented return values observed) matches
// the paper's C.(%) column.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flash/flash_controller.hpp"
#include "mem/address_space.hpp"
#include "minic/ast.hpp"
#include "sctc/checker.hpp"

namespace esv::casestudy {

/// The embedded software (mini-C source text). Compile with minic::compile.
const char* eeprom_emulation_source();

/// Flash geometry matching the enums inside the software.
flash::FlashConfig eeprom_flash_config();

/// MMIO base the software's register enums assume.
inline constexpr std::uint32_t kFlashMmioBase = 0xF0000000;

/// EEE return codes (values mirror the software's enum).
inline constexpr std::uint32_t kEeeOk = 1;
inline constexpr std::uint32_t kEeeBusy = 2;
inline constexpr std::uint32_t kEeeErrParameter = 3;
inline constexpr std::uint32_t kEeeErrPoolFull = 4;
inline constexpr std::uint32_t kEeeErrNotFound = 5;
inline constexpr std::uint32_t kEeeErrInternal = 6;
inline constexpr std::uint32_t kEeeErrRejected = 7;
inline constexpr std::uint32_t kEeeErrNoInstance = 8;

/// Name of an EEE return code ("EEE_OK").
std::string eee_code_name(std::uint32_t code);

struct OperationSpec {
  std::string name;       // property name: "Read"
  std::string function;   // EEELib entry: "EEE_Read"
  std::string ret_global; // per-op return register: "ret_read"
  int op_code;            // main-loop dispatch value
  std::vector<std::uint32_t> return_codes;  // documented return values
};

/// All seven operations, in the paper's table order:
/// Read, Write, Startup1, Startup2, Format, Prepare, Refresh.
const std::vector<OperationSpec>& eeprom_operations();

/// Finds an operation by name; throws std::invalid_argument if unknown.
const OperationSpec& operation_by_name(const std::string& name);

/// Registers the propositions an operation's property needs on `checker`:
///   "<Name>"          — the operation's function is executing (fname)
///   "<Name>_<CODE>"   — the operation's return register holds CODE
/// Reads happen through `memory` (microprocessor memory in approach 1, the
/// virtual memory model in approach 2 — identical code, as in the paper).
void register_operation_propositions(sctc::TemporalChecker& checker,
                                     const mem::MemoryReadInterface& memory,
                                     const minic::Program& program,
                                     const OperationSpec& op);

enum class PropertyShape {
  kPaperLiteral,  // F (Op -> F[b] (codes...))   — the shape printed in the paper
  kGlobally,      // G (Op -> F[b] (codes...))   — checks every call
};

/// Builds the FLTL property text for `op`. No bound when `bound` is empty
/// (a pure LTL property, the paper's "No-TB" columns).
std::string response_property(const OperationSpec& op,
                              std::optional<std::uint32_t> bound,
                              PropertyShape shape = PropertyShape::kGlobally);

/// The same property in the PSL dialect (SCTC "supports specification of
/// properties either in PSL or FLTL"); parses to the identical formula.
std::string response_property_psl(const OperationSpec& op,
                                  std::optional<std::uint32_t> bound);

}  // namespace esv::casestudy
