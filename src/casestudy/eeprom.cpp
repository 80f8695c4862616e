#include "casestudy/eeprom.hpp"

#include <stdexcept>

namespace esv::casestudy {

flash::FlashConfig eeprom_flash_config() {
  flash::FlashConfig cfg;
  cfg.pages = 8;           // matches enum PAGES in the software
  cfg.words_per_page = 64; // matches WORDS_PER_PAGE
  cfg.erase_busy_ticks = 20;
  cfg.program_busy_ticks = 4;
  return cfg;
}

std::string eee_code_name(std::uint32_t code) {
  switch (code) {
    case kEeeOk: return "EEE_OK";
    case kEeeBusy: return "EEE_BUSY";
    case kEeeErrParameter: return "EEE_ERR_PARAMETER";
    case kEeeErrPoolFull: return "EEE_ERR_POOL_FULL";
    case kEeeErrNotFound: return "EEE_ERR_NOT_FOUND";
    case kEeeErrInternal: return "EEE_ERR_INTERNAL";
    case kEeeErrRejected: return "EEE_ERR_REJECTED";
    case kEeeErrNoInstance: return "EEE_ERR_NO_INSTANCE";
    default: return "EEE_CODE_" + std::to_string(code);
  }
}

const std::vector<OperationSpec>& eeprom_operations() {
  static const std::vector<OperationSpec> kOps = {
      {"Read", "EEE_Read", "ret_read", 3,
       {kEeeOk, kEeeErrNotFound, kEeeErrParameter, kEeeErrRejected}},
      {"Write", "EEE_Write", "ret_write", 4,
       {kEeeOk, kEeeErrPoolFull, kEeeErrParameter, kEeeErrRejected,
        kEeeErrInternal}},
      {"Startup1", "EEE_Startup1", "ret_startup1", 1,
       {kEeeOk, kEeeErrNoInstance}},
      {"Startup2", "EEE_Startup2", "ret_startup2", 2,
       {kEeeOk, kEeeErrRejected}},
      {"Format", "EEE_Format", "ret_format", 0, {kEeeOk, kEeeErrInternal}},
      {"Prepare", "EEE_Prepare", "ret_prepare", 5,
       {kEeeOk, kEeeErrRejected, kEeeErrInternal}},
      {"Refresh", "EEE_Refresh", "ret_refresh", 6,
       {kEeeOk, kEeeErrRejected, kEeeErrInternal}},
  };
  return kOps;
}

const OperationSpec& operation_by_name(const std::string& name) {
  for (const OperationSpec& op : eeprom_operations()) {
    if (op.name == name) return op;
  }
  throw std::invalid_argument("unknown EEE operation '" + name + "'");
}

void register_operation_propositions(sctc::TemporalChecker& checker,
                                     const mem::MemoryReadInterface& memory,
                                     const minic::Program& program,
                                     const OperationSpec& op) {
  // "<Name>": the operation's entry function is executing. This uses the
  // fname instrumentation exactly as the paper describes ("the function
  // names can be also used in the property specification").
  checker.register_proposition(
      op.name, std::make_unique<sctc::MemoryWordProposition>(
                   memory, program.fname_address, sctc::Compare::kEq,
                   program.fname_id(op.function)));
  // "<Name>_<CODE>": the per-operation return register holds CODE. The
  // register is cleared to 0 before the operation is dispatched, so these
  // propositions fire exactly when a return value arrives.
  const minic::GlobalVar* ret = program.find_global(op.ret_global);
  if (ret == nullptr) {
    throw std::runtime_error("case study software is missing global " +
                             op.ret_global);
  }
  for (std::uint32_t code : op.return_codes) {
    checker.register_proposition(
        op.name + "_" + eee_code_name(code),
        std::make_unique<sctc::MemoryWordProposition>(
            memory, ret->address, sctc::Compare::kEq, code));
  }
}

std::string response_property(const OperationSpec& op,
                              std::optional<std::uint32_t> bound,
                              PropertyShape shape) {
  std::string returns;
  for (std::size_t i = 0; i < op.return_codes.size(); ++i) {
    if (i != 0) returns += " || ";
    returns += op.name + "_" + eee_code_name(op.return_codes[i]);
  }
  std::string inner = "F";
  if (bound) inner += "[" + std::to_string(*bound) + "]";
  inner += " (" + returns + ")";
  const std::string outer = shape == PropertyShape::kPaperLiteral ? "F" : "G";
  return outer + " (" + op.name + " -> " + inner + ")";
}

std::string response_property_psl(const OperationSpec& op,
                                  std::optional<std::uint32_t> bound) {
  std::string returns;
  for (std::size_t i = 0; i < op.return_codes.size(); ++i) {
    if (i != 0) returns += " || ";
    returns += op.name + "_" + eee_code_name(op.return_codes[i]);
  }
  std::string inner = "eventually!";
  if (bound) inner += "[" + std::to_string(*bound) + "]";
  return "always (" + op.name + " -> " + inner + " (" + returns + "))";
}

}  // namespace esv::casestudy
