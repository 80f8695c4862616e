// Read access to a memory image, the interface the paper adds to SCTC so it
// can "provide the ESW variable address and read its content from memory"
// (sc_uint<32> sctc_sc_read_uint(sc_uint<32> addr)). The memory being read
// owns it: the microprocessor memory (approach 1) and the virtual memory
// model (approach 2) implement it, and the checker's MemoryWordProposition
// reads through it.
#pragma once

#include <cstdint>

namespace esv::mem {

class MemoryReadInterface {
 public:
  virtual ~MemoryReadInterface() = default;
  /// Reads the 32-bit word at byte address `address`.
  virtual std::uint32_t sctc_read_uint(std::uint32_t address) const = 0;
};

}  // namespace esv::mem
