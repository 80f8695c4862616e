// Byte-addressed 32-bit address space with memory-mapped devices.
//
// Both execution platforms use this as their memory system:
//   - approach 1: the microprocessor's bus — instruction/data RAM plus MMIO
//   - approach 2: the derived model's *virtual memory model* — the paper
//     converts every direct memory access `*(addr)` "into virtual memory
//     requests" because verification happens "without having hardware"
//
// The SCTC reads embedded-software variables out of this space through the
// mem::MemoryReadInterface (sctc_read_uint); monitor reads are side-effect
// free and only see RAM, never device registers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/read_interface.hpp"

namespace esv::mem {

/// A device with word-sized memory-mapped registers. Offsets are relative to
/// the mapping base. tick() advances device-internal time (busy counters);
/// the execution platform calls it once per instruction / statement step.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual std::uint32_t mmio_read(std::uint32_t offset) = 0;
  virtual void mmio_write(std::uint32_t offset, std::uint32_t value) = 0;
  virtual void tick() {}
};

/// Raised on misaligned or out-of-range accesses by the software under test.
class MemoryFault : public std::runtime_error {
 public:
  MemoryFault(const std::string& what, std::uint32_t address)
      : std::runtime_error(what + " at address 0x" + to_hex(address)),
        address_(address) {}
  std::uint32_t address() const { return address_; }

 private:
  static std::string to_hex(std::uint32_t v);
  std::uint32_t address_;
};

class AddressSpace final : public MemoryReadInterface {
 public:
  /// RAM spans byte addresses [0, ram_bytes); must be word-aligned.
  explicit AddressSpace(std::uint32_t ram_bytes);

  std::uint32_t ram_bytes() const {
    return static_cast<std::uint32_t>(ram_.size() * 4);
  }

  /// Maps `device` at [base, base+bytes). The range must be word-aligned and
  /// must not overlap RAM or another device.
  void map_device(std::uint32_t base, std::uint32_t bytes, MmioDevice& device);

  /// Word access from the software under test. Dispatches to RAM or a
  /// device; throws MemoryFault on misaligned/unmapped addresses.
  std::uint32_t read_word(std::uint32_t address);
  void write_word(std::uint32_t address, std::uint32_t value);

  /// Advances all mapped devices by one step.
  void tick_devices();

  /// Monitor access (SCTC): side-effect free. RAM reads return the stored
  /// word; anything else (device registers, unmapped addresses) reads as 0
  /// so that a monitor can never fault or perturb the hardware model.
  std::uint32_t sctc_read_uint(std::uint32_t address) const override;

 private:
  struct Mapping {
    std::uint32_t base;
    std::uint32_t bytes;
    MmioDevice* device;
  };

  const Mapping* find_mapping(std::uint32_t address) const;
  static void check_aligned(std::uint32_t address);

  std::vector<std::uint32_t> ram_;
  std::vector<Mapping> mappings_;
};

}  // namespace esv::mem
