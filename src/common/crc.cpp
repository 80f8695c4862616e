#include "common/crc.hpp"

namespace esv::common {

namespace {

struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
  }
};

void append_u32_le(std::string& out, std::uint32_t value) {
  out += static_cast<char>(value & 0xFF);
  out += static_cast<char>((value >> 8) & 0xFF);
  out += static_cast<char>((value >> 16) & 0xFF);
  out += static_cast<char>((value >> 24) & 0xFF);
}

std::uint32_t read_u32_le(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
             << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const Crc32Table table;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void append_record_header(std::string& out, std::string_view payload) {
  append_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  append_u32_le(out, crc32(payload.data(), payload.size()));
}

std::uint32_t record_payload_length(const char* header) {
  return read_u32_le(header);
}

bool record_payload_intact(const char* header, std::string_view payload) {
  return crc32(payload.data(), payload.size()) == read_u32_le(header + 4);
}

}  // namespace esv::common
