// The repo's one CRC-32 and the one checksummed record header built on it.
//
// Wire frames (dist/wire.hpp) and journal records (journal/journal.hpp) both
// start with the same 8-byte header:
//
//   +----------------+----------------+---------+
//   | u32 LE length  | u32 LE CRC-32  | payload |
//   +----------------+----------------+---------+
//
// The CRC covers the payload bytes only. What follows the payload, and how a
// damaged record is handled, is up to each format: a frame reader throws, a
// journal scan keeps the valid prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace esv::common {

/// Standard CRC-32 (IEEE 802.3 / zlib: reflected, init and final xor
/// 0xFFFFFFFF). crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const void* data, std::size_t size);

/// Size of the length + CRC record header.
constexpr std::size_t kRecordHeaderBytes = 8;

/// Appends the header for `payload` (its length and CRC-32) to `out`. The
/// caller bounds the payload size; lengths above 2^32-1 do not fit.
void append_record_header(std::string& out, std::string_view payload);

/// Payload length declared by the header at `header` (needs 4 bytes).
std::uint32_t record_payload_length(const char* header);

/// True when the CRC in the header at `header` (8 bytes) matches `payload`.
bool record_payload_intact(const char* header, std::string_view payload);

}  // namespace esv::common
