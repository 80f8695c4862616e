// Wire layer of the distributed campaign runner (docs/DISTRIBUTED.md):
//
//   * length-prefixed framing: every frame is the common/crc.hpp record
//     header (u32 little-endian payload length, u32 little-endian CRC-32 of
//     the payload), then one JSON object. The CRC turns any in-flight byte
//     corruption into a WireError — a killed worker incarnation and a
//     re-dispatched seed — instead of a silently wrong result
//     (docs/RESILIENCE.md)
//   * WireError, Json and json_string: the names the protocol layers above
//     use for the common/json.hpp codec (the campaign types' codec is
//     campaign/codec.hpp)
//
// Framing is transport-agnostic: FrameReader consumes bytes from any stream,
// and the fd helpers work on any connected SOCK_STREAM socket.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/crc.hpp"
#include "common/json.hpp"

namespace esv::dist {

/// Raised on malformed frames, malformed JSON, or transport failures. The
/// same type as common::DecodeError, so one catch covers every decode path.
using WireError = common::DecodeError;

using common::Json;
using common::json_string;

// --- framing -------------------------------------------------------------

/// Hard ceiling on a single frame; a length beyond this is treated as stream
/// corruption rather than an allocation request.
constexpr std::uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

/// Frame header: the common/crc.hpp record header.
constexpr std::size_t kFrameHeaderBytes = common::kRecordHeaderBytes;

/// Test/chaos seam: caps the byte count of every send(2)/recv(2) syscall so
/// the partial-transfer reassembly paths run deterministically under test.
/// 0 (the default) restores unlimited transfers. Not for production use.
void set_io_chunk_limit_for_test(std::size_t bytes);

/// One recv(2) / send(2) (MSG_NOSIGNAL), capped by the test seam above and
/// retried on EINTR; returns what the syscall returns.
ssize_t recv_some(int fd, char* data, std::size_t size);
ssize_t send_some(int fd, const char* data, std::size_t size);

/// Incremental frame decoder for poll()-driven readers: feed() raw bytes,
/// next() pops complete payloads.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);
  std::optional<std::string> next();

  /// Declared payload length of the frame currently being assembled, as
  /// soon as its 4 length bytes have arrived — before the payload does.
  /// Lets a server reject an oversized request at the header instead of
  /// buffering it. nullopt between frames. Never throws: an insane length
  /// is still reported (next() is what turns it into a WireError).
  std::optional<std::uint32_t> pending_payload() const;

 private:
  std::string buffer_;
};

/// Renders one complete frame (header + payload) into a byte string, for
/// callers that buffer writes themselves. Throws WireError when the payload
/// exceeds kMaxFramePayload.
std::string encode_frame(std::string_view payload);

/// Writes one frame (blocking, loops over partial sends, suppresses
/// SIGPIPE). On a non-blocking socket it waits for POLLOUT whenever the
/// buffer is full. Throws WireError when the peer is gone.
void write_frame(int fd, std::string_view payload);

/// Blocking read of one frame. Returns nullopt on a clean EOF at a frame
/// boundary; throws WireError on mid-frame EOF or transport errors.
std::optional<std::string> read_frame(int fd);

}  // namespace esv::dist
