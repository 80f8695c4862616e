#include "dist/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "chaos/chaos.hpp"

namespace esv::dist {

// --- framing -------------------------------------------------------------

namespace {

// Per-syscall transfer cap (set_io_chunk_limit_for_test); 0 = unlimited.
std::atomic<std::size_t> io_chunk_limit{0};

std::size_t chunked(std::size_t size) {
  const std::size_t limit = io_chunk_limit.load(std::memory_order_relaxed);
  return limit != 0 && limit < size ? limit : size;
}

void send_all(int fd, const char* data, std::size_t size) {
  while (size != 0) {
    const ssize_t sent = send_some(fd, data, size);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A non-blocking socket with a full buffer: wait for room, as a
        // blocking send would.
        pollfd entry{fd, POLLOUT, 0};
        ::poll(&entry, 1, -1);
        continue;
      }
      throw WireError(std::string("wire: send failed: ") +
                      std::strerror(errno));
    }
    if (sent == 0) {
      // Cannot happen for a SOCK_STREAM send of size > 0, but if it ever
      // did, looping forever would be the worst possible response.
      throw WireError("wire: send made no progress");
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
}

bool recv_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = recv_some(fd, data + got, size - got);
    if (n < 0) {
      throw WireError(std::string("wire: recv failed: ") +
                      std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw WireError("wire: EOF inside a frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void check_frame_length(std::uint32_t length) {
  if (length > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds the protocol maximum");
  }
}

void check_frame_crc(const char* header, std::string_view payload) {
  if (!common::record_payload_intact(header, payload)) {
    throw WireError("wire: frame crc mismatch (stream corruption)");
  }
}

}  // namespace

void set_io_chunk_limit_for_test(std::size_t bytes) {
  io_chunk_limit.store(bytes, std::memory_order_relaxed);
}

ssize_t recv_some(int fd, char* data, std::size_t size) {
  ssize_t n;
  do {
    n = ::recv(fd, data, chunked(size), 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

ssize_t send_some(int fd, const char* data, std::size_t size) {
  ssize_t n;
  do {
    n = ::send(fd, data, chunked(size), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  return n;
}

void FrameReader::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t length = common::record_payload_length(buffer_.data());
  check_frame_length(length);
  if (buffer_.size() < kFrameHeaderBytes + length) return std::nullopt;
  check_frame_crc(buffer_.data(),
                  std::string_view(buffer_).substr(kFrameHeaderBytes, length));
  std::string payload = buffer_.substr(kFrameHeaderBytes, length);
  buffer_.erase(0, kFrameHeaderBytes + length);
  return payload;
}

std::optional<std::uint32_t> FrameReader::pending_payload() const {
  if (buffer_.size() < 4) return std::nullopt;
  return common::record_payload_length(buffer_.data());
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("wire: frame payload too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  common::append_record_header(frame, payload);
  frame.append(payload);
  return frame;
}

void write_frame(int fd, std::string_view payload) {
  // One buffered send per frame so concurrent writers (worker threads and
  // the heartbeat) interleave at frame granularity under their send mutex.
  std::string frame = encode_frame(payload);

  if (const chaos::Injection injection =
          chaos::at(chaos::Point::kWireTx, payload.size())) {
    switch (injection.action) {
      case chaos::Action::kDrop:
        return;  // the frame vanishes in flight
      case chaos::Action::kTruncate:
        send_all(fd, frame.data(), frame.size() / 2);
        return;
      case chaos::Action::kCorrupt:
        // Flip a payload byte; the header CRC still covers the original
        // bytes, so the receiver must detect this.
        frame[kFrameHeaderBytes + injection.arg] =
            static_cast<char>(frame[kFrameHeaderBytes + injection.arg] ^ 0x20);
        break;
      case chaos::Action::kDuplicate:
        send_all(fd, frame.data(), frame.size());
        break;  // falls through to the normal (second) send
      case chaos::Action::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(injection.arg));
        break;
      case chaos::Action::kShortSend:
        for (std::size_t i = 0; i < frame.size(); ++i) {
          send_all(fd, frame.data() + i, 1);
        }
        return;
      default:
        break;
    }
  }
  send_all(fd, frame.data(), frame.size());
}

std::optional<std::string> read_frame(int fd) {
  char header[kFrameHeaderBytes];
  if (!recv_all(fd, header, kFrameHeaderBytes)) return std::nullopt;
  const std::uint32_t length = common::record_payload_length(header);
  check_frame_length(length);
  std::string payload(length, '\0');
  if (length != 0 && !recv_all(fd, payload.data(), length)) {
    throw WireError("wire: EOF inside a frame");
  }
  check_frame_crc(header, payload);
  return payload;
}

}  // namespace esv::dist
