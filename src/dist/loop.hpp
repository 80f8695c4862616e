// Poll loop and connection core under the campaign broker and the
// esv-serve daemon: Unix-socket listen/connect, one poll(2) per turn over a
// listener, a wake fd and a connection table, non-blocking framed reads
// delivered frame by frame, and a capped per-connection outbox.
//
// Connections are named by ConnId handles that are never reused: a handle
// held across a close, or across an accept that recycles the closed
// connection's table slot, reaches nothing. Every call taking a ConnId is a
// no-op on a closed handle. Policy stays with the caller. A caller may
// buffer writes through send() (serve's untrusted clients) or write a
// connection's fd() with the blocking write_frame (the broker's workers).
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "dist/wire.hpp"

namespace esv::dist {

/// Exponential backoff with deterministic jitter (docs/RESILIENCE.md):
/// attempt n (0-based) waits base * 2^n seconds, capped at the ceiling,
/// then scaled into [50%, 100%] by a draw from a private seeded Rng. The
/// schedule is a pure function of (base, cap, seed, call sequence): two
/// brokers constructed alike produce byte-identical delay sequences, which
/// is what makes chaos-sweep replays deterministic.
class BackoffSchedule {
 public:
  BackoffSchedule(double base_seconds, double cap_seconds, std::uint64_t seed)
      : base_(base_seconds), cap_(cap_seconds), rng_(seed) {}

  /// Consumes one jitter draw; successive calls with the same attempt still
  /// advance the Rng, so the sequence depends on call order, not wall time.
  double delay_seconds(unsigned attempt) {
    double delay = base_;
    for (unsigned i = 0; i < attempt; ++i) {
      if (delay >= cap_) break;
      delay *= 2.0;
    }
    if (delay > cap_) delay = cap_;
    if (delay < 0.0) delay = 0.0;
    delay *= 0.5 + 0.5 * (static_cast<double>(rng_.next_below(1024)) / 1024.0);
    return delay;
  }

 private:
  double base_;
  double cap_;
  common::Rng rng_;
};

/// Non-blocking listener at `path`, replacing a stale socket file; throws
/// std::runtime_error. connect_unix: a blocking socket, or -1 with errno.
int listen_unix(const std::string& path, int backlog);
int connect_unix(const std::string& path);

using ConnId = std::uint64_t;
inline constexpr ConnId kNoConn = 0;

enum class CloseReason {
  kEof,         // the peer closed, or a recv/send failed
  kCorrupt,     // a WireError while decoding or handling its frames
  kSlowReader,  // outbox over kMaxOutboxBytes, or no write progress in time
  kIdle,        // sweep_timeouts' idle rule
  kClosed,      // close() by the caller, or close_after_flush ran dry
};

/// Cap on one connection's unsent bytes: a reader this far behind is not
/// coming back, and holding more would let it grow the process unbounded.
inline constexpr std::size_t kMaxOutboxBytes = 32u * 1024u * 1024u;

class Loop {
 public:
  /// All but on_frame are optional; each may call back into the Loop.
  /// on_header sees a frame's declared length before its payload is
  /// buffered; on_close is not called when the Loop is destroyed.
  struct Callbacks {
    std::function<void(ConnId)> on_accept;
    std::function<void(ConnId, std::uint32_t declared)> on_header;
    std::function<void(ConnId, const std::string&)> on_frame;
    std::function<void(ConnId, CloseReason)> on_close;
  };

  explicit Loop(Callbacks callbacks);
  ~Loop();
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  void listen(int listen_fd);  // adopts (and later closes) the listener
  /// Ends the current or next turn's wait. Async-signal-safe (one write(2)).
  void wake();
  /// One poll(2) for up to timeout_ms, then: flush writable outboxes, one
  /// read per readable connection with its complete frames delivered, and
  /// accept. False when poll fails (other than EINTR).
  bool turn(int timeout_ms);
  /// Reads to EOF delivering every frame, then closes (kEof, or kCorrupt):
  /// salvages what a dead peer process sent before it died.
  void drain(ConnId conn);

  /// Appends one frame to the outbox and flushes what the socket takes now,
  /// so a reply to a responsive peer leaves in the same turn; the rest goes
  /// on POLLOUT.
  void send(ConnId conn, std::string_view payload);
  /// Stops reading; closes once the outbox is empty.
  void close_after_flush(ConnId conn);
  void close(ConnId conn, CloseReason reason = CloseReason::kClosed);
  /// The socket, for callers that write it directly; -1 once closed.
  int fd(ConnId conn);

  /// Closes connections whose outbox made no progress for write_timeout
  /// (kSlowReader) and, with a non-zero idle_timeout, connections with an
  /// empty outbox, nothing received for idle_timeout and !busy(conn) (kIdle).
  void sweep_timeouts(std::chrono::milliseconds write_timeout,
                      std::chrono::milliseconds idle_timeout,
                      const std::function<bool(ConnId)>& busy);
  /// Pushes outboxes for at most `budget`; stalled readers forfeit the rest.
  void flush_blocking(std::chrono::milliseconds budget);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    ConnId id = kNoConn;  // kNoConn marks a free table slot
    int fd = -1;
    FrameReader reader;
    std::string outbox;  // bytes before outbox_off are sent
    std::size_t outbox_off = 0;
    bool closing = false;
    Clock::time_point last_read{};
    Clock::time_point last_write_progress{};

    bool pending_output() const { return outbox_off < outbox.size(); }
  };

  Conn* find(ConnId conn);
  /// One recv into the reader; returns what recv returned.
  ssize_t receive(Conn& conn);
  void accept_all();
  void deliver(ConnId conn);
  void flush(ConnId conn);

  Callbacks callbacks_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t serial_ = 0;
  std::vector<pollfd> pollfds_;  // rebuilt every turn, storage reused
  std::vector<ConnId> polled_;
  std::unique_ptr<char[]> buffer_;
};

}  // namespace esv::dist
