#include "dist/loop.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

namespace esv::dist {

namespace {

constexpr std::size_t kReadBytes = 64 * 1024;  // one recv per turn

/// A close-on-exec stream socket and the address of `path`; -1 with errno
/// ENAMETOOLONG when the path does not fit.
int unix_socket(const std::string& path, int flags, sockaddr_un& addr) {
  addr = sockaddr_un{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | flags, 0);
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr;
  const int fd = unix_socket(path, SOCK_NONBLOCK, addr);
  if (fd >= 0) ::unlink(path.c_str());
  if (fd < 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot listen on " + path + ": " + why);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr;
  const int fd = unix_socket(path, 0, addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    return fd;
  }
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return -1;
}

Loop::Loop(Callbacks callbacks)
    : callbacks_(std::move(callbacks)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      buffer_(new char[kReadBytes]) {
  if (wake_fd_ < 0) throw std::runtime_error("cannot create a wake eventfd");
}

Loop::~Loop() {
  for (const Conn& conn : conns_) {
    if (conn.id != kNoConn) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_fd_);
}

void Loop::listen(int listen_fd) { listen_fd_ = listen_fd; }

void Loop::wake() {
  const std::uint64_t one = 1;
  // A saturated counter already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

Loop::Conn* Loop::find(ConnId conn) {
  // Low 32 bits: the table slot; high bits: a serial that a recycled slot
  // never repeats.
  const std::size_t slot = conn & 0xFFFFFFFFu;
  if (conn == kNoConn || slot >= conns_.size()) return nullptr;
  return conns_[slot].id == conn ? &conns_[slot] : nullptr;
}

int Loop::fd(ConnId conn) {
  const Conn* found = find(conn);
  return found != nullptr ? found->fd : -1;
}

bool Loop::turn(int timeout_ms) {
  pollfds_.clear();
  polled_.clear();
  pollfds_.push_back({listen_fd_, POLLIN, 0});  // poll skips fd -1
  pollfds_.push_back({wake_fd_, POLLIN, 0});
  for (const Conn& conn : conns_) {
    if (conn.id == kNoConn) continue;
    const short events = static_cast<short>(
        (conn.closing ? 0 : POLLIN) | (conn.pending_output() ? POLLOUT : 0));
    pollfds_.push_back({conn.fd, events, 0});
    polled_.push_back(conn.id);
  }
  if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) < 0) {
    return errno == EINTR;
  }
  if ((pollfds_[1].revents & POLLIN) != 0) {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
  }
  // By handle, not table position: a callback may close any connection.
  for (std::size_t k = 0; k < polled_.size(); ++k) {
    const short revents = pollfds_[k + 2].revents;
    const ConnId id = polled_[k];
    if ((revents & POLLOUT) != 0) flush(id);
    Conn* conn = find(id);
    if (conn == nullptr || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    if (conn->closing) {
      // Not reading any more; a hang-up while the outbox drains ends it.
      if ((revents & (POLLHUP | POLLERR)) != 0) close(id, CloseReason::kEof);
      continue;
    }
    const ssize_t got = receive(*conn);
    if (got > 0) {
      deliver(id);
    } else if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      close(id, CloseReason::kEof);
    }
  }
  if ((pollfds_[0].revents & POLLIN) != 0) accept_all();
  return true;
}

void Loop::accept_all() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    std::size_t slot = 0;
    while (slot < conns_.size() && conns_[slot].id != kNoConn) ++slot;
    if (slot == conns_.size()) conns_.emplace_back();
    Conn& conn = conns_[slot];
    conn.id = (++serial_ << 32) | slot;
    conn.fd = fd;
    conn.last_read = conn.last_write_progress = Clock::now();
    if (callbacks_.on_accept) callbacks_.on_accept(conn.id);
  }
}

void Loop::deliver(ConnId id) {
  try {
    for (Conn* conn = find(id); conn != nullptr && !conn->closing;
         conn = find(id)) {
      const std::optional<std::uint32_t> declared =
          conn->reader.pending_payload();
      if (declared && callbacks_.on_header) {
        callbacks_.on_header(id, *declared);
        conn = find(id);
        if (conn == nullptr || conn->closing) return;
      }
      const std::optional<std::string> payload = conn->reader.next();
      if (!payload) return;
      callbacks_.on_frame(id, *payload);
    }
  } catch (const WireError&) {
    close(id, CloseReason::kCorrupt);  // no recoverable framing after this
  }
}

ssize_t Loop::receive(Conn& conn) {
  const ssize_t got = recv_some(conn.fd, buffer_.get(), kReadBytes);
  if (got > 0) {
    conn.reader.feed(buffer_.get(), static_cast<std::size_t>(got));
    conn.last_read = Clock::now();
  }
  return got;
}

void Loop::drain(ConnId id) {
  for (Conn* conn = find(id); conn != nullptr && receive(*conn) > 0;
       conn = find(id)) {
    deliver(id);
  }
  close(id, CloseReason::kEof);
}

void Loop::send(ConnId id, std::string_view payload) {
  Conn* conn = find(id);
  if (conn == nullptr) return;
  const std::size_t unsent = conn->outbox.size() - conn->outbox_off;
  if (unsent + kFrameHeaderBytes + payload.size() > kMaxOutboxBytes) {
    close(id, CloseReason::kSlowReader);
    return;
  }
  if (unsent == 0) conn->last_write_progress = Clock::now();
  common::append_record_header(conn->outbox, payload);
  conn->outbox.append(payload);
  flush(id);
}

void Loop::flush(ConnId id) {
  Conn* conn = find(id);
  if (conn == nullptr) return;
  while (conn->pending_output()) {
    const ssize_t sent =
        send_some(conn->fd, conn->outbox.data() + conn->outbox_off,
                  conn->outbox.size() - conn->outbox_off);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
      close(id, CloseReason::kEof);
      return;
    }
    conn->outbox_off += static_cast<std::size_t>(sent);
    conn->last_write_progress = Clock::now();
  }
  conn->outbox.clear();
  conn->outbox_off = 0;
  if (conn->closing) close(id);
}

void Loop::close_after_flush(ConnId id) {
  if (Conn* conn = find(id)) {
    conn->closing = true;
    flush(id);
  }
}

void Loop::close(ConnId id, CloseReason reason) {
  Conn* conn = find(id);
  if (conn == nullptr) return;
  ::close(conn->fd);
  *conn = Conn{};
  if (callbacks_.on_close) callbacks_.on_close(id, reason);
}

void Loop::sweep_timeouts(std::chrono::milliseconds write_timeout,
                          std::chrono::milliseconds idle_timeout,
                          const std::function<bool(ConnId)>& busy) {
  const Clock::time_point now = Clock::now();
  for (const Conn& conn : conns_) {
    const ConnId id = conn.id;
    if (id == kNoConn) continue;
    if (conn.pending_output()) {
      if (now - conn.last_write_progress >= write_timeout) {
        close(id, CloseReason::kSlowReader);
      }
    } else if (idle_timeout.count() != 0 && !conn.closing &&
               now - conn.last_read >= idle_timeout && !busy(id)) {
      close(id, CloseReason::kIdle);
    }
  }
}

void Loop::flush_blocking(std::chrono::milliseconds budget) {
  const Clock::time_point deadline = Clock::now() + budget;
  for (;;) {
    pollfds_.clear();
    for (const Conn& conn : conns_) {
      flush(conn.id);
      if (conn.id != kNoConn && conn.pending_output()) {
        pollfds_.push_back({conn.fd, POLLOUT, 0});
      }
    }
    const Clock::time_point now = Clock::now();
    if (pollfds_.empty() || now >= deadline) return;
    const long long left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (::poll(pollfds_.data(), pollfds_.size(),
               static_cast<int>(std::min(left, 100LL))) < 0 &&
        errno != EINTR) {
      return;
    }
  }
}

}  // namespace esv::dist
