// Tests for the poll loop and connection core under the campaign broker and
// the serve daemon: handle stability when connections close and are
// accepted within one turn, byte-at-a-time frame reassembly, corrupt-frame
// isolation, the outbox cap, the drain-to-EOF salvage path, the wake fd,
// and a blocking write_frame on a non-blocking socket whose buffer is full.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/loop.hpp"
#include "dist/wire.hpp"

namespace esv::dist {
namespace {

std::string temp_socket(const std::string& name) {
  return ::testing::TempDir() + "esv_loop_" + std::to_string(::getpid()) +
         "_" + name + ".sock";
}

/// A Loop on a fresh socket that records every callback.
struct Harness {
  explicit Harness(const std::string& name)
      : path(temp_socket(name)),
        loop({[this](ConnId conn) { accepted.push_back(conn); },
              nullptr,
              [this](ConnId conn, const std::string& payload) {
                frames.emplace_back(conn, payload);
                if (on_frame) on_frame(conn, payload);
              },
              [this](ConnId conn, CloseReason reason) {
                closed.emplace_back(conn, reason);
              }}) {
    loop.listen(listen_unix(path, 16));
  }
  ~Harness() { ::unlink(path.c_str()); }

  /// Connects a client and turns the loop until it is accepted.
  std::pair<int, ConnId> connect() {
    const int fd = connect_unix(path);
    EXPECT_GE(fd, 0);
    const std::size_t before = accepted.size();
    for (int i = 0; i < 100 && accepted.size() == before; ++i) loop.turn(100);
    EXPECT_EQ(accepted.size(), before + 1);
    return {fd, accepted.empty() ? kNoConn : accepted.back()};
  }

  std::optional<CloseReason> close_reason(ConnId conn) const {
    for (const auto& [id, reason] : closed) {
      if (id == conn) return reason;
    }
    return std::nullopt;
  }

  std::string path;
  std::vector<ConnId> accepted;
  std::vector<std::pair<ConnId, std::string>> frames;
  std::vector<std::pair<ConnId, CloseReason>> closed;
  std::function<void(ConnId, const std::string&)> on_frame;
  Loop loop;
};

TEST(DistLoopTest, HandlesStayStableAcrossCloseAndAcceptInOneTurn) {
  Harness h("stable");
  auto [fd_a, a] = h.connect();
  auto [fd_b, b] = h.connect();
  ASSERT_NE(a, b);

  // Within one turn: A's frame closes B, whose frame is already readable,
  // and a third client waits in the accept queue to take B's table slot.
  h.on_frame = [&](ConnId conn, const std::string&) {
    if (conn == a) h.loop.close(b);
  };
  write_frame(fd_a, "from-a");
  write_frame(fd_b, "from-b");
  const int fd_c = connect_unix(h.path);
  ASSERT_GE(fd_c, 0);
  ASSERT_TRUE(h.loop.turn(1000));

  ASSERT_EQ(h.frames.size(), 1u);  // B's readiness was not delivered
  EXPECT_EQ(h.frames[0], std::make_pair(a, std::string("from-a")));
  ASSERT_EQ(h.accepted.size(), 3u);
  const ConnId c = h.accepted.back();
  EXPECT_NE(c, b);
  EXPECT_NE(c, a);
  EXPECT_EQ(h.close_reason(b), CloseReason::kClosed);
  EXPECT_EQ(h.loop.fd(b), -1);
  EXPECT_GE(h.loop.fd(a), 0);
  EXPECT_GE(h.loop.fd(c), 0);

  // The dead handle reaches nothing, even though C now holds its slot.
  h.loop.send(b, "lost");
  h.loop.close(b);
  h.loop.send(c, "to-c");
  EXPECT_EQ(read_frame(fd_c), std::optional<std::string>("to-c"));
  char byte = 0;
  EXPECT_LE(::recv(fd_b, &byte, 1, 0), 0);  // B saw its close, nothing else

  write_frame(fd_c, "from-c");
  for (int i = 0; i < 100 && h.frames.size() < 2; ++i) h.loop.turn(100);
  ASSERT_EQ(h.frames.size(), 2u);
  EXPECT_EQ(h.frames[1], std::make_pair(c, std::string("from-c")));
  for (const int fd : {fd_a, fd_b, fd_c}) ::close(fd);
}

TEST(DistLoopTest, ReassemblesFramesReadOneByteAtATime) {
  Harness h("bytes");
  auto [fd, conn] = h.connect();
  const std::string big(300, 'x');
  write_frame(fd, "{}");
  write_frame(fd, big);
  set_io_chunk_limit_for_test(1);
  for (int i = 0; i < 2000 && h.frames.size() < 2; ++i) h.loop.turn(100);
  set_io_chunk_limit_for_test(0);
  ASSERT_EQ(h.frames.size(), 2u);
  EXPECT_EQ(h.frames[0], std::make_pair(conn, std::string("{}")));
  EXPECT_EQ(h.frames[1], std::make_pair(conn, big));
  EXPECT_TRUE(h.closed.empty());
  ::close(fd);
}

TEST(DistLoopTest, CorruptCrcClosesOnlyThatConnection) {
  Harness h("corrupt");
  auto [fd_bad, bad] = h.connect();
  auto [fd_good, good] = h.connect();
  std::string frame = encode_frame("{\"type\":\"status\"}");
  frame[kFrameHeaderBytes + 3] ^= 0x20;  // the header CRC no longer matches
  ASSERT_EQ(::write(fd_bad, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  write_frame(fd_good, "fine");
  for (int i = 0; i < 100 && (h.frames.empty() || h.closed.empty()); ++i) {
    h.loop.turn(100);
  }
  EXPECT_EQ(h.close_reason(bad), CloseReason::kCorrupt);
  EXPECT_EQ(read_frame(fd_bad), std::nullopt);
  ASSERT_EQ(h.frames.size(), 1u);
  EXPECT_EQ(h.frames[0], std::make_pair(good, std::string("fine")));
  EXPECT_FALSE(h.close_reason(good).has_value());
  h.loop.send(good, "still here");
  EXPECT_EQ(read_frame(fd_good), std::optional<std::string>("still here"));
  ::close(fd_bad);
  ::close(fd_good);
}

TEST(DistLoopTest, OutboxPastTheCapClosesTheConnection) {
  Harness h("cap");
  auto [fd, conn] = h.connect();  // never reads
  const std::string chunk(4u * 1024u * 1024u, 'y');
  std::size_t sent = 0;
  while (h.closed.empty() && sent < 2 * kMaxOutboxBytes) {
    h.loop.send(conn, chunk);
    sent += chunk.size();
    if (h.closed.empty()) {
      EXPECT_GE(h.loop.fd(conn), 0);
    }
  }
  EXPECT_EQ(h.close_reason(conn), CloseReason::kSlowReader);
  EXPECT_GT(sent, kMaxOutboxBytes);  // the socket buffer took a little more
  EXPECT_EQ(h.loop.fd(conn), -1);
  ::close(fd);
}

TEST(DistLoopTest, DrainSalvagesEveryFrameBeforeEof) {
  Harness h("drain");
  auto [fd, conn] = h.connect();
  for (int i = 0; i < 5; ++i) write_frame(fd, "frame-" + std::to_string(i));
  ::close(fd);  // the peer is gone: its EOF is queued behind the frames
  h.loop.drain(conn);
  ASSERT_EQ(h.frames.size(), 5u);
  EXPECT_EQ(h.frames[4], std::make_pair(conn, std::string("frame-4")));
  EXPECT_EQ(h.close_reason(conn), CloseReason::kEof);
  EXPECT_EQ(h.loop.fd(conn), -1);
}

TEST(DistLoopTest, WakeEndsAWaitingTurn) {
  Harness h("wake");
  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&h] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    h.loop.wake();
  });
  EXPECT_TRUE(h.loop.turn(10000));
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(DistLoopTest, WriteFrameWaitsOutAFullNonBlockingSocket) {
  // The loop's connections are non-blocking, yet the broker writes them
  // with the blocking write_frame: a frame larger than the socket buffer
  // must wait for the reader instead of failing on EAGAIN.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK),
            0);
  const std::string payload(8u * 1024u * 1024u, 'z');
  std::string error;
  std::thread writer([&] {
    try {
      write_frame(fds[0], payload);
    } catch (const WireError& e) {
      error = e.what();
      ::shutdown(fds[0], SHUT_WR);  // end the reader's frame early
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::optional<std::string> got;
  try {
    got = read_frame(fds[1]);
  } catch (const WireError&) {
  }
  writer.join();
  EXPECT_EQ(error, "");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace esv::dist
