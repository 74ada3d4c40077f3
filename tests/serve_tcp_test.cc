// Regression tests for the TCP transport's send path. The PR-9 bugfix:
// TcpTransport::send used to swallow every non-EINTR error mid-frame,
// silently dropping the frame tail — the peer's FrameAssembler then reads
// the next frame's bytes as the rest of the current one and the stream is
// desynced forever. These tests pin the fixed contract on real sockets
// (AF_UNIX socketpairs, so no ports and no flakes): a frame is delivered
// byte-identical and whole, or the sender gets an exception naming the
// error — never a silent truncation. Nonblocking sockets (the epoll event
// loop's mode) buffer every send until flush(), and the EAGAIN path of
// flush() must keep the tail, not drop it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/tcp.h"

namespace wcp::serve {
namespace {

/// A connected AF_UNIX stream pair; optionally shrinks the first end's
/// send buffer so a big frame cannot be written in one go.
std::pair<int, int> make_socketpair(int sndbuf = 0) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  if (sndbuf > 0) {
    EXPECT_EQ(0, ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                              sizeof(sndbuf)));
  }
  return {sv[0], sv[1]};
}

/// A frame comfortably larger than any kernel socket buffer we configure.
std::vector<std::uint8_t> big_frame(std::size_t payload,
                                    std::uint64_t seq = 7) {
  return encode_frame(make_error(std::string(payload, 'x')), seq);
}

TEST(ServeTcp, SendToClosedPeerThrowsInsteadOfSilentlyDropping) {
  auto [a_fd, b_fd] = make_socketpair();
  TcpTransport a(a_fd);
  ::close(b_fd);

  // Pre-fix behavior: send() returned silently and the frame vanished.
  EXPECT_THROW(a.send(encode_frame(make_finish(), 0)), std::runtime_error);
  EXPECT_TRUE(a.closed());
  EXPECT_EQ(a.pending_out(), 0u);  // dead stream retains nothing
  // And it keeps failing loudly, not quietly.
  EXPECT_THROW(a.send(encode_frame(make_finish(), 1)), std::runtime_error);
}

TEST(ServeTcp, BlockingSendDeliversLargeFrameWhole) {
  auto [a_fd, b_fd] = make_socketpair(/*sndbuf=*/4096);
  TcpTransport a(a_fd);
  TcpTransport b(b_fd);

  const std::vector<std::uint8_t> frame = big_frame(300'000);
  // The reader drains concurrently; the blocking writer must push the
  // whole frame through the tiny kernel buffer.
  std::thread writer([&] { a.send(frame); });
  const std::optional<std::vector<std::uint8_t>> got =
      b.receive(/*block=*/true);
  writer.join();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);  // byte-identical, tail included
  EXPECT_EQ(a.pending_out(), 0u);
}

TEST(ServeTcp, NonblockingPartialWriteBuffersTheTail) {
  auto [a_fd, b_fd] = make_socketpair(/*sndbuf=*/4096);
  TcpTransport a(a_fd);
  TcpTransport b(b_fd);
  a.set_nonblocking();

  const std::vector<std::uint8_t> frame = big_frame(300'000);
  a.send(frame);
  EXPECT_FALSE(a.flush());  // the kernel takes a prefix; the tail waits
  EXPECT_GT(a.pending_out(), 0u);
  EXPECT_FALSE(a.closed());

  // Alternate reader drain and sender flush (what EPOLLOUT does) until
  // the whole frame crossed; no byte may be lost or reordered.
  std::optional<std::vector<std::uint8_t>> got;
  int rounds = 0;
  while (!got.has_value() && rounds++ < 100'000) {
    if (a.pending_out() > 0) a.flush();
    got = b.receive(/*block=*/false);
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  EXPECT_EQ(a.pending_out(), 0u);
  EXPECT_TRUE(a.flush());  // idempotent once drained

  // The stream stays framed: a second, small frame arrives intact too.
  const std::vector<std::uint8_t> next = encode_frame(make_finish(), 8);
  a.send(next);
  while (a.pending_out() > 0) a.flush();
  got = b.receive(/*block=*/false);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, next);
}

TEST(ServeTcp, NonblockingSendsWaitForOneFlush) {
  auto [a_fd, b_fd] = make_socketpair();
  TcpTransport a(a_fd);
  TcpTransport b(b_fd);
  a.set_nonblocking();

  // What one event-loop wakeup produces: a verdict, an ACK and stats.
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_frame(make_verdict(0, true, false, {1, 2}), 0),
      encode_frame(make_ack(5), 1),
      encode_frame(make_stats(ServeStats{}), 2),
  };
  std::size_t total = 0;
  for (const auto& f : frames) {
    a.send(f);
    total += f.size();
  }
  // send() only buffers: every byte is pending, none is on the wire.
  EXPECT_EQ(a.pending_out(), total);
  EXPECT_FALSE(b.receive(/*block=*/false).has_value());

  EXPECT_TRUE(a.flush());
  EXPECT_EQ(a.pending_out(), 0u);
  for (const auto& f : frames) {
    const std::optional<std::vector<std::uint8_t>> got =
        b.receive(/*block=*/true);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, f);  // whole and in order
  }
}

TEST(ServeTcp, ErrorAfterPartialWriteSurfacesOnFlush) {
  auto [a_fd, b_fd] = make_socketpair(/*sndbuf=*/4096);
  TcpTransport a(a_fd);
  a.set_nonblocking();

  a.send(big_frame(300'000));
  EXPECT_FALSE(a.flush());  // the kernel takes a prefix, the tail waits
  ASSERT_GT(a.pending_out(), 0u);

  ::close(b_fd);  // peer dies mid-frame
  // Draining now hits EPIPE/ECONNRESET: the error must surface, the
  // connection must read as closed.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000 && !a.flush(); ++i) {
        }
      },
      std::runtime_error);
  EXPECT_TRUE(a.closed());
  EXPECT_EQ(a.pending_out(), 0u);
}

TEST(ServeTcp, QueuedFramesStayInOrderAcrossBackpressure) {
  auto [a_fd, b_fd] = make_socketpair(/*sndbuf=*/4096);
  TcpTransport a(a_fd);
  TcpTransport b(b_fd);
  a.set_nonblocking();

  // Two big frames back to back while the kernel buffer is full: both
  // queue behind the same write buffer and must come out whole, in order.
  const std::vector<std::uint8_t> f1 = big_frame(100'000, 1);
  const std::vector<std::uint8_t> f2 = big_frame(100'000, 2);
  a.send(f1);
  a.send(f2);

  std::vector<std::vector<std::uint8_t>> got;
  int rounds = 0;
  while (got.size() < 2 && rounds++ < 100'000) {
    if (a.pending_out() > 0) a.flush();
    while (auto f = b.receive(/*block=*/false)) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], f1);
  EXPECT_EQ(got[1], f2);
}

/// send_batch() views of `frames`.
std::vector<std::span<const std::uint8_t>> views(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  return {frames.begin(), frames.end()};
}

TEST(ServeTcp, BlockingBatchDeliversEveryFrameWholeAndInOrder) {
  auto [a_fd, b_fd] = make_socketpair(/*sndbuf=*/4096);
  TcpTransport a(a_fd);
  TcpTransport b(b_fd);

  // A client window's worth of small frames with big ones among them, so
  // the one flush has to push far more than the kernel buffer holds.
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    frames.push_back(seq % 16 == 5 ? big_frame(50'000, seq)
                                   : encode_frame(make_snapshot(
                                                      0, seq, {1, 2, 3}),
                                                  seq));
  }
  std::thread writer([&] { a.send_batch(views(frames)); });
  std::vector<std::vector<std::uint8_t>> got;
  while (got.size() < frames.size()) {
    std::optional<std::vector<std::uint8_t>> f = b.receive(/*block=*/true);
    if (!f) break;
    got.push_back(std::move(*f));
  }
  writer.join();

  EXPECT_EQ(got, frames);  // every frame whole, in order
  EXPECT_EQ(a.pending_out(), 0u);
}

TEST(ServeTcp, BatchToClosedPeerThrowsAndKeepsNothing) {
  auto [a_fd, b_fd] = make_socketpair();
  TcpTransport a(a_fd);
  ::close(b_fd);

  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_frame(make_finish(), 0), encode_frame(make_finish(), 1)};
  EXPECT_THROW(a.send_batch(views(frames)), std::runtime_error);
  EXPECT_TRUE(a.closed());
  EXPECT_EQ(a.pending_out(), 0u);  // no frame of the batch is kept
  EXPECT_THROW(a.send_batch(views(frames)), std::runtime_error);
  EXPECT_EQ(a.pending_out(), 0u);
}

TEST(ServeTcp, TryAcceptReturnsNullWhenNothingPending) {
  std::unique_ptr<TcpListener> listener;
  try {
    listener = std::make_unique<TcpListener>(0);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "loopback bind unavailable: " << e.what();
  }
  listener->set_nonblocking();
  bool pressure = true;
  EXPECT_EQ(listener->try_accept(&pressure), nullptr);
  EXPECT_FALSE(pressure);

  // And with a pending connection it hands it over.
  const auto client = tcp_connect("127.0.0.1", listener->port());
  std::unique_ptr<TcpTransport> conn;
  for (int i = 0; i < 1000 && !conn; ++i) {
    conn = listener->try_accept();
    if (!conn) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(conn, nullptr);
}

}  // namespace
}  // namespace wcp::serve
