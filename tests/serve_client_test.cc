// StreamClient's send path against recording transports. A pump round
// hands the whole send window to Transport::send_batch in one call (one
// socket write over TCP); the bytes and sequence numbers that reach the
// wire must be exactly those of the one-send()-per-frame path, and an ACK
// must release exactly the frames below its next_seq — what is left is
// what retransmit() resends, again as one batch. An ACK past the frames
// sent is refused.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace wcp::serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Keeps every frame sent through send() and hands back whatever the test
/// queued in `inbox`. It does not override send_batch, so a batch reaches
/// it as one send() per frame: the per-frame path.
class PerFrameTransport : public Transport {
 public:
  void send(Bytes frame) override {
    ++sends;
    frames.push_back(std::move(frame));
  }
  std::optional<Bytes> receive(bool) override {
    if (inbox.empty()) return std::nullopt;
    Bytes f = std::move(inbox.front());
    inbox.pop_front();
    return f;
  }
  [[nodiscard]] bool closed() const override { return false; }
  void close() override {}

  std::int64_t sends = 0;
  std::vector<Bytes> frames;
  std::deque<Bytes> inbox;
};

/// The same, but also records each send_batch() call as one batch.
class BatchTransport final : public PerFrameTransport {
 public:
  void send_batch(std::span<const std::span<const std::uint8_t>> batch)
      override {
    batches.push_back(batch.size());
    for (const std::span<const std::uint8_t> f : batch)
      frames.emplace_back(f.begin(), f.end());
  }

  std::vector<std::size_t> batches;  // frames per send_batch() call
};

constexpr std::size_t kFrames = 70;

/// A 70-frame stream: hello, one subscription, 67 snapshots and finish.
void enqueue_stream(StreamClient& c) {
  c.hello(2, 1);
  c.subscribe(0, StreamAlgo::kToken, 0);
  for (StateIndex k = 1; k <= 67; ++k)
    c.snapshot(static_cast<std::uint32_t>(k % 2), k % 3 == 0 ? 1u : 0u,
               {k, k});
  c.finish();
}

std::vector<std::uint64_t> seqs(const std::vector<Bytes>& frames) {
  std::vector<std::uint64_t> out;
  for (const Bytes& f : frames) out.push_back(peek_header(f).seq);
  return out;
}

std::vector<std::uint64_t> range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = lo; s < hi; ++s) out.push_back(s);
  return out;
}

TEST(ServeClient, PumpRoundSendsTheWholeWindowInOneBatch) {
  BatchTransport t;
  StreamClient c(t, ClientOptions{64});
  enqueue_stream(c);

  EXPECT_TRUE(c.pump());
  EXPECT_EQ(t.batches, std::vector<std::size_t>{64});
  EXPECT_EQ(t.sends, 0);  // nothing went around the batch
  EXPECT_EQ(seqs(t.frames), range(0, 64));
  EXPECT_FALSE(c.pump());  // the window is full and nothing was acked
  EXPECT_EQ(t.batches.size(), 1u);
}

TEST(ServeClient, BatchedBytesEqualThePerFramePath) {
  BatchTransport batched;
  PerFrameTransport per_frame;
  StreamClient a(batched, ClientOptions{64});
  StreamClient b(per_frame, ClientOptions{64});
  enqueue_stream(a);
  enqueue_stream(b);

  a.pump();
  b.pump();
  EXPECT_EQ(per_frame.sends, 64);
  EXPECT_EQ(batched.frames, per_frame.frames);

  // ACK the first ten on both: the pump that reads it sends the last six.
  batched.inbox.push_back(encode_frame(make_ack(10), 0));
  per_frame.inbox.push_back(encode_frame(make_ack(10), 0));
  EXPECT_TRUE(a.pump());
  EXPECT_TRUE(b.pump());
  EXPECT_EQ(batched.batches, (std::vector<std::size_t>{64, 6}));
  EXPECT_EQ(per_frame.sends, static_cast<std::int64_t>(kFrames));
  EXPECT_EQ(batched.frames, per_frame.frames);
  EXPECT_EQ(seqs(batched.frames), range(0, kFrames));
}

TEST(ServeClient, AckReleasesExactlyTheFramesBelowIt) {
  BatchTransport t;
  StreamClient c(t, ClientOptions{64});
  enqueue_stream(c);
  c.pump();
  t.inbox.push_back(encode_frame(make_ack(10), 0));
  c.pump();
  const std::vector<Bytes> sent = t.frames;  // seq 0..69, once each

  // Everything from seq 10 on is still unacked: one batch resends it all,
  // byte for byte.
  t.frames.clear();
  c.retransmit();
  EXPECT_EQ(t.batches, (std::vector<std::size_t>{64, 6, 60}));
  EXPECT_EQ(seqs(t.frames), range(10, kFrames));
  EXPECT_EQ(t.frames, std::vector<Bytes>(sent.begin() + 10, sent.end()));
  EXPECT_EQ(c.retransmits(), 1);

  // A stale ACK changes nothing; a cumulative one releases up to it.
  t.inbox.push_back(encode_frame(make_ack(5), 1));
  t.inbox.push_back(encode_frame(make_ack(69), 2));
  c.pump();
  t.frames.clear();
  c.retransmit();
  EXPECT_EQ(seqs(t.frames), range(69, kFrames));

  t.inbox.push_back(encode_frame(make_ack(kFrames), 3));
  c.pump();
  EXPECT_TRUE(c.idle());
  t.frames.clear();
  c.retransmit();  // nothing unacked: no batch at all
  EXPECT_TRUE(t.frames.empty());
  EXPECT_EQ(t.batches.size(), 4u);
}

TEST(ServeClient, AckPastTheFramesSentFailsClosed) {
  BatchTransport t;
  StreamClient c(t, ClientOptions{64});
  enqueue_stream(c);
  c.pump();  // seqs 0..63 sent

  // Accepting it would release the whole window and misfile every later
  // frame; the client must refuse it and name both seqs.
  t.inbox.push_back(encode_frame(make_ack(1000), 0));
  try {
    c.pump();
    FAIL() << "an ACK past the frames sent was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "wcp-stream parse error: ACK 1000 is past the frames sent "
                 "(next seq 64)");
  }
  EXPECT_FALSE(c.idle());
}

}  // namespace
}  // namespace wcp::serve
