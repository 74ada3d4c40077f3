// Wire-format tests for `wcp-stream 1` (src/serve/protocol.h): encode/decode
// round-trips for every frame type, the malformed-frame corpus (every entry
// must fail with a "wcp-stream parse error:"-prefixed std::invalid_argument,
// never parse as zeros), and FrameAssembler reassembly under pathological
// byte fragmentation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace wcp::serve {
namespace {

std::string error_of(const std::vector<std::uint8_t>& bytes,
                     std::uint32_t snapshot_slots = 0) {
  try {
    (void)decode_frame(bytes, snapshot_slots);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

void expect_parse_error(const std::vector<std::uint8_t>& bytes,
                        const std::string& needle,
                        std::uint32_t snapshot_slots = 0) {
  const std::string msg = error_of(bytes, snapshot_slots);
  ASSERT_FALSE(msg.empty()) << "expected a parse error containing: " << needle;
  EXPECT_EQ(msg.rfind("wcp-stream parse error: ", 0), 0u) << msg;
  EXPECT_NE(msg.find(needle), std::string::npos) << msg;
}

TEST(ServeProtocol, HelloRoundTrip) {
  const auto bytes = encode_frame(make_hello(6, 3), 42);
  const Frame f = decode_frame(bytes);
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_EQ(f.hello.version, kStreamVersion);
  EXPECT_EQ(f.hello.slots, 6u);
  EXPECT_EQ(f.hello.num_predicates, 3u);
}

TEST(ServeProtocol, SubscribeRoundTrip) {
  const auto bytes =
      encode_frame(make_subscribe(7, StreamAlgo::kLatticeOnline, 2, 12345), 1);
  const Frame f = decode_frame(bytes);
  EXPECT_EQ(f.type, FrameType::kSubscribe);
  EXPECT_EQ(f.subscribe.sub_id, 7u);
  EXPECT_EQ(f.subscribe.algo, StreamAlgo::kLatticeOnline);
  EXPECT_EQ(f.subscribe.pred_index, 2u);
  EXPECT_EQ(f.subscribe.max_cuts, 12345);
  const Frame g =
      decode_frame(encode_frame(make_subscribe(0, StreamAlgo::kSlicer, 0), 2));
  EXPECT_EQ(g.subscribe.max_cuts, -1);
}

TEST(ServeProtocol, SnapshotRoundTrip) {
  const std::vector<StateIndex> clock = {3, 1, 4};
  const auto bytes = encode_frame(make_snapshot(1, 0b101, clock), 9);
  const Frame f = decode_frame(bytes, /*snapshot_slots=*/3);
  EXPECT_EQ(f.type, FrameType::kSnapshot);
  EXPECT_EQ(f.snapshot.slot, 1u);
  EXPECT_EQ(f.snapshot.pred_mask, 0b101u);
  EXPECT_EQ(f.snapshot.clock, clock);
}

TEST(ServeProtocol, EosFinishAckRoundTrip) {
  EXPECT_EQ(decode_frame(encode_frame(make_eos(5), 0)).eos.slot, 5u);
  EXPECT_EQ(decode_frame(encode_frame(make_eos(), 0)).eos.slot, kAllSlots);
  EXPECT_EQ(decode_frame(encode_frame(make_finish(), 3)).type,
            FrameType::kFinish);
  EXPECT_EQ(decode_frame(encode_frame(make_ack(99), 0)).ack.next_seq, 99u);
}

TEST(ServeProtocol, VerdictRoundTrip) {
  const Frame f =
      decode_frame(encode_frame(make_verdict(3, true, false, {1, 4, 5}), 8));
  EXPECT_EQ(f.verdict.sub_id, 3u);
  EXPECT_TRUE(f.verdict.detected);
  EXPECT_FALSE(f.verdict.truncated);
  EXPECT_EQ(f.verdict.cut, (std::vector<StateIndex>{1, 4, 5}));
  const Frame g =
      decode_frame(encode_frame(make_verdict(0, false, true, {}), 9));
  EXPECT_FALSE(g.verdict.detected);
  EXPECT_TRUE(g.verdict.truncated);
  EXPECT_TRUE(g.verdict.cut.empty());
}

TEST(ServeProtocol, StatsRoundTrip) {
  ServeStats s;
  s.frames_in = 10;
  s.snapshots_in = 7;
  s.gc_rounds = 2;
  s.states_retired = 5;
  s.checker_peak_bytes = 4096;
  const Frame f = decode_frame(encode_frame(make_stats(s), 0));
  EXPECT_EQ(f.stats.stats.frames_in, 10);
  EXPECT_EQ(f.stats.stats.snapshots_in, 7);
  EXPECT_EQ(f.stats.stats.gc_rounds, 2);
  EXPECT_EQ(f.stats.stats.states_retired, 5);
  EXPECT_EQ(f.stats.stats.checker_peak_bytes, 4096);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const Frame f =
      decode_frame(encode_frame(make_error("wcp-stream parse error: x"), 0));
  EXPECT_EQ(f.error.message, "wcp-stream parse error: x");
}

// ---- malformed corpus --------------------------------------------------

TEST(ServeProtocol, TruncatedHeader) {
  expect_parse_error({}, "truncated frame header");
  expect_parse_error({0x01, 0x02}, "truncated frame header");
}

TEST(ServeProtocol, TruncatedBody) {
  auto bytes = encode_frame(make_hello(4, 1), 0);
  bytes.erase(bytes.end() - 3, bytes.end());  // length field promises more
  expect_parse_error(bytes, "length field promises");
}

TEST(ServeProtocol, LengthOutOfRange) {
  // length = 2 (< kFrameOverhead) followed by two bytes.
  expect_parse_error({2, 0, 0, 0, 0xAA, 0xBB}, "out of range");
}

TEST(ServeProtocol, BadMagic) {
  auto bytes = encode_frame(make_hello(4, 1), 0);
  bytes[4 + 9] ^= 0xFF;  // first magic byte
  expect_parse_error(bytes, "magic");
}

TEST(ServeProtocol, BadVersion) {
  auto bytes = encode_frame(make_hello(4, 1), 0);
  bytes[4 + 9 + 8] = 2;  // version u32 after magic
  expect_parse_error(bytes, "unsupported version 2");
}

TEST(ServeProtocol, UnknownFrameType) {
  auto bytes = encode_frame(make_finish(), 5);
  bytes[4 + 8] = 0x7E;  // type byte
  expect_parse_error(bytes, "unknown frame type 126");
}

TEST(ServeProtocol, SnapshotWidthMismatch) {
  const auto bytes = encode_frame(make_snapshot(0, 1, {1, 1, 1}), 0);
  expect_parse_error(bytes, "session has 4 slots", /*snapshot_slots=*/4);
}

TEST(ServeProtocol, SnapshotRaggedClockBytes) {
  auto bytes = encode_frame(make_snapshot(0, 1, {1, 1, 1}), 0);
  bytes.pop_back();
  // Now the trailing clock array is not a multiple of 8 bytes: the length
  // field disagrees with the payload, caught before any clock is read.
  expect_parse_error(bytes, "length field promises");
}

TEST(ServeProtocol, TrailingGarbage) {
  auto bytes = encode_frame(make_ack(1), 0);
  // Grow both the buffer and the length field by one byte.
  bytes.push_back(0xCC);
  bytes[0] += 1;
  expect_parse_error(bytes, "trailing");
}

TEST(ServeProtocol, ErrorNeverSilentlyZero) {
  // A frame of all-zero payload bytes must not decode as a harmless
  // default: type 0 is not a valid FrameType.
  std::vector<std::uint8_t> bytes(4 + 9, 0);
  bytes[0] = 9;  // length = kFrameOverhead, seq = 0, type = 0
  expect_parse_error(bytes, "unknown frame type 0");
}

TEST(ServeProtocol, PeekHeaderMatchesDecode) {
  const auto bytes = encode_frame(make_eos(2), 77);
  const FrameHeader h = peek_header(bytes);
  EXPECT_EQ(h.seq, 77u);
  EXPECT_EQ(h.type, FrameType::kEos);
  EXPECT_EQ(h.length + 4u, bytes.size());
}

TEST(ServeProtocol, AssemblerReassemblesByteByByte) {
  std::vector<std::uint8_t> stream;
  const auto a = encode_frame(make_hello(4, 2), 0);
  const auto b = encode_frame(make_snapshot(0, 1, {1, 0, 0, 0}), 1);
  const auto c = encode_frame(make_finish(), 2);
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), c.begin(), c.end());

  FrameAssembler asm_;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const std::uint8_t byte : stream) {
    asm_.feed(std::span<const std::uint8_t>(&byte, 1));
    while (auto f = asm_.next()) frames.push_back(*f);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_EQ(frames[2], c);
  EXPECT_EQ(asm_.buffered(), 0u);
}

TEST(ServeProtocol, AssemblerRejectsCorruptLength) {
  FrameAssembler asm_;
  const std::vector<std::uint8_t> corrupt = {0xFF, 0xFF, 0xFF, 0xFF, 0};
  asm_.feed(corrupt);
  EXPECT_THROW((void)asm_.next(), std::invalid_argument);
}

TEST(ServeProtocol, AlgoNames) {
  EXPECT_EQ(stream_algo_from_string("token"), StreamAlgo::kToken);
  EXPECT_EQ(stream_algo_from_string("checker"), StreamAlgo::kChecker);
  EXPECT_EQ(stream_algo_from_string("lattice-online"),
            StreamAlgo::kLatticeOnline);
  EXPECT_EQ(stream_algo_from_string("slicer"), StreamAlgo::kSlicer);
  EXPECT_THROW((void)stream_algo_from_string("dd"), std::invalid_argument);
  EXPECT_STREQ(to_string(StreamAlgo::kChecker), "checker");
  EXPECT_STREQ(to_string(FrameType::kSnapshot), "snapshot");
}

}  // namespace
}  // namespace wcp::serve
