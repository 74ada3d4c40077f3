#include "serve/client.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.h"

namespace wcp::serve {

StreamClient::StreamClient(Transport& transport, ClientOptions opts)
    : transport_(transport), opts_(opts) {
  WCP_REQUIRE(opts_.window >= 1, "client window must be at least 1");
}

void StreamClient::enqueue(const Frame& f) {
  // Frames leave the outbox in order, so this is the seq push() assigns.
  outbox_.push_back(encode_frame(f, sent_.next() + outbox_.size()));
}

void StreamClient::hello(std::uint32_t slots, std::uint32_t num_predicates) {
  enqueue(make_hello(slots, num_predicates));
}

void StreamClient::subscribe(std::uint32_t sub_id, StreamAlgo algo,
                             std::uint32_t pred_index, std::int64_t max_cuts) {
  enqueue(make_subscribe(sub_id, algo, pred_index, max_cuts));
}

void StreamClient::snapshot(std::uint32_t slot, std::uint64_t pred_mask,
                            std::vector<StateIndex> clock) {
  enqueue(make_snapshot(slot, pred_mask, std::move(clock)));
}

void StreamClient::eos(std::uint32_t slot) { enqueue(make_eos(slot)); }

void StreamClient::finish() { enqueue(make_finish()); }

void StreamClient::handle(const Frame& f) {
  switch (f.type) {
    case FrameType::kAck:
      if (!sent_.ack(f.ack.next_seq))
        throw std::runtime_error(
            "wcp-stream parse error: ACK " + std::to_string(f.ack.next_seq) +
            " is past the frames sent (next seq " +
            std::to_string(sent_.next()) + ")");
      break;
    case FrameType::kVerdict:
      verdicts_.push_back(f.verdict);
      break;
    case FrameType::kStats:
      server_stats_ = f.stats.stats;
      done_ = true;
      break;
    case FrameType::kError:
      throw std::runtime_error(f.error.message);
    default:
      // A server must only speak ack/verdict/stats/error.
      throw std::runtime_error(
          "wcp-stream parse error: client-bound stream carries frame type " +
          std::string(to_string(f.type)));
  }
}

bool StreamClient::pump(bool block) {
  bool progressed = false;
  // Run send and receive rounds to a fixed point: ACKs drained in one round
  // open the window for the frames the next round sends. Stopping after
  // one round would strand those frames in the outbox, and a caller that
  // pumps once per readable wakeup would never be woken to send them.
  for (bool moved = true; moved;) {
    moved = false;
    // The whole window leaves as one batch (one socket write over TCP).
    const std::size_t room = std::min(
        outbox_.size(), opts_.window - sent_.in_flight().size());
    if (room > 0) {
      batch_.assign(outbox_.begin(),
                    outbox_.begin() + static_cast<std::ptrdiff_t>(room));
      transport_.send_batch(batch_);
      for (std::size_t i = 0; i < room; ++i) {
        sent_.push(std::move(outbox_.front()));
        outbox_.pop_front();
      }
      moved = true;
    }
    while (std::optional<std::vector<std::uint8_t>> raw =
               transport_.receive(/*block=*/false)) {
      moved = true;
      handle(decode_frame(*raw));
    }
    if (!moved && !progressed && block && !done_) {
      if (std::optional<std::vector<std::uint8_t>> raw =
              transport_.receive(/*block=*/true)) {
        moved = true;
        handle(decode_frame(*raw));
      }
    }
    progressed |= moved;
  }
  return progressed;
}

void StreamClient::retransmit() {
  if (sent_.in_flight().empty()) return;
  batch_.clear();
  for (const auto& [seq, bytes] : sent_.in_flight())
    batch_.emplace_back(bytes);
  transport_.send_batch(batch_);
  ++retransmits_;
}

}  // namespace wcp::serve
