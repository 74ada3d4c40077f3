// The sequence-and-ACK core (common/seq_window.h) on its own, one table
// row per rule. Each row drives a receiver through a list of arrivals the
// way both hosts do (deliver a kNext arrival, then advance() until null)
// and a sender through pushes and ACKs; the row names what it pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/seq_window.h"

namespace wcp {
namespace {

using Seqs = std::vector<std::uint64_t>;
constexpr SeqArrival kDup = SeqArrival::kDuplicate;
constexpr SeqArrival kStash = SeqArrival::kStashed;
constexpr SeqArrival kNext = SeqArrival::kNext;

struct Row {
  const char* name;
  // Receiver: seqs in arrival order, how each is classified, what reaches
  // the host in order, and the ACK and stash size afterwards.
  Seqs arrivals;
  std::vector<SeqArrival> classes;
  Seqs delivered;
  std::uint64_t ack = 0;
  std::size_t stashed = 0;
  // Sender: seqs 0..sent-1 pushed, then `acks` applied in order. The last
  // ACK is accepted iff `last_ack_ok`; `in_flight` is what stays.
  std::uint64_t sent = 0;
  Seqs acks;
  bool last_ack_ok = true;
  Seqs in_flight;
};

const Row kRows[] = {
    {"in order", {0, 1, 2}, {kNext, kNext, kNext}, {0, 1, 2}, 3, 0,
     0, {}, true, {}},
    {"duplicate below next", {0, 1, 0, 1}, {kNext, kNext, kDup, kDup},
     {0, 1}, 2, 0, 0, {}, true, {}},
    {"duplicate of a stashed seq", {2, 2}, {kStash, kDup}, {}, 0, 1,
     0, {}, true, {}},
    {"stash then drain", {3, 1, 0, 2}, {kStash, kStash, kNext, kNext},
     {0, 1, 2, 3}, 4, 0, 0, {}, true, {}},
    {"drain stops at a gap, stash kept", {2, 4, 0, 1},
     {kStash, kStash, kNext, kNext}, {0, 1, 2}, 3, 1, 0, {}, true, {}},
    {"in order past a stashed seq", {2, 4, 0, 1, 3},
     {kStash, kStash, kNext, kNext, kNext}, {0, 1, 2, 3, 4}, 5, 0,
     0, {}, true, {}},
    {"stale ACK", {}, {}, {}, 0, 0, 5, {3, 2, 0}, true, {3, 4}},
    {"cumulative release", {}, {}, {}, 0, 0, 5, {1, 4}, true, {4}},
    {"cumulative release of everything", {}, {}, {}, 0, 0, 5, {5}, true, {}},
    {"ACK past the sent seqs", {}, {}, {}, 0, 0, 3, {1, 4}, false, {1, 2}},
    {"ACK past an empty window", {}, {}, {}, 0, 0, 0, {1}, false, {}},
    {"lookup of an acked seq", {}, {}, {}, 0, 0, 3, {2}, true, {2}},
};

TEST(SeqWindow, Table) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);

    SeqReceiver<std::uint64_t> rx;
    std::vector<SeqArrival> classes;
    Seqs delivered;
    for (const std::uint64_t seq : row.arrivals) {
      classes.push_back(rx.arrive(seq, [seq] { return seq; }));
      if (classes.back() != kNext) continue;
      delivered.push_back(seq);
      while (const std::uint64_t* next = rx.advance())
        delivered.push_back(*next);
    }
    EXPECT_EQ(classes, row.classes);
    EXPECT_EQ(delivered, row.delivered);
    EXPECT_EQ(rx.next(), row.ack);
    EXPECT_EQ(rx.stashed(), row.stashed);

    // Items are seq + 100, so a lookup that lands on the wrong slot shows.
    SeqSender<std::uint64_t> tx;
    for (std::uint64_t s = 0; s < row.sent; ++s) EXPECT_EQ(tx.push(s + 100), s);
    bool ok = true;
    for (const std::uint64_t a : row.acks) ok = tx.ack(a);
    EXPECT_EQ(ok, row.last_ack_ok);
    EXPECT_EQ(tx.next(), row.sent);
    Seqs in_flight;
    for (const auto& [seq, item] : tx.in_flight()) {
      in_flight.push_back(seq);
      EXPECT_EQ(item, seq + 100);
    }
    EXPECT_EQ(in_flight, row.in_flight);
    for (std::uint64_t s = 0; s <= row.sent; ++s) {
      const std::uint64_t* item = tx.find(s);
      const bool held =
          std::find(in_flight.begin(), in_flight.end(), s) != in_flight.end();
      ASSERT_EQ(item != nullptr, held) << "seq " << s;
      if (held) {
        EXPECT_EQ(*item, s + 100);
      }
    }
  }
}

}  // namespace
}  // namespace wcp
