// sim::Payload: the type-erased message box every simulated packet carries.
#include "sim/payload.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace wcp::sim {
namespace {

// Counts live objects; every constructed object must be destroyed once.
struct Counted {
  static inline int live = 0;
  static inline int constructed = 0;
  int value = 0;
  explicit Counted(int v) : value(v) { ++live, ++constructed; }
  Counted(const Counted& o) : value(o.value) { ++live, ++constructed; }
  Counted(Counted&& o) noexcept : value(o.value) { ++live, ++constructed; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }
};

// Too big for the inline buffer: stored on the heap.
struct Big {
  std::array<std::int64_t, 32> words{};
};

// A throwing move cannot live inline (moves of the box are noexcept).
struct ThrowingMove {
  int value = 0;
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&& o) noexcept(false) : value(o.value) {}
};

static_assert(Payload::fits_inline<int>);
static_assert(Payload::fits_inline<std::vector<int>>);
static_assert(!Payload::fits_inline<Big>);
static_assert(!Payload::fits_inline<ThrowingMove>);
static_assert(std::is_nothrow_move_constructible_v<Payload>);

TEST(Payload, EmptyByDefault) {
  Payload p;
  EXPECT_FALSE(p.has_value());
  EXPECT_EQ(p.type(), typeid(void));
  EXPECT_EQ(payload_cast<int>(&p), nullptr);
  EXPECT_THROW(payload_cast<int>(p), std::bad_cast);
}

TEST(Payload, InlineValueRoundTrips) {
  Payload p = std::vector<int>{1, 2, 3};
  EXPECT_TRUE(p.has_value());
  EXPECT_EQ(p.type(), typeid(std::vector<int>));
  ASSERT_NE(payload_cast<std::vector<int>>(&p), nullptr);
  EXPECT_EQ(payload_cast<std::vector<int>>(p), (std::vector<int>{1, 2, 3}));
  // The value lives inside the box.
  const auto* v = payload_cast<std::vector<int>>(&p);
  const auto* box = reinterpret_cast<const unsigned char*>(&p);
  const auto* at = reinterpret_cast<const unsigned char*>(v);
  EXPECT_TRUE(at >= box && at < box + sizeof(Payload));
}

TEST(Payload, HeapFallbackRoundTrips) {
  Big b;
  b.words[31] = 42;
  Payload p = b;
  ASSERT_NE(payload_cast<Big>(&p), nullptr);
  EXPECT_EQ(payload_cast<Big>(p).words[31], 42);
  const auto* at = reinterpret_cast<const unsigned char*>(payload_cast<Big>(&p));
  const auto* box = reinterpret_cast<const unsigned char*>(&p);
  EXPECT_FALSE(at >= box && at < box + sizeof(Payload));

  Payload t = ThrowingMove{};
  EXPECT_NE(payload_cast<ThrowingMove>(&t), nullptr);
}

TEST(Payload, CopyIsDeep) {
  for (const bool big : {false, true}) {
    Payload a = big ? Payload(Big{}) : Payload(std::vector<int>{7});
    Payload b = a;
    if (big) {
      payload_cast<Big>(&b)->words[0] = 5;
      EXPECT_EQ(payload_cast<Big>(&a)->words[0], 0);
    } else {
      payload_cast<std::vector<int>>(&b)->push_back(8);
      EXPECT_EQ(payload_cast<std::vector<int>>(&a)->size(), 1u);
    }
    Payload c;
    c = a;  // copy-assign into an empty box
    EXPECT_EQ(c.type(), a.type());
    c = c;  // self-assignment keeps the value
    EXPECT_EQ(c.type(), a.type());
  }
}

TEST(Payload, MoveEmptiesTheSource) {
  for (const bool big : {false, true}) {
    Payload a = big ? Payload(Big{}) : Payload(std::string(40, 'x'));
    const std::type_info& t = a.type();
    Payload b = std::move(a);
    EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.type(), t);
    Payload c = 1;
    c = std::move(b);
    EXPECT_FALSE(b.has_value());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.type(), t);
  }
  Payload s = std::string(40, 'y');
  EXPECT_EQ(payload_cast<std::string>(std::move(s)), std::string(40, 'y'));
}

TEST(Payload, WrongTypeCast) {
  Payload p = 5;
  EXPECT_EQ(payload_cast<long>(&p), nullptr);
  EXPECT_EQ(payload_cast<unsigned>(&p), nullptr);
  const Payload& cp = p;
  EXPECT_EQ(payload_cast<double>(&cp), nullptr);
  EXPECT_THROW(payload_cast<long>(p), std::bad_cast);
  EXPECT_THROW(payload_cast<long>(cp), std::bad_cast);
  EXPECT_THROW(payload_cast<long>(std::move(p)), std::bad_cast);
  EXPECT_EQ(payload_cast<int>(cp), 5);
  EXPECT_EQ(payload_cast<const int&>(cp), 5);
}

TEST(Payload, EveryObjectDestroyedOnce) {
  Counted::live = 0;
  Counted::constructed = 0;
  {
    Payload a = Counted(1);
    Payload b = a;
    Payload c = std::move(a);
    b = c;
    c.reset();
    c = Counted(2);
    a = std::move(c);
    EXPECT_EQ(payload_cast<Counted>(&a)->value, 2);
    EXPECT_EQ(payload_cast<Counted>(&b)->value, 1);
    EXPECT_EQ(Counted::live, 2);
  }
  EXPECT_EQ(Counted::live, 0);
  EXPECT_GT(Counted::constructed, 0);
}

// Payloads parked in the network's packet slab, including duplicated copies,
// slots reused across waves of traffic and packets still in flight when the
// network is torn down, are each destroyed exactly once.
TEST(Payload, DestroyedOnceAcrossSlabReuse) {
  struct Echo final : public Node {
    void on_start() override {
      if (pid().value() == 0) burst();
    }
    void on_packet(Packet&& p) override {
      // A zero ends a wave; answer it with the next one.
      if (payload_cast<Counted>(std::move(p.payload)).value == 0) burst();
    }
    void burst() {
      if (++waves_ > 6) return;
      for (int i = 3; i >= 0; --i)
        send(NodeAddr::app(ProcessId(1 - pid().value())), MsgKind::kApplication,
             Counted(i), 8);
    }
    int waves_ = 0;
  };
  for (const std::int64_t max_events : {std::int64_t{-1}, std::int64_t{10}}) {
    Counted::live = 0;
    Counted::constructed = 0;
    {
      NetworkConfig cfg;
      cfg.num_processes = 2;
      cfg.latency = LatencyModel::uniform(1, 6);
      cfg.faults.dup = 0.3;  // duplicates copy the payload
      cfg.faults.seed = 5;
      cfg.max_events = max_events;
      Network net(cfg);
      net.add_node(NodeAddr::app(ProcessId(0)), std::make_unique<Echo>());
      net.add_node(NodeAddr::app(ProcessId(1)), std::make_unique<Echo>());
      net.start_and_run();
      EXPECT_EQ(net.truncated(), max_events >= 0);
      EXPECT_GT(net.fault_counters().dups, 0);
      EXPECT_GE(net.simulator().events_processed(), 10);
      // Drained: nothing parked. Capped: the in-flight packets still are.
      EXPECT_EQ(Counted::live == 0, max_events < 0);
    }
    EXPECT_EQ(Counted::live, 0);
    EXPECT_GT(Counted::constructed, 0);
  }
}

}  // namespace
}  // namespace wcp::sim
