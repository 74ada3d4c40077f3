// Columnar trace store: delta-encoded clocks against an eager replay
// oracle, wcp-tracebin round trips, loader validation of malformed
// streams, and the parent-offset witness paths it enables.
#include "trace/trace_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "detect/lattice.h"
#include "detect/offline.h"
#include "trace/trace_io.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

// Independent oracle: the eager O(N * total_states) clock matrix the store
// replaced, computed the textbook way (Fig. 2 rules, full-width merges).
std::vector<std::vector<VectorClock>> eager_clocks(const Computation& c) {
  const std::size_t N = c.num_processes();
  std::vector<std::vector<VectorClock>> clocks(N);
  std::vector<std::size_t> next(N, 0);
  std::vector<VectorClock> msg_clock(c.messages().size());
  std::vector<bool> sent(c.messages().size(), false);
  std::size_t remaining = 0;
  for (std::size_t p = 0; p < N; ++p) {
    clocks[p].push_back(VectorClock::initial(N, ProcessId(static_cast<int>(p))));
    remaining += c.events(ProcessId(static_cast<int>(p))).size();
  }
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t p = 0; p < N; ++p) {
      const ProcessId pid(static_cast<int>(p));
      const auto events = c.events(pid);
      while (next[p] < events.size()) {
        const Event& ev = events[next[p]];
        const auto mi = static_cast<std::size_t>(ev.msg);
        VectorClock cur = clocks[p].back();
        if (ev.kind == EventKind::kSend) {
          // A message carries the clock of the state it was sent *from*
          // (the pre-tick state): the send itself is not causally visible
          // to the receiver, matching MessageRecord::send_state.
          msg_clock[mi] = cur;
          sent[mi] = true;
          cur.tick(pid);
        } else {
          if (!sent[mi]) break;
          cur.merge(msg_clock[mi]);
          cur.tick(pid);
        }
        clocks[p].push_back(std::move(cur));
        ++next[p];
        --remaining;
        progressed = true;
      }
    }
    EXPECT_TRUE(progressed) << "oracle replay deadlocked";
    if (!progressed) break;
  }
  return clocks;
}

Computation random_comp(std::uint64_t seed, std::size_t N = 6,
                        std::size_t n = 3, double drain = 1.0) {
  workload::RandomSpec spec;
  spec.num_processes = N;
  spec.num_predicate = n;
  spec.events_per_process = 14;
  spec.local_pred_prob = 0.4;
  spec.drain_prob = drain;
  spec.seed = seed;
  return workload::make_random(spec);
}

// The replay shared by the builder and the tracebin verifier, against the
// eager oracle on every state: random computations from 2 to 64 processes
// (in-flight messages included), the E14 mutex worst case at N = 129, and a
// hand-built run with non-FIFO receives and messages never received. On
// each, the text-built store, the verified tracebin load and the original
// report the same storage counters.
TEST(TraceStore, ClocksMatchEagerReplayOracle) {
  std::vector<std::pair<std::string, Computation>> comps;
  std::uint64_t seed = 40;
  for (const std::size_t N : {2, 3, 5, 8, 13, 21, 34, 64}) {
    for (const double drain : {0.5, 1.0}) {
      workload::RandomSpec spec;
      spec.num_processes = N;
      spec.num_predicate = std::max<std::size_t>(1, N / 2);
      spec.events_per_process = N >= 34 ? 12 : 24;
      spec.drain_prob = drain;
      spec.seed = seed++;
      comps.emplace_back("random N=" + std::to_string(N) +
                             " drain=" + std::to_string(drain),
                         workload::make_random(spec));
    }
  }
  {
    workload::MutexSpec spec;  // bench_offline's largest E14 computation
    spec.num_clients = 128;
    spec.rounds_per_client = 20;
    spec.force_final_violation = true;
    spec.seed = 3;
    comps.emplace_back("E14 mutex N=129",
                       workload::make_mutex(spec).computation);
  }
  {
    ComputationBuilder b(4);
    const ProcessId p0(0), p1(1), p2(2), p3(3);
    const MessageId a = b.send(p0, p1);
    const MessageId c = b.send(p0, p1);
    const MessageId d = b.send(p2, p1);
    b.receive(d);  // overtakes both of p0's messages
    b.receive(c);  // overtakes a on the same channel
    (void)b.send(p1, p3);  // never received
    const MessageId e = b.send(p1, p2);
    b.receive(a);
    b.receive(e);
    (void)b.send(p3, p0);  // never received
    const MessageId f = b.send(p2, p3);
    b.receive(f);
    comps.emplace_back("non-FIFO with messages in flight", b.build());
  }

  for (const auto& [name, c] : comps) {
    SCOPED_TRACE(name);
    const auto oracle = eager_clocks(c);
    const TraceStore& s = c.trace_store();
    for (std::size_t p = 0; p < c.num_processes(); ++p) {
      const ProcessId pid(static_cast<int>(p));
      ASSERT_EQ(s.num_states(pid), c.num_states(pid));
      for (StateIndex k = 1; k <= c.num_states(pid); ++k) {
        const VectorClock& want = oracle[p][static_cast<std::size_t>(k - 1)];
        ASSERT_EQ(s.clock(pid, k), want) << "p=" << p << " k=" << k;
        ASSERT_EQ(c.ground_truth_clock(pid, k), want);
        for (std::size_t j = 0; j < c.num_processes(); ++j)
          ASSERT_EQ(s.clock_component(pid, k, ProcessId(static_cast<int>(j))),
                    want[j]);
      }
    }

    const auto from_text = trace_from_string(trace_to_string(c));
    std::ostringstream os;
    save_tracebin(os, from_text);
    std::istringstream is(os.str());
    const auto verified = load_tracebin(is);
    const TraceStoreStats want = c.trace_store_stats();
    for (const Computation* copy : {&from_text, &verified}) {
      const TraceStoreStats got = copy->trace_store_stats();
      EXPECT_EQ(got.peak_bytes, want.peak_bytes);
      EXPECT_EQ(got.delta_entries, want.delta_entries);
      EXPECT_EQ(got.clocks_interned, want.clocks_interned);
    }
  }
}

TEST(TraceStore, VerifierRejectsAReceiveBeforeItsSend) {
  // Two processes that each receive the other's message before sending
  // their own: every structural check passes, but no causal order exists.
  ComputationBuilder b(2);
  const MessageId m0 = b.send(ProcessId(0), ProcessId(1));
  const MessageId m1 = b.send(ProcessId(1), ProcessId(0));
  b.receive(m1);
  b.receive(m0);
  std::ostringstream os;
  save_tracebin(os, b.build());
  std::string bytes = os.str();

  const auto rd_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  const auto wr_u32 = [&](std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  };
  const auto off_events = static_cast<std::size_t>(rd_u64(88));
  const auto off_messages = static_cast<std::size_t>(rd_u64(104));
  // Events: p0 receives m1 then sends m0; p1 receives m0 then sends m1.
  wr_u32(off_events + 0, kPackedEventReceiveBit | 1);
  wr_u32(off_events + 4, 0);
  wr_u32(off_events + 8, kPackedEventReceiveBit | 0);
  wr_u32(off_events + 12, 1);
  // Messages {from, send_state, to, recv_state}: both sent from state 2
  // into the receiver's state 2.
  const std::uint32_t quads[8] = {0, 2, 1, 2, 1, 2, 0, 2};
  for (std::size_t i = 0; i < 8; ++i) wr_u32(off_messages + 4 * i, quads[i]);

  std::istringstream is(bytes);
  try {
    (void)TraceStore::load(is);
    FAIL() << "expected the deadlock parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "wcp-tracebin parse error: event columns deadlock under "
                  "causal replay (a receive precedes its send)"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceStore, HappenedBeforeMatchesClockDominance) {
  const auto c = random_comp(11, 4, 4);
  const auto oracle = eager_clocks(c);
  for (std::size_t i = 0; i < 4; ++i)
    for (StateIndex a = 1; a <= c.num_states(ProcessId(static_cast<int>(i)));
         ++a)
      for (std::size_t j = 0; j < 4; ++j)
        for (StateIndex b = 1;
             b <= c.num_states(ProcessId(static_cast<int>(j))); ++b) {
          const bool want =
              i == j ? a < b
                     : oracle[j][static_cast<std::size_t>(b - 1)][i] >= a;
          EXPECT_EQ(c.happened_before(ProcessId(static_cast<int>(i)), a,
                                      ProcessId(static_cast<int>(j)), b),
                    want)
              << "(" << i << "," << a << ") vs (" << j << "," << b << ")";
        }
}

TEST(TraceStore, StatsAreSaneAndThreadInvariant) {
  const auto c = random_comp(3);
  const auto r1 = detect::detect_lattice(c, -1, 1);
  const auto r8 = detect::detect_lattice(c, -1, 8);
  ASSERT_TRUE(r1.trace_store.materialized());
  EXPECT_EQ(r1.trace_store.peak_bytes, r8.trace_store.peak_bytes);
  EXPECT_EQ(r1.trace_store.clocks_interned, r8.trace_store.clocks_interned);
  EXPECT_EQ(r1.trace_store.delta_entries, r8.trace_store.delta_entries);
  EXPECT_EQ(r1.trace_store.clocks_interned, c.total_states());
  EXPECT_GT(r1.trace_store.peak_bytes, 0);
  EXPECT_GE(r1.trace_store.delta_ratio, 1.0);
}

TEST(TraceStore, BinaryRoundTripPreservesEverything) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto original = random_comp(seed, 6, 3, 0.7);
    std::ostringstream os;
    save_tracebin(os, original);
    std::istringstream is(os.str());
    const auto reread = load_tracebin(is);

    ASSERT_EQ(reread.num_processes(), original.num_processes());
    ASSERT_EQ(reread.messages().size(), original.messages().size());
    std::size_t in_flight_orig = 0, in_flight_reread = 0;
    for (const auto& m : original.messages())
      if (!m.delivered()) ++in_flight_orig;
    for (const auto& m : reread.messages())
      if (!m.delivered()) ++in_flight_reread;
    EXPECT_EQ(in_flight_orig, in_flight_reread);
    for (std::size_t p = 0; p < original.num_processes(); ++p) {
      const ProcessId pid(static_cast<int>(p));
      ASSERT_EQ(reread.num_states(pid), original.num_states(pid));
      for (StateIndex k = 1; k <= original.num_states(pid); ++k) {
        EXPECT_EQ(reread.local_pred(pid, k), original.local_pred(pid, k));
        EXPECT_EQ(reread.ground_truth_clock(pid, k),
                  original.ground_truth_clock(pid, k));
      }
    }
    EXPECT_EQ(reread.first_wcp_cut(), original.first_wcp_cut());

    // Verdicts are computation properties; numbering differences introduced
    // by replay must not leak into them.
    const auto l0 = detect::detect_lattice(original);
    const auto l1 = detect::detect_lattice(reread);
    EXPECT_EQ(l0.detected, l1.detected);
    EXPECT_EQ(l0.cut, l1.cut);
    EXPECT_EQ(l0.cuts_explored, l1.cuts_explored);
    EXPECT_EQ(l0.witness_path, l1.witness_path);
    const auto d0 = detect::detect_definitely(original);
    const auto d1 = detect::detect_definitely(reread);
    EXPECT_EQ(d0.definitely, d1.definitely);
    EXPECT_EQ(d0.witness, d1.witness);
  }
}

TEST(TraceStore, BinaryFileRoundTripAndSniffingLoader) {
  const auto original = random_comp(9);
  const std::string bin = ::testing::TempDir() + "/wcp_store_test.tracebin";
  const std::string txt = ::testing::TempDir() + "/wcp_store_test.trace";
  save_tracebin_file(bin, original);
  save_trace_file(txt, original);
  const auto from_bin = load_any_trace_file(bin);
  const auto from_txt = load_any_trace_file(txt);
  EXPECT_EQ(from_bin.first_wcp_cut(), original.first_wcp_cut());
  EXPECT_EQ(from_txt.first_wcp_cut(), original.first_wcp_cut());
  EXPECT_EQ(from_bin.total_states(), original.total_states());

  // One store, whichever way it was built: the builder-made original, the
  // text-loaded copy and the verified tracebin-loaded copy report the same
  // storage counters and save to the same bytes. The text format numbers
  // messages in causal-replay order, which to_computation() reproduces, so
  // the text copy is compared against the original in that numbering.
  const auto saved = [](const Computation& c) {
    std::ostringstream os;
    c.trace_store().save(os);
    return os.str();
  };
  const TraceStoreStats want = original.trace_store_stats();
  ASSERT_TRUE(want.materialized());
  for (const Computation* copy : {&from_txt, &from_bin}) {
    const TraceStoreStats got = copy->trace_store_stats();
    EXPECT_EQ(got.peak_bytes, want.peak_bytes);
    EXPECT_EQ(got.clocks_interned, want.clocks_interned);
    EXPECT_EQ(got.delta_entries, want.delta_entries);
    EXPECT_EQ(got.delta_ratio, want.delta_ratio);
  }
  EXPECT_EQ(saved(from_bin), saved(original));
  EXPECT_EQ(saved(from_txt), saved(original.trace_store().to_computation()));
  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

TEST(TraceStore, LoadedStoreIsAdoptedWithoutRebuild) {
  const auto original = random_comp(21);
  std::ostringstream os;
  save_tracebin(os, original);
  std::istringstream is(os.str());
  const auto reread = load_tracebin(is);
  // The loader attaches the verified store; reading a clock must not change
  // the stats it reports (nothing is rebuilt).
  const auto before = reread.trace_store_stats();
  ASSERT_TRUE(before.materialized());
  (void)reread.ground_truth_clock(ProcessId(0), 1);
  const auto after = reread.trace_store_stats();
  EXPECT_EQ(before.peak_bytes, after.peak_bytes);
  EXPECT_EQ(before.delta_entries, after.delta_entries);
}

// Corrupting any structural byte of a wcp-tracebin stream must produce a
// descriptive parse error, never a crash or a silently-wrong computation.
class TracebinCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ostringstream os;
    save_tracebin(os, random_comp(5, 5, 3, 0.7));
    bytes_ = os.str();
    ASSERT_GT(bytes_.size(), 136u);
  }

  void expect_parse_error(const std::string& data) {
    std::istringstream is(data);
    try {
      (void)TraceStore::load(is);
      FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("wcp-tracebin"), std::string::npos)
          << e.what();
    }
  }

  std::string bytes_;
};

TEST_F(TracebinCorruption, RejectsEmptyAndTruncatedStreams) {
  expect_parse_error("");
  expect_parse_error(bytes_.substr(0, 8));
  expect_parse_error(bytes_.substr(0, 135));   // header cut short
  expect_parse_error(bytes_.substr(0, bytes_.size() / 2));
  expect_parse_error(bytes_ + std::string(8, '\0'));  // trailing garbage
}

TEST_F(TracebinCorruption, RejectsBadMagicVersionAndSize) {
  auto bad = bytes_;
  bad[0] = 'X';
  expect_parse_error(bad);

  bad = bytes_;
  bad[8] = 2;  // version
  expect_parse_error(bad);

  bad = bytes_;
  bad[12] = 1;  // reserved must be zero
  expect_parse_error(bad);

  bad = bytes_;
  bad[128] ^= 0x01;  // recorded file_size
  expect_parse_error(bad);
}

TEST_F(TracebinCorruption, RejectsCorruptedColumns) {
  // Flip one byte in every 64-byte window past the header: each lands in
  // some section (counts, offsets, events, messages, clock entries) and
  // must be caught by structural or semantic validation.
  for (std::size_t pos = 136; pos < bytes_.size(); pos += 64) {
    auto bad = bytes_;
    bad[pos] ^= 0x3f;
    std::istringstream is(bad);
    try {
      const TraceStore s = TraceStore::load(is);
      // A flip inside the predicate-bit column changes data, not structure,
      // and legitimately loads; everything else must throw.
      (void)s.to_computation();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("wcp-tracebin"), std::string::npos)
          << "pos " << pos << ": " << e.what();
    }
  }
}

// ---- zero-copy mapped loading ---------------------------------------------

// Exercises the mmap fast path end to end: files are loaded through
// load_tracebin_file / load_any_trace_file, which map the bytes and point
// the store's columns straight into the mapping.
class MappedTracebin : public ::testing::Test {
 protected:
  void SetUp() override {
    comp_ = random_comp(7, 5, 3, 0.7);
    std::ostringstream os;
    save_tracebin(os, comp_);
    bytes_ = os.str();
    path_ = ::testing::TempDir() + "/wcp_mapped_test.tracebin";
    write_file(bytes_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& data) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(f.good());
  }

  static std::uint64_t rd_u64(const std::string& b, std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[off + i]))
           << (8 * i);
    return v;
  }
  static void wr_u64(std::string& b, std::size_t off, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      b[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }

  /// Both the verifying and the trusted loader must reject `data` with a
  /// parse error — structural validation is not opt-out — and must never
  /// fault while doing so.
  void expect_mapped_parse_error(const std::string& data) {
    write_file(data);
    for (const bool trusted : {false, true}) {
      TraceLoadOptions opts;
      opts.verify_replay = !trusted;
      try {
        (void)load_tracebin_file(path_, opts);
        FAIL() << "expected parse error (trusted=" << trusted << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("wcp-tracebin parse error:"),
                  std::string::npos)
            << e.what();
      }
    }
  }

  Computation comp_;
  std::string bytes_;
  std::string path_;
};

TEST_F(MappedTracebin, MappedLoadMatchesHeapLoadExactly) {
  const auto mapped = load_any_trace_file(path_);
  std::istringstream is(bytes_);
  const auto heap = load_tracebin(is);

  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_TRUE(mapped.trace_store().mapped());
  }
  EXPECT_FALSE(heap.trace_store().mapped());

  for (std::size_t p = 0; p < comp_.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    ASSERT_EQ(mapped.num_states(pid), comp_.num_states(pid));
    for (StateIndex k = 1; k <= comp_.num_states(pid); ++k) {
      ASSERT_EQ(mapped.local_pred(pid, k), comp_.local_pred(pid, k));
      ASSERT_EQ(mapped.ground_truth_clock(pid, k),
                comp_.ground_truth_clock(pid, k));
    }
  }
  EXPECT_EQ(mapped.first_wcp_cut(), comp_.first_wcp_cut());

  // Saving the mapped store must reproduce the file byte for byte, and the
  // heap-loaded store must agree (same bytes through a different backing).
  std::ostringstream saved_mapped, saved_heap;
  mapped.trace_store().save(saved_mapped);
  heap.trace_store().save(saved_heap);
  EXPECT_EQ(saved_mapped.str(), bytes_);
  EXPECT_EQ(saved_heap.str(), bytes_);
}

TEST_F(MappedTracebin, TrustedLoadSkipsOnlyTheReplayCheck) {
  TraceLoadOptions trusted;
  trusted.verify_replay = false;

  // A trusted load must stay cheap: its reported peak is the O(N) owned
  // metadata, not the rebuild's O(file) replay scratch.
  const auto verified = load_tracebin_file(path_);
  const auto fast = load_tracebin_file(path_, trusted);
  EXPECT_EQ(verified.first_wcp_cut(), fast.first_wcp_cut());
  EXPECT_LT(fast.trace_store_stats().peak_bytes,
            verified.trace_store_stats().peak_bytes);

  // Now make the clock section structurally pristine but semantically a
  // lie: lower the value of some change-list entry (monotonicity and range
  // checks still pass). Only the replay verification can catch that, so
  // the verifying loader must throw and the trusted loader must not.
  const std::uint64_t N = rd_u64(bytes_, 16);
  const std::uint64_t off_clock_offsets = rd_u64(bytes_, 112);
  const std::uint64_t off_clock_entries = rd_u64(bytes_, 120);
  std::size_t victim = 0;
  bool found = false;
  for (std::uint64_t i = 0; i < N * N && !found; ++i) {
    const std::uint64_t lo = rd_u64(bytes_, off_clock_offsets + i * 8);
    const std::uint64_t hi = rd_u64(bytes_, off_clock_offsets + (i + 1) * 8);
    if (lo >= hi) continue;
    const std::uint64_t first = rd_u64(bytes_, off_clock_entries + lo * 8);
    if ((first & 0xffff'ffffull) >= 2) {
      victim = static_cast<std::size_t>(off_clock_entries + lo * 8);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no change-list entry with value >= 2 in this trace";
  auto lying = bytes_;
  wr_u64(lying, victim, rd_u64(lying, victim) - 1);  // value -= 1
  write_file(lying);

  EXPECT_THROW((void)load_tracebin_file(path_), std::invalid_argument);
  const auto unchecked = load_tracebin_file(path_, trusted);
  EXPECT_EQ(unchecked.total_states(), comp_.total_states());
}

TEST_F(MappedTracebin, CorruptionCorpusNeverFaults) {
  // Truncated mid-section (events column).
  const std::uint64_t off_events = rd_u64(bytes_, 88);
  expect_mapped_parse_error(
      bytes_.substr(0, static_cast<std::size_t>(off_events) + 4));

  // Section offset pointing past EOF.
  auto bad = bytes_;
  wr_u64(bad, 120, bytes_.size() + 4096);  // clock_entries offset
  expect_mapped_parse_error(bad);

  // Misaligned section offset.
  bad = bytes_;
  wr_u64(bad, 80, rd_u64(bad, 80) + 4);  // state_counts offset
  expect_mapped_parse_error(bad);

  // Header length lying about the file size (both directions).
  bad = bytes_;
  wr_u64(bad, 128, bytes_.size() + 4096);
  expect_mapped_parse_error(bad);
  bad = bytes_;
  wr_u64(bad, 128, 136);
  expect_mapped_parse_error(bad);

  // Counts inflated so sections would extend past the mapping.
  bad = bytes_;
  wr_u64(bad, 64, rd_u64(bad, 64) + (1u << 20));  // total clock entries
  expect_mapped_parse_error(bad);
}

TEST_F(MappedTracebin, TrustedCliPathStillValidatesStructure) {
  // The exact bytes the --trusted CLI path would map: flip one event word
  // to a huge message id. Structural validation must still reject it.
  const std::uint64_t off_events = rd_u64(bytes_, 88);
  auto bad = bytes_;
  bad[static_cast<std::size_t>(off_events)] = '\x7f';
  bad[static_cast<std::size_t>(off_events) + 3] = '\x07';
  expect_mapped_parse_error(bad);
}

// Satellite regression: save_tracebin_file must not report success when the
// bytes never reached the disk.
TEST(TraceStoreWrite, StreamFailureIsNotSilent) {
  const auto c = random_comp(2, 3, 2);
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  EXPECT_THROW(save_tracebin(os, c), std::invalid_argument);
}

TEST(TraceStoreWrite, FullDeviceFailureNamesThePath) {
  // /dev/full accepts the open and swallows buffered writes; only the
  // flush-and-check in save_tracebin_file can see the ENOSPC.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full here";
  const auto c = random_comp(2, 3, 2);
  try {
    save_tracebin_file("/dev/full", c);
    FAIL() << "expected a write failure on /dev/full";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(WitnessPath, MaterializesToDetectedCut) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto c = random_comp(seed, 5, 3);
    const auto r = detect::detect_lattice(c);
    if (!r.detected) {
      EXPECT_TRUE(r.witness_path.empty());
      continue;
    }
    const auto cuts = detect::materialize_witness_path(
        c.predicate_processes().size(), r.witness_path);
    ASSERT_EQ(cuts.size(), r.witness_path.size() + 1);
    EXPECT_EQ(cuts.front(),
              std::vector<StateIndex>(c.predicate_processes().size(), 1));
    EXPECT_EQ(cuts.back(), r.cut);
  }
}

TEST(WitnessPath, DefinitelyWitnessLiesOnPath) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = random_comp(seed, 4, 3);
    const auto r = detect::detect_definitely(c);
    if (r.definitely || r.truncated) continue;
    ASSERT_FALSE(r.witness_path.empty());
    const auto cuts = detect::materialize_witness_path(
        c.predicate_processes().size(), r.witness_path);
    EXPECT_NE(std::find(cuts.begin(), cuts.end(), r.witness), cuts.end())
        << "witness cut must appear on the avoiding observation";
  }
}

}  // namespace
}  // namespace wcp
