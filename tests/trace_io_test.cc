#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

bool same_computation(const Computation& a, const Computation& b) {
  if (a.num_processes() != b.num_processes()) return false;
  if (a.messages().size() != b.messages().size()) return false;
  if (!std::equal(a.predicate_processes().begin(),
                  a.predicate_processes().end(),
                  b.predicate_processes().begin(),
                  b.predicate_processes().end()))
    return false;
  for (std::size_t p = 0; p < a.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    if (a.num_states(pid) != b.num_states(pid)) return false;
    for (StateIndex k = 1; k <= a.num_states(pid); ++k) {
      if (a.local_pred(pid, k) != b.local_pred(pid, k)) return false;
      if (a.ground_truth_clock(pid, k) != b.ground_truth_clock(pid, k))
        return false;
    }
  }
  return true;
}

TEST(TraceIo, RoundTripsSmallHandBuiltTrace) {
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(2)});
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.transfer(ProcessId(1), ProcessId(2));
  b.mark_pred(ProcessId(2), true);
  const auto original = b.build();

  const auto text = trace_to_string(original);
  const auto reread = trace_from_string(text);
  EXPECT_TRUE(same_computation(original, reread));
}

TEST(TraceIo, RoundTripsRandomComputations) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 15;
    spec.seed = seed;
    spec.drain_prob = 0.7;  // leave some messages in flight
    const auto original = workload::make_random(spec);
    const auto reread = trace_from_string(trace_to_string(original));
    EXPECT_TRUE(same_computation(original, reread)) << "seed " << seed;
  }
}

TEST(TraceIo, PreservesFirstWcpCut) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.3;
  spec.seed = 17;
  const auto original = workload::make_random(spec);
  const auto reread = trace_from_string(trace_to_string(original));
  EXPECT_EQ(original.first_wcp_cut(), reread.first_wcp_cut());
}

TEST(TraceIo, RejectsGarbageHeader) {
  EXPECT_THROW(trace_from_string("not-a-trace\n"), std::invalid_argument);
  EXPECT_THROW(trace_from_string(""), std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 99\n"), std::invalid_argument);
}

TEST(TraceIo, RejectsEventsBeforeProcesses) {
  EXPECT_THROW(trace_from_string("wcp-trace 1\nsend 0 1\n"),
               std::invalid_argument);
}

TEST(TraceIo, RejectsUnknownDirective) {
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nfrobnicate\n"),
               std::invalid_argument);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const auto c = trace_from_string(
      "wcp-trace 1\n"
      "# a comment\n"
      "\n"
      "processes 2   # trailing comment\n"
      "predicate 0 1\n"
      "send 0 1\n"
      "recv 0\n"
      "end\n");
  EXPECT_EQ(c.num_processes(), 2u);
  EXPECT_EQ(c.messages().size(), 1u);
}

TEST(TraceIo, RoundTripsUndeliveredInFlightMessages) {
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1), ProcessId(2)});
  const MessageId delivered = b.send(ProcessId(0), ProcessId(1));
  const MessageId in_flight = b.send(ProcessId(0), ProcessId(2));
  b.receive(delivered);
  b.mark_pred(ProcessId(1), true);
  const auto original = b.build();
  ASSERT_FALSE(original.message(in_flight).delivered());

  const auto reread = trace_from_string(trace_to_string(original));
  EXPECT_TRUE(same_computation(original, reread));
  std::size_t undelivered = 0;
  for (const MessageRecord& m : reread.messages())
    if (!m.delivered()) ++undelivered;
  EXPECT_EQ(undelivered, 1u);
}

TEST(TraceIo, RejectsDuplicateProcessesDirective) {
  try {
    trace_from_string(
        "wcp-trace 1\nprocesses 2\nprocesses 3\nsend 0 1\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsOutOfRangeProcessIds) {
  // pid >= N used to read as a silent out-of-bounds builder call.
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nsend 0 2\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nmark -1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(
      trace_from_string("wcp-trace 1\nprocesses 2\npredicate 0 5\nend\n"),
      std::invalid_argument);
}

TEST(TraceIo, RejectsBadReceives) {
  // Receive of a message that was never sent.
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nrecv 0\nend\n"),
               std::invalid_argument);
  // Double delivery of the same message.
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nsend 0 1\n"
                                 "recv 0\nrecv 0\nend\n"),
               std::invalid_argument);
}

TEST(TraceIo, RejectsUnparseableIntegers) {
  // These all silently read as 0 before the reader validated tokens.
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses two\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nsend 0 1x\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(
      trace_from_string("wcp-trace 1\nprocesses 2\nmark 0 yes\nend\n"),
      std::invalid_argument);
}

TEST(TraceIo, RejectsMalformedStructure) {
  // Self-send, non-binary mark, trailing tokens, missing/duplicated end.
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nsend 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nmark 0 2\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(
      trace_from_string("wcp-trace 1\nprocesses 2\nsend 0 1 9\nend\n"),
      std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nsend 0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(trace_from_string("wcp-trace 1\nprocesses 2\nend\nsend 0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      trace_from_string(
          "wcp-trace 1\nprocesses 2\npredicate 0\npredicate 1\nend\n"),
      std::invalid_argument);
}

TEST(TraceIo, RejectsProcessCountsBeyondTheStoreCap) {
  // The store's interval index has N*N + 1 offsets: a 33-byte trace must
  // not be able to ask for gigabytes of it. Both formats fail closed.
  const std::string too_many = std::to_string(kMaxProcesses + 1);
  try {
    (void)trace_from_string("wcp-trace 1\nprocesses " + too_many + "\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "trace parse error at line 2: process count " + too_many +
                  " out of range in 'processes " + too_many + "'"),
              std::string::npos)
        << e.what();
  }

  std::ostringstream os;
  save_tracebin(os, trace_from_string("wcp-trace 1\nprocesses 2\nend\n"));
  std::string bytes = os.str();
  for (int i = 0; i < 8; ++i)  // header field N, little-endian
    bytes[16 + static_cast<std::size_t>(i)] =
        static_cast<char>(((kMaxProcesses + 1) >> (8 * i)) & 0xff);
  std::istringstream is(bytes);
  try {
    (void)load_tracebin(is);
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "wcp-tracebin parse error: bad process count " + too_many),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, FileRoundTrip) {
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 2;
  spec.seed = 3;
  const auto original = workload::make_random(spec);
  const std::string path = ::testing::TempDir() + "/wcp_trace_test.trace";
  save_trace_file(path, original);
  const auto reread = load_trace_file(path);
  EXPECT_TRUE(same_computation(original, reread));
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/dir/x.trace"),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcp
