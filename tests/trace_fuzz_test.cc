// Randomized trace round-trip properties, the malformed-trace corpus and
// the pinned parse outcomes: every generated computation must survive text
// and binary serialization clock-for-clock with identical detector verdicts
// at every thread count, every corrupt input must die with a descriptive
// parse error, and every input of the parse corpus (seeded mutations of the
// committed example traces plus the tokeniser's edge cases) must keep the
// exact outcome recorded in tests/golden/trace_parse.golden.
//
// That file holds one `<input id>\t<outcome>` line per input: `ok <digest>`
// (FNV-1a 64 of the accepted computation's save_tracebin bytes) or
// `error <what()>` (bytes outside printable ASCII and '\\' escaped as \xHH).
// The test prints a `parse-record <id>\t<outcome>` line for every input that
// is missing from the file or differs from it, so the file is regenerated
// (only ever on purpose, from a tree whose reader is known good) with
//   build/tests/trace_fuzz_test --gtest_filter='*ParseOutcomes*' | sed -n 's/^parse-record //p' > tests/golden/trace_parse.golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detect/lattice.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

constexpr std::int64_t kCutCap = 20'000;

void expect_same_clocks(const Computation& a, const Computation& b) {
  ASSERT_EQ(a.num_processes(), b.num_processes());
  for (std::size_t p = 0; p < a.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    ASSERT_EQ(a.num_states(pid), b.num_states(pid));
    for (StateIndex k = 1; k <= a.num_states(pid); ++k) {
      ASSERT_EQ(a.local_pred(pid, k), b.local_pred(pid, k))
          << "p=" << p << " k=" << k;
      ASSERT_EQ(a.ground_truth_clock(pid, k), b.ground_truth_clock(pid, k))
          << "p=" << p << " k=" << k;
    }
  }
}

void expect_same_verdicts(const Computation& a, const Computation& b) {
  ASSERT_EQ(a.first_wcp_cut(), b.first_wcp_cut());
  const auto la = detect::detect_lattice(a, kCutCap);
  const auto lb = detect::detect_lattice(b, kCutCap);
  ASSERT_EQ(la.detected, lb.detected);
  ASSERT_EQ(la.truncated, lb.truncated);
  ASSERT_EQ(la.cut, lb.cut);
  ASSERT_EQ(la.cuts_explored, lb.cuts_explored);
  ASSERT_EQ(la.witness_path, lb.witness_path);
  const auto da = detect::detect_definitely(a, kCutCap);
  const auto db = detect::detect_definitely(b, kCutCap);
  ASSERT_EQ(da.definitely, db.definitely);
  ASSERT_EQ(da.truncated, db.truncated);
  ASSERT_EQ(da.witness, db.witness);
  ASSERT_EQ(da.witness_path, db.witness_path);
}

TEST(TraceFuzz, RandomComputationsRoundTripBothFormats) {
  // Sweep the workload space, including the all-false and all-true
  // predicate extremes and traces that leave messages in flight.
  const double pred_probs[] = {0.0, 0.25, 0.6, 1.0};
  const double drain_probs[] = {0.4, 1.0};
  std::uint64_t seed = 0;
  for (std::size_t np = 3; np <= 6; ++np)
    for (const double pp : pred_probs)
      for (const double dp : drain_probs) {
        workload::RandomSpec spec;
        spec.num_processes = np;
        spec.num_predicate = np >= 4 ? np / 2 : np;
        spec.events_per_process = 4 + static_cast<int>(seed % 7);
        spec.local_pred_prob = pp;
        spec.drain_prob = dp;
        spec.seed = 101 + seed++;
        const auto original = workload::make_random(spec);

        SCOPED_TRACE("spec N=" + std::to_string(np) +
                     " pp=" + std::to_string(pp) +
                     " dp=" + std::to_string(dp));
        // Text round trip.
        const auto from_text = trace_from_string(trace_to_string(original));
        expect_same_clocks(original, from_text);
        // Binary round trip.
        std::ostringstream os;
        save_tracebin(os, original);
        std::istringstream is(os.str());
        const auto from_bin = load_tracebin(is);
        expect_same_clocks(original, from_bin);
        // The loader serves columns straight from the parsed bytes (message
        // ids keep their file order), so save-then-load is a byte-level
        // fixed point from the very first generation.
        std::ostringstream os2;
        save_tracebin(os2, from_bin);
        ASSERT_EQ(os.str(), os2.str());
        std::istringstream is2(os2.str());
        const auto gen2 = load_tracebin(is2);
        std::ostringstream os3;
        save_tracebin(os3, gen2);
        ASSERT_EQ(os2.str(), os3.str());
      }
}

TEST(TraceFuzz, RoundTripsPreserveDetectorVerdicts) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 10;
    spec.local_pred_prob = seed % 2 ? 0.5 : 0.2;
    spec.drain_prob = 0.7;
    spec.seed = 900 + seed;
    const auto original = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));

    const auto from_text = trace_from_string(trace_to_string(original));
    expect_same_verdicts(original, from_text);
    std::ostringstream os;
    save_tracebin(os, original);
    std::istringstream is(os.str());
    const auto from_bin = load_tracebin(is);
    expect_same_verdicts(original, from_bin);
  }
}

TEST(TraceFuzz, VerdictsAndWitnessesAreThreadInvariant) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 9;
    spec.local_pred_prob = 0.45;
    spec.seed = 500 + seed;
    const auto c = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));

    const auto l1 = detect::detect_lattice(c, kCutCap, 1);
    const auto d1 = detect::detect_definitely(c, kCutCap, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto lt = detect::detect_lattice(c, kCutCap, threads);
      ASSERT_EQ(lt.detected, l1.detected);
      ASSERT_EQ(lt.cut, l1.cut);
      ASSERT_EQ(lt.cuts_explored, l1.cuts_explored);
      ASSERT_EQ(lt.witness_path, l1.witness_path) << threads << " threads";
      ASSERT_EQ(lt.trace_store.peak_bytes, l1.trace_store.peak_bytes);
      ASSERT_EQ(lt.trace_store.delta_entries, l1.trace_store.delta_entries);
      const auto dt = detect::detect_definitely(c, kCutCap, threads);
      ASSERT_EQ(dt.definitely, d1.definitely);
      ASSERT_EQ(dt.witness, d1.witness);
      ASSERT_EQ(dt.witness_path, d1.witness_path) << threads << " threads";
    }
  }
}

TEST(TraceFuzz, MappedLoaderMatchesHeapLoaderAtAllThreadCounts) {
  // The mmap fast path must be invisible to the detectors: verdicts,
  // explored-cut counts, and witness paths are byte-for-byte identical
  // whether the columns live in heap vectors or in the page cache, with
  // and without the replay check, at every thread count.
  const std::string path =
      ::testing::TempDir() + "/wcp_fuzz_mapped.tracebin";
  TraceLoadOptions trusted;
  trusted.verify_replay = false;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 9;
    spec.local_pred_prob = seed % 2 ? 0.5 : 0.25;
    spec.drain_prob = 0.7;
    spec.seed = 1300 + seed;
    const auto original = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));
    save_tracebin_file(path, original);

    const auto verified = load_any_trace_file(path);
    const auto fast = load_any_trace_file(path, trusted);
    expect_same_clocks(original, verified);
    expect_same_clocks(original, fast);

    const auto l1 = detect::detect_lattice(original, kCutCap, 1);
    const auto d1 = detect::detect_definitely(original, kCutCap, 1);
    for (const Computation* c : {&verified, &fast}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const auto lt = detect::detect_lattice(*c, kCutCap, threads);
        ASSERT_EQ(lt.detected, l1.detected) << threads << " threads";
        ASSERT_EQ(lt.cut, l1.cut);
        ASSERT_EQ(lt.cuts_explored, l1.cuts_explored);
        ASSERT_EQ(lt.witness_path, l1.witness_path);
        const auto dt = detect::detect_definitely(*c, kCutCap, threads);
        ASSERT_EQ(dt.definitely, d1.definitely) << threads << " threads";
        ASSERT_EQ(dt.witness, d1.witness);
        ASSERT_EQ(dt.witness_path, d1.witness_path);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFuzz, MalformedTraceCorpusFailsWithLineErrors) {
  // Every entry exercises a distinct reader rejection; all must throw
  // std::invalid_argument whose message names the offending line.
  const char* corpus[] = {
      "wcp-trace 1\nprocesses 0\nend\n",              // zero processes
      "wcp-trace 1\nprocesses -3\nend\n",             // negative count
      "wcp-trace 1\nprocesses 99999999999999\nend\n", // > int32 max
      "wcp-trace 1\nprocesses 4097\nend\n",           // > store cap
      "wcp-trace 1\nprocesses 2\nprocesses 2\nend\n", // duplicate directive
      "wcp-trace 1\npredicate 0\nend\n",              // predicate before N
      "wcp-trace 1\nprocesses 2\npredicate 0 0\nend\n",  // duplicate pid
      "wcp-trace 1\nprocesses 2\npredicate 2\nend\n",    // pid out of range
      "wcp-trace 1\nprocesses 2\ndefault 0 7\nend\n",    // value not in {0,1}
      "wcp-trace 1\nprocesses 2\ndefault 5 1\nend\n",    // pid out of range
      "wcp-trace 1\nprocesses 2\nsend 0\nend\n",         // missing receiver
      "wcp-trace 1\nprocesses 2\nsend 0 0\nend\n",       // self-send
      "wcp-trace 1\nprocesses 2\nsend 0 3\nend\n",       // receiver >= N
      "wcp-trace 1\nprocesses 2\nrecv 0\nend\n",         // recv before send
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv 1\nend\n",  // unsent id
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv -1\nend\n", // negative id
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv 0\nrecv 0\nend\n",  // double
      "wcp-trace 1\nprocesses 2\nmark 0\nend\n",         // missing value
      "wcp-trace 1\nprocesses 2\nmark 0 1 1\nend\n",     // trailing token
      "wcp-trace 1\nprocesses 2\nmark zero 1\nend\n",    // unparseable pid
      "wcp-trace 1\nprocesses 2\nsend 0x0 1\nend\n",     // hex garbage
      "wcp-trace 1\nprocesses 2\nbogus 1 2\nend\n",      // unknown directive
      "wcp-trace 1\nprocesses 2\nsend 0 1\n",            // missing end
      "wcp-trace 1\nprocesses 2\nend 1\n",               // token after end
      "wcp-trace 1\nprocesses 2\nend\nmark 0 1\n",       // content after end
  };
  for (const char* text : corpus) {
    SCOPED_TRACE(text);
    try {
      (void)trace_from_string(text);
      FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << e.what();
    }
  }
}

// ---- pinned parse outcomes --------------------------------------------------

// Deterministic, library-independent generator for the mutation corpus, so
// the corpus cannot drift when the library's own RNG changes.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// A string literal with its embedded NULs (the terminator dropped).
template <std::size_t K>
std::string lit(const char (&s)[K]) {
  return std::string(s, K - 1);
}

std::string escape(const std::string& s) {
  static const char* const kHex = "0123456789abcdef";
  std::string out;
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (u < 0x20 || u >= 0x7f || ch == '\\') {
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 15];
    } else {
      out += ch;
    }
  }
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

template <class Parse>
std::string outcome(Parse&& parse) {
  try {
    const Computation c = parse();
    std::ostringstream os;
    save_tracebin(os, c);
    std::ostringstream out;
    out << "ok " << std::hex << fnv1a(os.str());
    return out.str();
  } catch (const std::exception& e) {
    return "error " + escape(e.what());
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const auto nl = text.find('\n', at);
    const auto end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

// Tokens on which std::stoll-on-a-whole-token and a from_chars tokeniser
// could disagree. Every value that parses is small, so no mutant asks for
// a store of more than a few hundred processes.
const std::vector<std::string>& edge_tokens() {
  static const std::vector<std::string> kTokens = {
      "+5", "+-5", "-", "+", "007", "0x10", "9223372036854775808",
      "9223372036854775807", "-9223372036854775808", "-9223372036854775809",
      "+0", "-0", "00", "1e3", "1.0", "--1", "++1", "1+", "5a", "#",
      lit("1\0"), "2147483648", "-2147483649"};
  return kTokens;
}

// One seeded mutation of `text`: a byte flip, a byte replaced by a
// separator-ish character, a truncation, a duplicated or dropped line, an
// inserted digit, or a token replaced by an edge token.
std::pair<std::string, std::string> mutate(const std::string& text,
                                           SplitMix& rng) {
  static const char* const kKinds[] = {"flip",      "poke",      "truncate",
                                       "dup-line",  "drop-line", "digit",
                                       "token"};
  static const std::string kPoke = lit("0123456789 \t\r\n\v\f#+-x\0");
  const std::size_t kind = rng.below(7);
  std::string m = text;
  switch (kind) {
    case 0:
      m[rng.below(m.size())] ^= static_cast<char>(1 << rng.below(8));
      break;
    case 1:
      m[rng.below(m.size())] = kPoke[rng.below(kPoke.size())];
      break;
    case 2:
      m.resize(rng.below(m.size()));
      break;
    case 3:
    case 4: {
      auto lines = split_lines(m);
      const std::size_t i = rng.below(lines.size());
      if (kind == 3) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      }
      m = join(lines);
      break;
    }
    case 5:
      m.insert(rng.below(m.size() + 1), 1,
               static_cast<char>('0' + rng.below(10)));
      break;
    default: {
      // Replace the token that starts at or after a random position.
      std::size_t at = rng.below(m.size());
      while (at < m.size() && std::string(" \t\n").find(m[at]) == std::string::npos)
        ++at;
      while (at < m.size() && std::string(" \t\n").find(m[at]) != std::string::npos)
        ++at;
      std::size_t end = at;
      while (end < m.size() && std::string(" \t\n").find(m[end]) == std::string::npos)
        ++end;
      m.replace(at, end - at, edge_tokens()[rng.below(edge_tokens().size())]);
      break;
    }
  }
  return {kKinds[kind], m};
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size()))
    s.replace(at, from.size(), to);
  return s;
}

using Inputs = std::vector<std::pair<std::string, std::string>>;

Inputs parse_corpus() {
  Inputs in;
  std::vector<std::filesystem::path> traces;
  for (const auto& e : std::filesystem::directory_iterator(WCP_EXAMPLE_TRACES))
    if (e.path().extension() == ".trace") traces.push_back(e.path());
  std::sort(traces.begin(), traces.end());

  constexpr int kMutantsPerTrace = 60;
  for (const auto& path : traces) {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    const std::string stem = path.stem().string();
    in.emplace_back(stem + "/orig", text);
    in.emplace_back(stem + "/crlf", replace_all(text, "\n", "\r\n"));
    in.emplace_back(stem + "/no-final-newline",
                    text.substr(0, text.find_last_not_of('\n') + 1));
    SplitMix rng{fnv1a(stem)};
    for (int i = 0; i < kMutantsPerTrace; ++i) {
      auto [kind, m] = mutate(text, rng);
      in.emplace_back(stem + "/" + std::to_string(i) + "-" + kind,
                      std::move(m));
    }
  }

  // Every edge token in every numeric slot of a small valid trace.
  const std::string slots[] = {"VERSION", "PROCS", "FROM", "TO", "PRED",
                               "RECV",    "MARKP", "MARKV"};
  const std::string base =
      "wcp-trace VERSION\nprocesses PROCS\npredicate PRED 1\n"
      "send FROM TO\nrecv RECV\nmark MARKP MARKV\nend\n";
  const std::pair<std::string, std::string> fill[] = {
      {"VERSION", "1"}, {"PROCS", "3"}, {"FROM", "0"}, {"TO", "1"},
      {"PRED", "0"},    {"RECV", "0"},  {"MARKP", "2"}, {"MARKV", "1"}};
  for (const auto& slot : slots) {
    for (std::size_t t = 0; t < edge_tokens().size(); ++t) {
      std::string text = replace_all(base, slot, edge_tokens()[t]);
      for (const auto& [name, value] : fill) text = replace_all(text, name, value);
      in.emplace_back("edge/" + slot + "/" + std::to_string(t), text);
    }
  }

  const std::string ok =
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv 0\nmark 1 1\nend\n";
  const std::pair<const char*, std::string> shapes[] = {
      {"empty", ""},
      {"blank-only", " \t\r\n\n\t\n"},
      {"comment-only", "# nothing\n  # more\n"},
      {"vt-line", "wcp-trace 1\nprocesses 2\n\v\nend\n"},
      {"ff-line", "wcp-trace 1\nprocesses 2\n\f\nend\n"},
      {"vt-ff-mixed-line", "wcp-trace 1\nprocesses 2\n \v\t\f\r\nend\n"},
      {"vt-before-header", "\v\nwcp-trace 1\nprocesses 2\nend\n"},
      {"vt-separators", "wcp-trace\v1\nprocesses\f2\nsend\v0\f1\nend\v\n"},
      {"tab-separators", "wcp-trace\t1\nprocesses\t2\nsend\t0\t1\nend\n"},
      {"crlf", replace_all(ok, "\n", "\r\n")},
      {"cr-only", replace_all(ok, "\n", "\r")},
      {"no-final-newline", ok.substr(0, ok.size() - 1)},
      {"nul-in-token", lit("wcp-trace 1\nprocesses 2\nsend 0\0 1\nend\n")},
      {"nul-after-token", lit("wcp-trace 1\nprocesses 2\nsend 0 1 \0\nend\n")},
      {"nul-line", lit("wcp-trace 1\nprocesses 2\n\0\nend\n")},
      {"nul-after-end", lit("wcp-trace 1\nprocesses 2\nend\n\0")},
      {"hash-in-token", "wcp-trace 1\nprocesses 2\nsend 0 1#x\nrecv 0\nend\n"},
      {"hash-in-directive", "wcp-trace 1\nprocesses 2\nse#nd 0 1\nend\n"},
      {"hash-before-value", "wcp-trace 1\nprocesses 2\nmark 1 #1\nend\n"},
      {"hash-in-header", "wcp-trace 1#\nprocesses 2#2\nend#\n"},
      {"hash-magic", "wcp-#trace 1\nprocesses 2\nend\n"},
      {"header-trailing", "wcp-trace 1 1\nprocesses 2\nend\n"},
      {"header-missing-version", "wcp-trace\nprocesses 2\nend\n"},
      {"header-version-2", "wcp-trace 2\nprocesses 2\nend\n"},
      {"missing-end-trailing-blanks", "wcp-trace 1\nprocesses 2\n\n\n  \n"},
      {"missing-end-no-newline", "wcp-trace 1\nprocesses 2"},
      {"blank-after-end", ok + "\n \n# c\n"},
      {"content-after-end-later", ok + "\n\nmark 0 1\n"},
      {"end-first", "wcp-trace 1\nend\n"},
      {"predicate-empty", "wcp-trace 1\nprocesses 2\npredicate\nend\n"},
      {"predicate-hash", "wcp-trace 1\nprocesses 2\npredicate 1#0\nend\n"},
      {"predicate-bad-token", "wcp-trace 1\nprocesses 2\npredicate 1 x\nend\n"},
      {"in-flight", "wcp-trace 1\nprocesses 2\nsend 0 1\nsend 1 0\nrecv 1\nend\n"},
      {"non-fifo", "wcp-trace 1\nprocesses 3\nsend 0 1\nsend 0 1\nsend 2 1\n"
                   "recv 1\nrecv 2\nrecv 0\nend\n"},
      {"upper-case", "WCP-TRACE 1\nprocesses 2\nend\n"},
      {"high-byte", "wcp-trace 1\nprocesses 2\nmark 0 \xff\nend\n"},
  };
  for (const auto& [name, text] : shapes) in.emplace_back(std::string("shape/") + name, text);
  return in;
}

std::map<std::string, std::string> load_parse_golden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(WCP_PARSE_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    golden[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return golden;
}

TEST(TraceFuzz, ParseOutcomesMatchGolden) {
  const auto golden = load_parse_golden();
  const Inputs corpus = parse_corpus();
  ASSERT_GE(corpus.size(), 500u) << "the example traces went missing";
  const std::string path = ::testing::TempDir() + "/wcp_parse_corpus.trace";
  std::size_t accepted = 0;
  for (const auto& [id, text] : corpus) {
    const std::string got = outcome([&] { return trace_from_string(text); });
    if (got.rfind("ok ", 0) == 0) ++accepted;
    // The stream reader and both file loaders (mapped bytes; one sniffs
    // the format) must reach the same outcome as the string reader.
    std::istringstream is(text);
    EXPECT_EQ(outcome([&] { return read_trace(is); }), got) << id;
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    EXPECT_EQ(outcome([&] { return load_trace_file(path); }), got) << id;
    EXPECT_EQ(outcome([&] { return load_any_trace_file(path); }), got) << id;

    const auto it = golden.find(id);
    if (it != golden.end() && it->second == got) continue;
    std::cout << "parse-record " << id << '\t' << got << '\n';
    if (it == golden.end()) {
      ADD_FAILURE() << "parse record \"" << id << "\" is missing from "
                    << WCP_PARSE_GOLDEN_FILE;
    } else {
      ADD_FAILURE() << "parse record \"" << id << "\" differs:\n  - "
                    << it->second << "\n  + " << got;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(golden.size(), corpus.size())
      << "the golden file has records this test no longer produces";
  // The corpus must exercise both outcomes, not only rejections.
  EXPECT_GE(accepted, 50u);
}

}  // namespace
}  // namespace wcp
