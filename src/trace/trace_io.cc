#include "trace/trace_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace wcp {

namespace {

// Per-process default predicate value = the majority value of its states,
// to keep traces small.
std::vector<bool> majority_defaults(const Computation& c) {
  std::vector<bool> def(c.num_processes());
  for (std::size_t p = 0; p < c.num_processes(); ++p) {
    ProcessId pid(static_cast<int>(p));
    std::int64_t trues = 0;
    const StateIndex total = c.num_states(pid);
    for (StateIndex k = 1; k <= total; ++k)
      if (c.local_pred(pid, k)) ++trues;
    def[p] = trues * 2 > total;
  }
  return def;
}

}  // namespace

void write_trace(std::ostream& os, const Computation& c) {
  const std::size_t N = c.num_processes();
  os << "wcp-trace 1\n";
  os << "processes " << N << "\n";
  os << "predicate";
  for (ProcessId p : c.predicate_processes()) os << ' ' << p.value();
  os << "\n";

  const auto def = majority_defaults(c);
  for (std::size_t p = 0; p < N; ++p)
    os << "default " << p << ' ' << (def[p] ? 1 : 0) << "\n";

  // Initial-state marks.
  for (std::size_t p = 0; p < N; ++p) {
    ProcessId pid(static_cast<int>(p));
    if (c.local_pred(pid, 1) != def[p])
      os << "mark " << p << ' ' << (c.local_pred(pid, 1) ? 1 : 0) << "\n";
  }

  // Greedy causal replay (receives after their sends), the same scan the
  // trace store's clock replay uses.
  std::vector<std::size_t> next(N, 0);
  // Sends are renumbered in emission order; map original ids to new ones so
  // 'recv' lines reference the reader's ids.
  std::vector<MessageId> new_id(c.messages().size(), -1);
  MessageId next_new_id = 0;
  std::size_t remaining = 0;
  for (std::size_t p = 0; p < N; ++p)
    remaining += c.events(ProcessId(static_cast<int>(p))).size();

  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t p = 0; p < N; ++p) {
      ProcessId pid(static_cast<int>(p));
      const auto events = c.events(pid);
      while (next[p] < events.size()) {
        const Event& ev = events[next[p]];
        const auto mi = static_cast<std::size_t>(ev.msg);
        if (ev.kind == EventKind::kSend) {
          const MessageRecord& mr = c.message(ev.msg);
          os << "send " << mr.from.value() << ' ' << mr.to.value() << "\n";
          new_id[mi] = next_new_id++;
        } else {
          if (new_id[mi] < 0) break;
          os << "recv " << new_id[mi] << "\n";
        }
        const StateIndex new_state = static_cast<StateIndex>(next[p]) + 2;
        if (c.local_pred(pid, new_state) != def[p])
          os << "mark " << p << ' ' << (c.local_pred(pid, new_state) ? 1 : 0)
             << "\n";
        ++next[p];
        --remaining;
        progressed = true;
      }
    }
    WCP_CHECK_MSG(progressed || remaining == 0,
                  "trace writer: inconsistent computation");
  }
  os << "end\n";
}

std::string trace_to_string(const Computation& c) {
  std::ostringstream oss;
  write_trace(oss, c);
  return oss.str();
}

Computation read_trace(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      const auto pos = line.find('#');
      if (pos != std::string::npos) line.erase(pos);
      // Skip blank lines.
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  };

  // Every rejection names the offending line; nothing parses silently.
  auto fail = [&](const std::string& why) {
    WCP_REQUIRE(false, "trace parse error at line " << line_no << ": " << why
                                                    << " in '" << line << "'");
  };
  auto parse_int = [&](std::istringstream& ls,
                       const char* what) -> std::int64_t {
    std::string tok;
    if (!(ls >> tok)) fail(std::string("missing ") + what);
    std::int64_t v = 0;
    std::size_t used = 0;
    try {
      v = std::stoll(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size())
      fail(std::string("unparseable ") + what + " '" + tok + "'");
    return v;
  };
  auto expect_eol = [&](std::istringstream& ls) {
    std::string extra;
    if (ls >> extra) fail("unexpected trailing token '" + extra + "'");
  };

  WCP_REQUIRE(next_line(), "trace parse error: empty input (missing header)");
  {
    std::istringstream hdr(line);
    std::string magic;
    hdr >> magic;
    if (magic != "wcp-trace") fail("bad magic (expected 'wcp-trace')");
    if (parse_int(hdr, "format version") != 1) fail("unsupported version");
    expect_eol(hdr);
  }

  std::size_t N = 0;
  std::vector<ProcessId> preds;
  bool saw_predicate = false;
  bool saw_end = false;
  std::unique_ptr<ComputationBuilder> b;
  MessageId num_sent = 0;
  std::vector<bool> delivered;

  auto parse_pid = [&](std::istringstream& ls, const char* what) -> int {
    const std::int64_t p = parse_int(ls, what);
    if (p < 0 || static_cast<std::size_t>(p) >= N)
      fail(std::string(what) + " " + std::to_string(p) + " out of range [0, " +
           std::to_string(N) + ")");
    return static_cast<int>(p);
  };
  auto parse_bit = [&](std::istringstream& ls, const char* what) -> bool {
    const std::int64_t v = parse_int(ls, what);
    if (v != 0 && v != 1)
      fail(std::string(what) + " " + std::to_string(v) + " not in {0, 1}");
    return v != 0;
  };

  while (next_line()) {
    std::istringstream ls(line);
    std::string cmd;
    ls >> cmd;
    if (cmd == "processes") {
      if (b) fail("duplicate 'processes' directive");
      const std::int64_t n = parse_int(ls, "process count");
      if (n < 1 || n > std::numeric_limits<int>::max())
        fail("process count " + std::to_string(n) + " out of range");
      expect_eol(ls);
      N = static_cast<std::size_t>(n);
      b = std::make_unique<ComputationBuilder>(N);
    } else if (cmd == "predicate") {
      if (!b) fail("'predicate' before 'processes'");
      if (saw_predicate) fail("duplicate 'predicate' directive");
      saw_predicate = true;
      std::vector<bool> seen(N, false);
      std::string tok;
      while (ls >> tok) {
        std::istringstream one(tok);
        const int p = parse_pid(one, "predicate process");
        if (seen[static_cast<std::size_t>(p)])
          fail("duplicate predicate process " + std::to_string(p));
        seen[static_cast<std::size_t>(p)] = true;
        preds.emplace_back(p);
      }
    } else if (cmd == "default") {
      if (!b) fail("'default' before 'processes'");
      const int p = parse_pid(ls, "process id");
      const bool v = parse_bit(ls, "default value");
      expect_eol(ls);
      b->set_default_pred(ProcessId(p), v);
    } else if (cmd == "send") {
      if (!b) fail("'send' before 'processes'");
      const int from = parse_pid(ls, "sender");
      const int to = parse_pid(ls, "receiver");
      expect_eol(ls);
      if (from == to) fail("self-send on process " + std::to_string(from));
      const MessageId id = b->send(ProcessId(from), ProcessId(to));
      WCP_CHECK(id == num_sent);
      ++num_sent;
      delivered.push_back(false);
    } else if (cmd == "recv") {
      if (!b) fail("'recv' before 'processes'");
      const std::int64_t id = parse_int(ls, "message id");
      expect_eol(ls);
      if (id < 0 || id >= num_sent)
        fail("message id " + std::to_string(id) + " not sent yet (" +
             std::to_string(num_sent) + " sends so far)");
      if (delivered[static_cast<std::size_t>(id)])
        fail("message " + std::to_string(id) + " already received");
      delivered[static_cast<std::size_t>(id)] = true;
      b->receive(id);
    } else if (cmd == "mark") {
      if (!b) fail("'mark' before 'processes'");
      const int p = parse_pid(ls, "process id");
      const bool v = parse_bit(ls, "mark value");
      expect_eol(ls);
      b->mark_pred(ProcessId(p), v);
    } else if (cmd == "end") {
      expect_eol(ls);
      saw_end = true;
      break;
    } else {
      fail("unknown directive '" + cmd + "'");
    }
  }
  if (!saw_end) {
    WCP_REQUIRE(false, "trace parse error at line "
                           << line_no << ": missing 'end' directive");
  }
  if (next_line()) fail("content after 'end'");
  WCP_CHECK(b != nullptr);
  if (!preds.empty()) b->set_predicate_processes(std::move(preds));
  return b->build();
}

Computation trace_from_string(const std::string& text) {
  std::istringstream iss(text);
  return read_trace(iss);
}

void save_trace_file(const std::string& path, const Computation& c) {
  std::ofstream f(path);
  WCP_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  write_trace(f, c);
}

Computation load_trace_file(const std::string& path) {
  std::ifstream f(path);
  WCP_REQUIRE(f.good(), "cannot open '" << path << "' for reading");
  return read_trace(f);
}

}  // namespace wcp
