#include "trace/trace_io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/byte_source.h"
#include "common/error.h"
#include "trace/trace_store.h"

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

namespace {

/// The six bytes `istream >>` skips in the classic locale.
bool is_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

/// Whitespace-separated tokens of one line, split as `istream >>` splits.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token, or false at the end of the line.
  bool next(std::string_view& tok) {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    tok = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return !tok.empty();
  }

 private:
  std::string_view rest_;
};

/// Parses a whole token as std::stoll accepts one: an optional '+'
/// or '-', then decimal digits, within the int64 range.
bool parse_int64(std::string_view tok, std::int64_t& v) {
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (first != last && *first == '+') {
    ++first;  // from_chars takes no '+', and no sign may follow one
    if (first == last || *first < '0' || *first > '9') return false;
  }
  const auto [ptr, ec] = std::from_chars(first, last, v);
  return ec == std::errc() && ptr == last;
}

}  // namespace

Computation read_trace(std::string_view text) {
  std::string_view line;
  std::size_t line_no = 0;
  std::size_t at = 0;  // start of the next unread line
  auto next_line = [&]() -> bool {
    while (at < text.size()) {
      const std::size_t nl = text.find('\n', at);
      const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
      line = text.substr(at, end - at);
      at = end + 1;
      ++line_no;
      line = line.substr(0, line.find('#'));
      // Skip blank lines.
      if (line.find_first_not_of(" \t\r") != std::string_view::npos)
        return true;
    }
    return false;
  };

  // Every rejection names the offending line; nothing parses silently.
  auto fail = [&](const std::string& why) {
    WCP_REQUIRE(false, "trace parse error at line " << line_no << ": " << why
                                                    << " in '" << line << "'");
  };
  auto parse_int = [&](Tokens& ls, const char* what) -> std::int64_t {
    std::string_view tok;
    if (!ls.next(tok)) fail(std::string("missing ") + what);
    std::int64_t v = 0;
    if (!parse_int64(tok, v))
      fail(std::string("unparseable ") + what + " '" + std::string(tok) + "'");
    return v;
  };
  auto expect_eol = [&](Tokens& ls) {
    std::string_view extra;
    if (ls.next(extra))
      fail("unexpected trailing token '" + std::string(extra) + "'");
  };

  WCP_REQUIRE(next_line(), "trace parse error: empty input (missing header)");
  {
    Tokens hdr(line);
    std::string_view magic;
    hdr.next(magic);
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

  auto parse_pid = [&](Tokens& ls, const char* what) -> int {
    const std::int64_t p = parse_int(ls, what);
    if (p < 0 || static_cast<std::size_t>(p) >= N)
      fail(std::string(what) + " " + std::to_string(p) + " out of range [0, " +
           std::to_string(N) + ")");
    return static_cast<int>(p);
  };
  auto parse_bit = [&](Tokens& ls, const char* what) -> bool {
    const std::int64_t v = parse_int(ls, what);
    if (v != 0 && v != 1)
      fail(std::string(what) + " " + std::to_string(v) + " not in {0, 1}");
    return v != 0;
  };

  while (next_line()) {
    Tokens ls(line);
    std::string_view cmd;
    ls.next(cmd);
    if (cmd == "processes") {
      if (b) fail("duplicate 'processes' directive");
      const std::int64_t n = parse_int(ls, "process count");
      if (n < 1 || static_cast<std::uint64_t>(n) > kMaxProcesses)
        fail("process count " + std::to_string(n) + " out of range");
      expect_eol(ls);
      N = static_cast<std::size_t>(n);
      b = std::make_unique<ComputationBuilder>(N);
    } else if (cmd == "predicate") {
      if (!b) fail("'predicate' before 'processes'");
      if (saw_predicate) fail("duplicate 'predicate' directive");
      saw_predicate = true;
      std::vector<bool> seen(N, false);
      std::string_view tok;
      while (ls.next(tok)) {
        Tokens one(tok);
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
      if (!b) fail("'end' before 'processes'");
      expect_eol(ls);
      saw_end = true;
      break;
    } else {
      fail("unknown directive '" + std::string(cmd) + "'");
    }
  }
  if (!saw_end) {
    WCP_REQUIRE(false, "trace parse error at line "
                           << line_no << ": missing 'end' directive");
  }
  if (next_line()) fail("content after 'end'");
  if (!preds.empty()) b->set_predicate_processes(std::move(preds));
  return b->build();
}

Computation read_trace(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return read_trace(std::string_view(text));
}

Computation trace_from_string(const std::string& text) {
  return read_trace(std::string_view(text));
}

void save_trace_file(const std::string& path, const Computation& c) {
  std::ofstream f(path);
  WCP_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  write_trace(f, c);
}

Computation load_trace_file(const std::string& path) {
  const auto src = ByteSource::map_file(path);
  const auto bytes = src->bytes();
  return read_trace(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace wcp
