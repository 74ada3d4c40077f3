// Text (de)serialization of computations.
//
// Format (line-oriented, '#' comments allowed):
//
//   wcp-trace 1
//   processes <N>                # exactly once, before any other directive
//   predicate <p0> <p1> ...      # at most once; pids unique, in [0, N)
//   default <p> <0|1>            # default local-predicate value on p
//   send <from> <to>             # events, in a causally valid global order
//   recv <msgid>                 # a previously sent, undelivered id
//   mark <p> <0|1>               # set predicate of p's current state
//   end                          # mandatory terminator
//
// The writer emits events in a valid order (receives after their sends), so
// any written trace round-trips through the reader — including messages
// still in flight (a send with no matching recv).
//
// The reader validates every token: integers must parse completely, pids
// and message ids are range-checked, duplicate directives and double
// deliveries are rejected, and any violation throws std::invalid_argument
// reading "trace parse error at line <L>: <why> in '<line>'" — malformed
// input never silently parses as zeros. More than kMaxProcesses (4,096,
// trace/trace_store.h) processes is a parse error too.
//
// The reader parses a byte span in place: read_trace(std::string_view)
// splits lines on '\n', tokens on the six bytes `istream >>` skips (space,
// \t, \n, \v, \f, \r) and converts numbers with std::from_chars, taking
// what std::stoll accepts on a whole token (an optional '+' or '-',
// decimal digits, int64 range). load_trace_file and load_any_trace_file
// hand it the mapped file; the stream overload reads its input to the end
// first. See trace/trace_store.h for the binary format and the sniffing
// load_any_trace_file.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/computation.h"

namespace wcp {

void write_trace(std::ostream& os, const Computation& c);
std::string trace_to_string(const Computation& c);

Computation read_trace(std::string_view text);
Computation read_trace(std::istream& is);
Computation trace_from_string(const std::string& text);

void save_trace_file(const std::string& path, const Computation& c);
Computation load_trace_file(const std::string& path);

}  // namespace wcp
