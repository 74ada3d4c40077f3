// Checked parsing of command-line flag values, shared by the wcp_cli and
// wcp_served front ends so both fail closed the same way: empty input,
// trailing garbage ("--port xyz", "--once 4x"), overflow and out-of-range
// values are rejected with an error that names the program and the flag.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wcp {

/// A flag value that does not parse or lies outside its range. what() is
/// "<program>: --<key> ...", ready to print as is.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Base-10 integer in [lo, hi].
std::int64_t parse_flag_int(std::string_view program, const std::string& key,
                            const std::string& value, std::int64_t lo,
                            std::int64_t hi);

/// Finite real number in [lo, hi].
double parse_flag_double(std::string_view program, const std::string& key,
                         const std::string& value, double lo, double hi);

}  // namespace wcp
