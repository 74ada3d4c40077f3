// Positional arguments of the example programs, parsed fail closed with
// the checked flag parsers (common/flags.h): a malformed or out-of-range
// value throws FlagError, whose message names the program and the
// argument; main() prints it and exits 2. An absent argument takes its
// default.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/flags.h"

namespace wcp::examples {

/// Largest process count a ProcessId can address.
inline constexpr std::int64_t kMaxProcesses =
    std::numeric_limits<std::int32_t>::max();
inline constexpr std::int64_t kMaxInt =
    std::numeric_limits<std::int64_t>::max();

class Args {
 public:
  Args(const char* program, int argc, char** argv)
      : program_(program), argc_(argc), argv_(argv) {}

  /// argv[i] as an integer in [lo, hi], or `fallback` when absent.
  [[nodiscard]] std::int64_t integer(int i, const std::string& name,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi = kMaxInt) const {
    return i < argc_ ? parse_flag_int(program_, name, argv_[i], lo, hi)
                     : fallback;
  }
  /// argv[i] as a probability in [0, 1], or `fallback` when absent.
  [[nodiscard]] double probability(int i, const std::string& name,
                                   double fallback) const {
    return i < argc_ ? parse_flag_double(program_, name, argv_[i], 0.0, 1.0)
                     : fallback;
  }

 private:
  const char* program_;
  int argc_;
  char** argv_;
};

}  // namespace wcp::examples
