#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace wcp {

namespace {

[[noreturn]] void not_a(std::string_view program, const std::string& key,
                        const char* what, const std::string& value) {
  throw FlagError(std::string(program) + ": --" + key + " expects " + what +
                  ", got \"" + value + "\"");
}

template <class T>
T in_range(std::string_view program, const std::string& key, T v, T lo,
           T hi) {
  if (v < lo || v > hi) {
    std::ostringstream os;
    os << program << ": --" << key << " must be in [" << lo << ", " << hi
       << "], got " << v;
    throw FlagError(os.str());
  }
  return v;
}

}  // namespace

std::int64_t parse_flag_int(std::string_view program, const std::string& key,
                            const std::string& value, std::int64_t lo,
                            std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno != 0)
    not_a(program, key, "an integer", value);
  return in_range<std::int64_t>(program, key, v, lo, hi);
}

double parse_flag_double(std::string_view program, const std::string& key,
                         const std::string& value, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno != 0 || !std::isfinite(v))
    not_a(program, key, "a number", value);
  return in_range(program, key, v, lo, hi);
}

}  // namespace wcp
