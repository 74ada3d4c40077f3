// FNV-1a hash over the components of a global-state cut.
//
// The one shared definition of the cut hash used by every detector that
// keys hash containers on cuts (lattice BFS visited sets, slice quotient
// interning, the flat CutTable).
//
// All overloads hash the *logical* component values, so a cut stored as
// packed 32-bit components (common/cut_storage.h) hashes identically to
// the same cut held in a std::vector<StateIndex>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace wcp {

struct CutHash {
  std::size_t operator()(std::span<const StateIndex> cut) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (StateIndex k : cut) {
      h ^= static_cast<std::size_t>(k);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  /// Packed cuts (CutArena storage): component values are non-negative and
  /// < 2^32, so the widening cast reproduces the StateIndex hash exactly.
  std::size_t operator()(std::span<const std::uint32_t> cut) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t k : cut) {
      h ^= static_cast<std::size_t>(k);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  std::size_t operator()(const std::vector<StateIndex>& cut) const noexcept {
    return (*this)(std::span<const StateIndex>(cut));
  }
};

}  // namespace wcp
