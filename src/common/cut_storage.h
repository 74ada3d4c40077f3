// Flat cut storage: a bump-allocated arena of fixed-width cuts plus an
// open-addressing hash set/map over arena handles.
//
// The offline detectors enumerate huge numbers of consistent cuts, and the
// pre-flat representation paid three heap blocks per distinct cut: the
// std::vector<StateIndex> buffer, the unordered_set node wrapping it, and
// (while queued) a second full copy in the BFS frontier. CutArena replaces
// all of that with one contiguous pool — cuts are appended back to back as
// packed 32-bit components and addressed by a dense 32-bit handle — and
// CutTable replaces the node-based sets/maps with a flat open-addressing
// probe array of {precomputed FNV hash, handle} slots. Because handles are
// dense insertion indices, any per-cut payload (BFS parent, slice group id)
// is a plain std::vector keyed by handle rather than a hash map.
//
// Determinism: the table stores the shared wcp::CutHash value (see
// common/cut_hash.h) and hashes the logical component values, so
// first-insert-wins dedup semantics are exactly those of the old
// std::unordered_set<std::vector<StateIndex>, CutHash> containers.
// Components are packed to 32 bits losslessly (state indices are bounded
// by the per-process event count; push() checks the bound).
//
// Everything here is measured: both structures track a peak-bytes
// high-water mark, the number of capacity growths (heap allocations on the
// hot path), and the table counts slot probes — the counters behind the
// E17 storage bench and the `storage` block of the detector results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace wcp {

/// Dense index of a cut inside a CutArena. 32 bits bound one arena at ~4.2
/// billion cuts — far past what any bounded exploration materializes.
using CutHandle = std::uint32_t;
inline constexpr CutHandle kNoCut = 0xFFFFFFFFu;

/// Storage accounting for one detector run (summed over every arena and
/// table the run used).
struct CutStorageStats {
  std::int64_t peak_bytes = 0;     ///< high-water mark of arena+table bytes
  std::int64_t cuts_interned = 0;  ///< distinct cuts held across all arenas
  std::int64_t table_probes = 0;   ///< open-addressing slot inspections
  std::int64_t heap_allocs = 0;    ///< capacity growths on the hot path

  void merge(const CutStorageStats& o) {
    peak_bytes += o.peak_bytes;
    cuts_interned += o.cuts_interned;
    table_probes += o.table_probes;
    heap_allocs += o.heap_allocs;
  }
};

/// Bump-allocated pool of fixed-width cuts. Handles are indices, so they
/// stay valid across growth; spans into the pool are invalidated by any
/// size-changing call, exactly like std::vector iterators.
class CutArena {
 public:
  CutArena() = default;
  explicit CutArena(std::size_t width) : width_(width) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const {
    return width_ == 0 ? 0 : data_.size() / width_;
  }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Appends a copy of `cut`, packing components to 32 bits (checked).
  CutHandle push(std::span<const StateIndex> cut);

  [[nodiscard]] std::span<const std::uint32_t> get(CutHandle h) const {
    return {data_.data() + static_cast<std::size_t>(h) * width_, width_};
  }

  /// Widens cut `h` into `out` (resized to width, capacity reused).
  void copy_to(CutHandle h, std::vector<StateIndex>& out) const;
  [[nodiscard]] std::vector<StateIndex> materialize(CutHandle h) const;

  /// Drops every cut but keeps the capacity (per-level reset).
  void clear() { data_.clear(); }

  [[nodiscard]] std::int64_t bytes_in_use() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(std::uint32_t));
  }
  [[nodiscard]] std::int64_t peak_bytes() const { return peak_bytes_; }
  [[nodiscard]] std::int64_t growths() const { return growths_; }

  void add_stats(CutStorageStats& s) const {
    s.peak_bytes += peak_bytes();
    s.cuts_interned += static_cast<std::int64_t>(size());
    s.heap_allocs += growths();
  }

 private:
  void note_capacity();
  /// Ensures room for one more cut, growing capacity by 1.5x (not the
  /// vector's 2x) — the arena IS the peak-memory number this layer exists
  /// to shrink, so the overshoot band is kept tight.
  void grow_for_push();

  std::size_t width_ = 0;
  std::vector<std::uint32_t> data_;
  std::size_t last_capacity_ = 0;
  std::int64_t peak_bytes_ = 0;
  std::int64_t growths_ = 0;
};

/// Open-addressing (linear probing, power-of-two capacity) hash set of
/// arena handles with precomputed hashes. The caller supplies the
/// wcp::CutHash value, so dedup agrees bit-for-bit with the node-based
/// containers this replaces — and the test suite can force collisions by
/// lying about the hash.
class CutTable {
 public:
  struct Result {
    CutHandle handle;
    bool inserted;
  };

  /// Finds `cut`; on miss pushes it into `arena` and records the handle.
  Result intern(CutArena& arena, std::span<const StateIndex> cut,
                std::size_t hash);

  /// Handle of `cut`, or kNoCut.
  [[nodiscard]] CutHandle find(const CutArena& arena,
                               std::span<const StateIndex> cut,
                               std::size_t hash) const;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::int64_t probes() const { return probes_; }
  [[nodiscard]] std::int64_t bytes_in_use() const {
    return static_cast<std::int64_t>(slots_.size() * sizeof(Slot));
  }
  [[nodiscard]] std::int64_t peak_bytes() const { return peak_bytes_; }
  [[nodiscard]] std::int64_t growths() const { return growths_; }

  void add_stats(CutStorageStats& s) const {
    s.peak_bytes += peak_bytes();
    s.table_probes += probes();
    s.heap_allocs += growths();
  }

 private:
  /// 8 bytes per slot: the low 32 bits of the caller hash are enough both
  /// as the pre-equality filter and for placement on growth — the probe
  /// mask stays below 2^32 until the table would outgrow the 32-bit handle
  /// space anyway (grow() checks).
  struct Slot {
    std::uint32_t hash;
    CutHandle handle;
  };

  /// First slot index whose chain could hold `hash`; advances `idx` with
  /// linear probing. Returns kNoCut-slot index of the first empty slot when
  /// the cut is absent.
  template <typename Eq>
  [[nodiscard]] std::size_t probe(std::size_t hash, const Eq& equals) const;

  void grow();

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  mutable std::int64_t probes_ = 0;
  std::int64_t peak_bytes_ = 0;
  std::int64_t growths_ = 0;
};

}  // namespace wcp
