#include "common/cut_storage.h"

#include <algorithm>

#include "common/error.h"

namespace wcp {

// ---- CutArena --------------------------------------------------------------

void CutArena::note_capacity() {
  if (data_.capacity() != last_capacity_) {
    if (data_.capacity() > 0) ++growths_;
    last_capacity_ = data_.capacity();
    peak_bytes_ = std::max(
        peak_bytes_,
        static_cast<std::int64_t>(last_capacity_ * sizeof(std::uint32_t)));
  }
}

void CutArena::grow_for_push() {
  if (data_.size() + width_ <= data_.capacity()) return;
  std::size_t cap = data_.capacity() + data_.capacity() / 2;
  cap = std::max({cap, data_.size() + width_, std::size_t{64}});
  data_.reserve(cap);
}

CutHandle CutArena::push(std::span<const StateIndex> cut) {
  WCP_REQUIRE(cut.size() == width_, "cut width mismatch");
  const std::size_t h = size();
  WCP_REQUIRE(h < kNoCut, "cut arena handle space exhausted");
  grow_for_push();
  for (StateIndex k : cut) {
    WCP_REQUIRE(k >= 0 && k < static_cast<StateIndex>(kNoCut),
                "cut component does not pack to 32 bits");
    data_.push_back(static_cast<std::uint32_t>(k));
  }
  note_capacity();
  return static_cast<CutHandle>(h);
}

void CutArena::copy_to(CutHandle h, std::vector<StateIndex>& out) const {
  const auto c = get(h);
  out.resize(width_);
  for (std::size_t i = 0; i < width_; ++i)
    out[i] = static_cast<StateIndex>(c[i]);
}

std::vector<StateIndex> CutArena::materialize(CutHandle h) const {
  std::vector<StateIndex> out;
  copy_to(h, out);
  return out;
}

// ---- CutTable --------------------------------------------------------------

namespace {

constexpr std::size_t kMinSlots = 16;

bool equal_logical(std::span<const std::uint32_t> stored,
                   std::span<const StateIndex> cut) {
  for (std::size_t i = 0; i < stored.size(); ++i)
    if (static_cast<StateIndex>(stored[i]) != cut[i]) return false;
  return true;
}

}  // namespace

template <typename Eq>
std::size_t CutTable::probe(std::size_t hash, const Eq& equals) const {
  const std::size_t mask = slots_.size() - 1;
  const auto lo = static_cast<std::uint32_t>(hash);
  std::size_t idx = hash & mask;
  for (;;) {
    ++probes_;
    const Slot& s = slots_[idx];
    if (s.handle == kNoCut) return idx;                     // empty: absent
    if (s.hash == lo && equals(s.handle)) return idx;       // found
    idx = (idx + 1) & mask;
  }
}

void CutTable::grow() {
  const std::size_t cap = slots_.empty() ? kMinSlots : slots_.size() * 2;
  // Placement below is computed from the stored low-32 hash bits; that
  // equals full-hash placement only while the mask fits in 32 bits. The
  // arena's 32-bit handle space runs out in the same decade, so this is a
  // capacity bound, not a practical limit.
  WCP_REQUIRE(cap <= (std::size_t{1} << 32),
              "cut table slot space exhausted");
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{0, kNoCut});
  ++growths_;
  peak_bytes_ =
      std::max(peak_bytes_, static_cast<std::int64_t>(cap * sizeof(Slot)));
  const std::size_t mask = cap - 1;
  for (const Slot& s : old) {
    if (s.handle == kNoCut) continue;
    std::size_t idx = s.hash & mask;
    while (slots_[idx].handle != kNoCut) idx = (idx + 1) & mask;
    slots_[idx] = s;
  }
}

CutTable::Result CutTable::intern(CutArena& arena,
                                  std::span<const StateIndex> cut,
                                  std::size_t hash) {
  if ((count_ + 1) * 10 >= slots_.size() * 7) grow();
  const std::size_t idx = probe(
      hash, [&](CutHandle h) { return equal_logical(arena.get(h), cut); });
  if (slots_[idx].handle != kNoCut) return {slots_[idx].handle, false};
  const CutHandle h = arena.push(cut);
  slots_[idx] = Slot{static_cast<std::uint32_t>(hash), h};
  ++count_;
  return {h, true};
}

CutHandle CutTable::find(const CutArena& arena,
                         std::span<const StateIndex> cut,
                         std::size_t hash) const {
  if (slots_.empty()) return kNoCut;
  const std::size_t idx = probe(
      hash, [&](CutHandle h) { return equal_logical(arena.get(h), cut); });
  return slots_[idx].handle;
}

}  // namespace wcp
