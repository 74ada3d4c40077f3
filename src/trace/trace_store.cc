#include "trace/trace_store.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "common/byte_source.h"
#include "common/error.h"
#include "trace/trace_io.h"

namespace wcp {

namespace {

constexpr std::uint32_t kReceiveBit = kPackedEventReceiveBit;
constexpr std::uint64_t kStateCap = 1ull << 32;   // states per process
constexpr std::uint64_t kMessageCap = 1ull << 31; // ids share the event word
constexpr std::size_t kHeaderBytes = 136;
constexpr std::uint32_t kTracebinVersion = 1;

// ---- little-endian packing (explicit, so files are portable) ---------------

void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(std::span<const std::byte> b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<unsigned>(b[off + i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<unsigned>(b[off + i]))
         << (8 * i);
  return v;
}

void pad8(std::string& b) {
  while (b.size() % 8 != 0) b.push_back('\0');
}

/// Last change-list value with key <= k, or 0 if the component has not moved
/// by state k. Entries are (k' << 32) | value with k' strictly increasing and
/// value < 2^32, so the packed words themselves are ordered by k'.
std::uint64_t lookup_packed(const std::uint64_t* first, const std::uint64_t* last,
                            std::uint64_t k) {
  const auto* it = std::upper_bound(first, last, (k << 32) | 0xffff'ffffull);
  if (it == first) return 0;
  return *(it - 1) & 0xffff'ffffull;
}

template <class T>
std::int64_t span_bytes(std::span<const T> s) {
  return static_cast<std::int64_t>(s.size() * sizeof(T));
}

/// The clock change lists of one computation, derived by causal replay.
struct ClockReplay {
  std::vector<std::uint64_t> offsets;  // N*N + 1, the interval index
  std::vector<std::uint64_t> entries;  // (k << 32) | value per change point
  std::int64_t scratch_bytes = 0;      // replay working set, outputs excluded
  bool deadlocked = false;             // some receive precedes its send
};

/// Replays the event columns in a greedy, causally valid global order and
/// derives every change list, in two passes over the events: one counts,
/// one writes. A process's clock row lives in `rows`. A send shares an
/// in-flight snapshot of the sender's row with the sender's other sends
/// since its last receive (they differ only in the sender's own component,
/// which the message table holds), and the last receive of a snapshot's
/// messages frees it, so no message clock outlives its receive.
///
/// Requires consistent columns: each message is sent once at state
/// send_state of its sender, and received once, into recv_state != 0, iff
/// delivered. The builder guarantees that, as does the tracebin loader's
/// structural validation. Circular waits are reported, not assumed away.
ClockReplay replay_clocks(std::size_t N, std::span<const std::uint32_t> events,
                          std::span<const std::uint64_t> event_offsets,
                          std::span<const std::uint32_t> messages) {
  constexpr std::uint32_t kUnsent = 0xffff'ffff;  // send not replayed yet
  constexpr std::uint32_t kNoSlot = 0xffff'fffe;  // no snapshot taken
  const std::size_t num_msgs = messages.size() / 4;
  std::vector<std::uint32_t> rows(N * N);  // rows[p*N+j]: component j of p
  std::vector<std::uint32_t> slots;        // snapshots, N words each
  std::vector<std::uint32_t> refs;         // messages in flight per slot
  std::vector<std::uint32_t> free_slots;
  std::vector<std::uint32_t> epoch_slot(N);  // p's snapshot of its row
  std::vector<std::uint32_t> slot_of(num_msgs);
  std::vector<std::uint64_t> next(N);
  ClockReplay r;
  r.offsets.assign(N * N + 1, 0);

  // Replays every event once; `fold(p, row, snap, k)` merges a received
  // snapshot into p's row as p enters state k.
  const auto replay = [&](auto&& fold) {
    std::fill(rows.begin(), rows.end(), 0);
    std::fill(epoch_slot.begin(), epoch_slot.end(), kNoSlot);
    std::fill(slot_of.begin(), slot_of.end(), kUnsent);
    std::fill(next.begin(), next.end(), 0);
    free_slots.clear();
    std::uint32_t num_slots = 0;
    std::size_t remaining = events.size();
    while (remaining > 0) {
      bool progressed = false;
      for (std::size_t p = 0; p < N; ++p) {
        const std::uint32_t* evs = events.data() + event_offsets[p];
        const std::uint64_t count = event_offsets[p + 1] - event_offsets[p];
        std::uint32_t* row = rows.data() + p * N;
        std::uint64_t t = next[p];
        for (; t < count; ++t) {
          const std::uint32_t w = evs[t];
          const std::size_t m = w & ~kReceiveBit;
          if ((w & kReceiveBit) == 0) {
            if (messages[m * 4 + 3] == 0) {  // never received: no snapshot
              slot_of[m] = kNoSlot;
              continue;
            }
            std::uint32_t& slot = epoch_slot[p];
            if (slot == kNoSlot) {
              if (free_slots.empty()) {
                slot = num_slots++;
                slots.resize(std::max(slots.size(), std::size_t{num_slots} * N));
                refs.resize(std::max(refs.size(), std::size_t{num_slots}));
              } else {
                slot = free_slots.back();
                free_slots.pop_back();
              }
              std::copy(row, row + N, slots.data() + std::size_t{slot} * N);
            }
            ++refs[slot];
            slot_of[m] = slot;
          } else {
            const std::uint32_t slot = slot_of[m];
            if (slot == kUnsent) break;  // wait for the sender's replay
            WCP_CHECK(slot != kNoSlot);  // received, so it is delivered
            std::uint32_t* snap = slots.data() + std::size_t{slot} * N;
            const std::size_t from = messages[m * 4];
            snap[from] = messages[m * 4 + 1];  // sent from this state
            const std::uint64_t k = t + 2;
            // The receiver's own component is k and no message can carry
            // more, so folding it in never records a change point.
            row[p] = static_cast<std::uint32_t>(k);
            fold(p, row, snap, k);
            epoch_slot[p] = kNoSlot;  // p's row moved on
            // Whenever another process receives one of its messages, the
            // sender is stopped at a receive (or done), so its epoch ends
            // before it sends again: a freed slot is not still its own.
            if (--refs[slot] == 0) free_slots.push_back(slot);
          }
        }
        if (t != next[p]) {
          remaining -= t - next[p];
          next[p] = t;
          progressed = true;
        }
      }
      if (!progressed) return false;
    }
    return true;
  };

  // Pass 1 counts the change points of column (p, j) into offsets[p*N+j+1].
  // The fold has no branch, so the compiler can vectorize it.
  const auto count = [&](std::size_t p, std::uint32_t* row,
                         const std::uint32_t* snap, std::uint64_t) {
    std::uint64_t* counts = r.offsets.data() + p * N + 1;
    for (std::size_t j = 0; j < N; ++j) {
      counts[j] += snap[j] > row[j];
      row[j] = std::max(row[j], snap[j]);
    }
  };
  if (!replay(count)) {
    r.deadlocked = true;
    return r;
  }
  for (std::size_t i = 0; i < N * N; ++i) r.offsets[i + 1] += r.offsets[i];
  r.entries.resize(r.offsets[N * N]);

  // Pass 2 writes each change point at its column's cursor, offsets[p*N+j],
  // which leaves every cursor at its column's end; shifting the offsets by
  // one then restores the interval index. The fold first gathers the raised
  // components without a branch, then writes only those.
  std::vector<std::uint32_t> raised(N);
  const auto write = [&](std::size_t p, std::uint32_t* row,
                         const std::uint32_t* snap, std::uint64_t k) {
    std::uint64_t* cursors = r.offsets.data() + p * N;
    std::size_t n = 0;
    for (std::size_t j = 0; j < N; ++j) {
      raised[n] = static_cast<std::uint32_t>(j);
      n += snap[j] > row[j];
      row[j] = std::max(row[j], snap[j]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t j = raised[i];
      r.entries[cursors[j]++] = (k << 32) | row[j];
    }
  };
  replay(write);
  std::copy_backward(r.offsets.begin(), r.offsets.end() - 1, r.offsets.end());
  r.offsets[0] = 0;

  r.scratch_bytes = static_cast<std::int64_t>(
      sizeof(std::uint32_t) *
          (rows.capacity() + slots.capacity() + refs.capacity() +
           free_slots.capacity() + epoch_slot.capacity() +
           slot_of.capacity() + raised.capacity()) +
      sizeof(std::uint64_t) * next.capacity());
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Assembly: adopt the builder's columns, then derive the clock change lists
// by one two-pass causal replay.

TraceStore TraceStore::assemble(
    std::vector<std::uint64_t> state_counts,
    std::vector<std::uint32_t> pred_procs,
    const std::vector<std::vector<std::uint32_t>>& events,
    const std::vector<std::vector<std::uint64_t>>& pred_bits,
    std::vector<std::uint32_t> messages) {
  const std::size_t N = state_counts.size();
  WCP_REQUIRE(N <= kMaxProcesses,
              "computation has " << N << " processes, beyond the trace "
                                     "store's cap of "
                                 << kMaxProcesses);
  TraceStore s;
  s.event_offsets_.assign(N + 1, 0);
  s.pred_word_offsets_.assign(N + 1, 0);
  for (std::size_t p = 0; p < N; ++p) {
    const std::uint64_t states = state_counts[p];
    WCP_REQUIRE(states < kStateCap,
                "process " << ProcessId(static_cast<int>(p)) << " has "
                           << states
                           << " states, beyond the trace store's 2^32 cap");
    s.event_offsets_[p + 1] = s.event_offsets_[p] + (states - 1);
    s.pred_word_offsets_[p + 1] = s.pred_word_offsets_[p] + (states + 63) / 64;
  }
  const std::size_t num_msgs = messages.size() / 4;
  WCP_REQUIRE(num_msgs < kMessageCap,
              "computation has " << num_msgs
                                 << " messages, beyond the trace store's 2^31 cap");

  // The per-process event and predicate columns are concatenated back to
  // back; the shape and message columns are moved in as they are.
  s.state_counts_own_ = std::move(state_counts);
  s.pred_procs_own_ = std::move(pred_procs);
  s.messages_own_ = std::move(messages);
  s.events_own_.reserve(s.event_offsets_[N]);
  for (const auto& col : events)
    s.events_own_.insert(s.events_own_.end(), col.begin(), col.end());
  s.pred_bits_own_.reserve(s.pred_word_offsets_[N]);
  for (const auto& col : pred_bits)
    s.pred_bits_own_.insert(s.pred_bits_own_.end(), col.begin(), col.end());
  s.bind_owned();

  // The builder appended every receive after its send, so the replay cannot
  // deadlock.
  ClockReplay r = replay_clocks(N, s.events_, s.event_offsets_, s.messages_);
  WCP_CHECK_MSG(!r.deadlocked,
                "computation event order is causally inconsistent");
  s.clock_offsets_own_ = std::move(r.offsets);
  s.clock_entries_own_ = std::move(r.entries);
  s.bind_owned();
  s.set_clock_stats();
  s.stats_.peak_bytes = s.column_bytes() + r.scratch_bytes;
  return s;
}

void TraceStore::bind_owned() {
  state_counts_ = state_counts_own_;
  pred_procs_ = pred_procs_own_;
  events_ = events_own_;
  pred_bits_ = pred_bits_own_;
  messages_ = messages_own_;
  clock_offsets_ = clock_offsets_own_;
  clock_entries_ = clock_entries_own_;
}

std::int64_t TraceStore::column_bytes() const {
  return static_cast<std::int64_t>(sizeof(*this)) +
         span_bytes<std::uint64_t>(event_offsets_) +
         span_bytes<std::uint64_t>(pred_word_offsets_) +
         span_bytes(state_counts_) + span_bytes(pred_procs_) +
         span_bytes(events_) + span_bytes(pred_bits_) + span_bytes(messages_) +
         span_bytes(clock_offsets_) + span_bytes(clock_entries_);
}

std::int64_t TraceStore::resident_bytes() const {
  // Owned storage only: a mapped store's columns live in the page cache and
  // are not charged to this process's heap.
  const auto vec_bytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.size() *
                                     sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  return static_cast<std::int64_t>(sizeof(*this)) + vec_bytes(event_offsets_) +
         vec_bytes(pred_word_offsets_) + vec_bytes(state_counts_own_) +
         vec_bytes(pred_procs_own_) + vec_bytes(events_own_) +
         vec_bytes(pred_bits_own_) + vec_bytes(messages_own_) +
         vec_bytes(clock_offsets_own_) + vec_bytes(clock_entries_own_);
}

void TraceStore::set_clock_stats() {
  stats_.clocks_interned = total_states();
  stats_.delta_entries = static_cast<std::int64_t>(clock_entries_.size());
  stats_.delta_ratio =
      static_cast<double>(static_cast<std::int64_t>(num_processes()) *
                          total_states()) /
      static_cast<double>(std::max<std::int64_t>(1, stats_.delta_entries));
}

std::int64_t TraceStore::total_states() const {
  std::int64_t sum = 0;
  for (std::uint64_t s : state_counts_) sum += static_cast<std::int64_t>(s);
  return sum;
}

// ---------------------------------------------------------------------------
// Column accessors.

std::span<const std::uint32_t> TraceStore::packed_events(ProcessId p) const {
  WCP_REQUIRE(p.valid() && p.idx() < num_processes(), "bad process id " << p);
  return events_.subspan(event_offsets_[p.idx()],
                         event_offsets_[p.idx() + 1] - event_offsets_[p.idx()]);
}

bool TraceStore::local_pred(ProcessId p, StateIndex k) const {
  WCP_REQUIRE(p.valid() && p.idx() < num_processes(), "bad process id " << p);
  WCP_REQUIRE(k >= 1 && k <= num_states(p),
              "state (" << p << "," << k << ") out of range");
  const auto bit = static_cast<std::uint64_t>(k - 1);
  return (pred_bits_[pred_word_offsets_[p.idx()] + bit / 64] >>
          (bit % 64)) & 1;
}

MessageRecord TraceStore::message(MessageId id) const {
  WCP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < num_messages(),
              "unknown message " << id);
  const std::size_t b = static_cast<std::size_t>(id) * 4;
  return MessageRecord{ProcessId(static_cast<int>(messages_[b])),
                       static_cast<StateIndex>(messages_[b + 1]),
                       ProcessId(static_cast<int>(messages_[b + 2])),
                       static_cast<StateIndex>(messages_[b + 3])};
}

StateIndex TraceStore::clock_component(ProcessId p, StateIndex k,
                                       ProcessId j) const {
  const std::size_t N = num_processes();
  WCP_REQUIRE(p.valid() && p.idx() < N, "bad process id " << p);
  WCP_REQUIRE(j.valid() && j.idx() < N, "bad process id " << j);
  WCP_REQUIRE(k >= 1 && k <= num_states(p),
              "state (" << p << "," << k << ") out of range");
  if (p == j) return k;  // own component counts local states directly
  const std::uint64_t lo = clock_offsets_[p.idx() * N + j.idx()];
  const std::uint64_t hi = clock_offsets_[p.idx() * N + j.idx() + 1];
  return static_cast<StateIndex>(lookup_packed(
      clock_entries_.data() + lo, clock_entries_.data() + hi,
      static_cast<std::uint64_t>(k)));
}

VectorClock TraceStore::clock(ProcessId p, StateIndex k) const {
  const std::size_t N = num_processes();
  WCP_REQUIRE(p.valid() && p.idx() < N, "bad process id " << p);
  WCP_REQUIRE(k >= 1 && k <= num_states(p),
              "state (" << p << "," << k << ") out of range");
  std::vector<StateIndex> comps(N, 0);
  comps[p.idx()] = k;
  for (std::size_t j = 0; j < N; ++j) {
    if (j == p.idx()) continue;
    const std::uint64_t lo = clock_offsets_[p.idx() * N + j];
    const std::uint64_t hi = clock_offsets_[p.idx() * N + j + 1];
    comps[j] = static_cast<StateIndex>(lookup_packed(
        clock_entries_.data() + lo, clock_entries_.data() + hi,
        static_cast<std::uint64_t>(k)));
  }
  return VectorClock(std::move(comps));
}

// ---------------------------------------------------------------------------
// Binary format.

void TraceStore::save(std::ostream& os) const {
  const std::size_t N = num_processes();
  std::string body;

  const std::uint64_t off_pred_procs = kHeaderBytes + body.size();
  for (std::uint32_t v : pred_procs_) put_u32(body, v);
  pad8(body);
  const std::uint64_t off_state_counts = kHeaderBytes + body.size();
  for (std::uint64_t v : state_counts_) put_u64(body, v);
  const std::uint64_t off_events = kHeaderBytes + body.size();
  for (std::uint32_t v : events_) put_u32(body, v);
  pad8(body);
  const std::uint64_t off_pred_bits = kHeaderBytes + body.size();
  for (std::uint64_t v : pred_bits_) put_u64(body, v);
  const std::uint64_t off_messages = kHeaderBytes + body.size();
  for (std::uint32_t v : messages_) put_u32(body, v);
  pad8(body);
  const std::uint64_t off_clock_offsets = kHeaderBytes + body.size();
  for (std::uint64_t v : clock_offsets_) put_u64(body, v);
  const std::uint64_t off_clock_entries = kHeaderBytes + body.size();
  for (std::uint64_t v : clock_entries_) put_u64(body, v);

  std::string hdr;
  hdr.append(kTracebinMagic);
  put_u32(hdr, kTracebinVersion);
  put_u32(hdr, 0);  // reserved
  put_u64(hdr, N);
  put_u64(hdr, pred_procs_.size());
  put_u64(hdr, num_messages());
  put_u64(hdr, events_.size());
  put_u64(hdr, static_cast<std::uint64_t>(total_states()));
  put_u64(hdr, pred_bits_.size());
  put_u64(hdr, clock_entries_.size());
  put_u64(hdr, off_pred_procs);
  put_u64(hdr, off_state_counts);
  put_u64(hdr, off_events);
  put_u64(hdr, off_pred_bits);
  put_u64(hdr, off_messages);
  put_u64(hdr, off_clock_offsets);
  put_u64(hdr, off_clock_entries);
  put_u64(hdr, kHeaderBytes + body.size());  // file size
  WCP_CHECK(hdr.size() == kHeaderBytes);

  os.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  WCP_REQUIRE(os.good(), "trace store write failed");
}

TraceStore TraceStore::load(std::istream& is, const TraceLoadOptions& opts) {
  return from_source(ByteSource::read_stream(is), opts);
}

TraceStore TraceStore::from_source(std::shared_ptr<const ByteSource> src,
                                   const TraceLoadOptions& opts) {
  WCP_REQUIRE(src != nullptr, "cannot load a trace from a null byte source");
  const std::span<const std::byte> buf = src->bytes();
  src->advise_sequential();  // validation below scans front to back

  WCP_REQUIRE(buf.size() >= kHeaderBytes,
              "wcp-tracebin parse error: stream shorter than the "
                  << kHeaderBytes << "-byte header (" << buf.size()
                  << " bytes)");
  WCP_REQUIRE(std::memcmp(buf.data(), kTracebinMagic.data(),
                          kTracebinMagic.size()) == 0,
              "wcp-tracebin parse error: bad magic (not a wcp-tracebin file)");
  const std::uint32_t version = get_u32(buf, 8);
  WCP_REQUIRE(version == kTracebinVersion,
              "wcp-tracebin parse error: unsupported version " << version);
  WCP_REQUIRE(get_u32(buf, 12) == 0,
              "wcp-tracebin parse error: nonzero reserved header field");

  const std::uint64_t N = get_u64(buf, 16);
  const std::uint64_t num_preds = get_u64(buf, 24);
  const std::uint64_t num_msgs = get_u64(buf, 32);
  const std::uint64_t total_events = get_u64(buf, 40);
  const std::uint64_t total_states = get_u64(buf, 48);
  const std::uint64_t total_pred_words = get_u64(buf, 56);
  const std::uint64_t total_entries = get_u64(buf, 64);
  const std::uint64_t file_size = get_u64(buf, 128);

  WCP_REQUIRE(file_size == buf.size(),
              "wcp-tracebin parse error: header file size "
                  << file_size << " != actual stream size " << buf.size());
  WCP_REQUIRE(N >= 1 && N <= kMaxProcesses,
              "wcp-tracebin parse error: bad process count " << N);
  WCP_REQUIRE(num_msgs < kMessageCap,
              "wcp-tracebin parse error: message count " << num_msgs
                                                         << " beyond 2^31 cap");
  // Every count below is multiplied by at most 8; bounding them by the
  // (already verified) file size keeps those products far from overflow.
  WCP_REQUIRE(N <= file_size && num_preds <= file_size &&
                  num_msgs <= file_size && total_events <= file_size &&
                  total_states <= file_size &&
                  total_pred_words <= file_size && total_entries <= file_size,
              "wcp-tracebin parse error: section count exceeds file size");
  WCP_REQUIRE(total_events + N == total_states,
              "wcp-tracebin parse error: total events " << total_events
                  << " + N " << N << " != total states " << total_states);

  // Sections are laid out sequentially, 8-byte aligned, exactly as the
  // writer emits them; anything else is rejected. This is the offsets-
  // within-file check that makes the mapped views below memory-safe: once
  // every section provably lies inside [0, file_size), no accessor can
  // touch a page past the mapping.
  const std::uint64_t offs[7] = {get_u64(buf, 72),  get_u64(buf, 80),
                                 get_u64(buf, 88),  get_u64(buf, 96),
                                 get_u64(buf, 104), get_u64(buf, 112),
                                 get_u64(buf, 120)};
  const auto padded = [](std::uint64_t bytes) { return (bytes + 7) & ~7ull; };
  const std::uint64_t sizes[7] = {padded(num_preds * 4),
                                  N * 8,
                                  padded(total_events * 4),
                                  total_pred_words * 8,
                                  padded(num_msgs * 16),
                                  (N * N + 1) * 8,
                                  total_entries * 8};
  static const char* const kSectionNames[7] = {
      "pred_procs", "state_counts", "events",       "pred_bits",
      "messages",   "clock_offsets", "clock_entries"};
  std::uint64_t expect = kHeaderBytes;
  for (int i = 0; i < 7; ++i) {
    WCP_REQUIRE(offs[i] == expect,
                "wcp-tracebin parse error: section " << kSectionNames[i]
                    << " at offset " << offs[i] << ", expected " << expect);
    WCP_REQUIRE(offs[i] % 8 == 0,
                "wcp-tracebin parse error: section " << kSectionNames[i]
                    << " offset " << offs[i] << " not 8-byte aligned");
    expect += sizes[i];
    WCP_REQUIRE(expect <= file_size,
                "wcp-tracebin parse error: section " << kSectionNames[i]
                    << " extends past end of file");
  }
  WCP_REQUIRE(expect == file_size,
              "wcp-tracebin parse error: " << (file_size - expect)
                                           << " trailing bytes after sections");

  TraceStore s;

  // Bind the columns. On a little-endian host with an aligned buffer (mmap
  // is page-aligned; OwnedBytes is word-aligned) the views point straight
  // into the source: zero copies, columns served from the page cache. Any
  // other host decodes element-wise into owned vectors.
  const bool zero_copy =
      std::endian::native == std::endian::little &&
      reinterpret_cast<std::uintptr_t>(buf.data()) % 8 == 0;
  if (zero_copy) {
    s.backing_ = src;
    s.pred_procs_ = {reinterpret_cast<const std::uint32_t*>(buf.data() + offs[0]),
                     num_preds};
    s.state_counts_ = {reinterpret_cast<const std::uint64_t*>(buf.data() + offs[1]),
                       N};
    s.events_ = {reinterpret_cast<const std::uint32_t*>(buf.data() + offs[2]),
                 total_events};
    s.pred_bits_ = {reinterpret_cast<const std::uint64_t*>(buf.data() + offs[3]),
                    total_pred_words};
    s.messages_ = {reinterpret_cast<const std::uint32_t*>(buf.data() + offs[4]),
                   num_msgs * 4};
    s.clock_offsets_ = {
        reinterpret_cast<const std::uint64_t*>(buf.data() + offs[5]), N * N + 1};
    s.clock_entries_ = {
        reinterpret_cast<const std::uint64_t*>(buf.data() + offs[6]),
        total_entries};
  } else {
    s.pred_procs_own_.resize(num_preds);
    for (std::uint64_t i = 0; i < num_preds; ++i)
      s.pred_procs_own_[i] = get_u32(buf, offs[0] + i * 4);
    s.state_counts_own_.resize(N);
    for (std::uint64_t p = 0; p < N; ++p)
      s.state_counts_own_[p] = get_u64(buf, offs[1] + p * 8);
    s.events_own_.resize(total_events);
    for (std::uint64_t i = 0; i < total_events; ++i)
      s.events_own_[i] = get_u32(buf, offs[2] + i * 4);
    s.pred_bits_own_.resize(total_pred_words);
    for (std::uint64_t i = 0; i < total_pred_words; ++i)
      s.pred_bits_own_[i] = get_u64(buf, offs[3] + i * 8);
    s.messages_own_.resize(num_msgs * 4);
    for (std::uint64_t i = 0; i < num_msgs * 4; ++i)
      s.messages_own_[i] = get_u32(buf, offs[4] + i * 4);
    s.clock_offsets_own_.resize(N * N + 1);
    for (std::uint64_t i = 0; i < N * N + 1; ++i)
      s.clock_offsets_own_[i] = get_u64(buf, offs[5] + i * 8);
    s.clock_entries_own_.resize(total_entries);
    for (std::uint64_t i = 0; i < total_entries; ++i)
      s.clock_entries_own_[i] = get_u64(buf, offs[6] + i * 8);
    s.bind_owned();
  }

  // Per-process shape: derive event/predicate offsets and re-check the
  // header totals against the state counts.
  s.event_offsets_.assign(N + 1, 0);
  s.pred_word_offsets_.assign(N + 1, 0);
  std::uint64_t state_sum = 0;
  for (std::uint64_t p = 0; p < N; ++p) {
    const std::uint64_t states = s.state_counts_[p];
    WCP_REQUIRE(states >= 1 && states < kStateCap,
                "wcp-tracebin parse error: process " << p
                    << " has invalid state count " << states);
    state_sum += states;
    s.event_offsets_[p + 1] = s.event_offsets_[p] + (states - 1);
    s.pred_word_offsets_[p + 1] = s.pred_word_offsets_[p] + (states + 63) / 64;
  }
  WCP_REQUIRE(state_sum == total_states,
              "wcp-tracebin parse error: state counts sum to "
                  << state_sum << ", header says " << total_states);
  WCP_REQUIRE(s.pred_word_offsets_[N] == total_pred_words,
              "wcp-tracebin parse error: predicate column needs "
                  << s.pred_word_offsets_[N] << " words, header says "
                  << total_pred_words);

  // Predicate bits past each process's last state must be zero (canonical
  // encoding; also what save() emits).
  for (std::uint64_t p = 0; p < N; ++p) {
    const std::uint64_t tail = s.state_counts_[p] % 64;
    if (tail != 0) {
      const std::uint64_t w = s.pred_bits_[s.pred_word_offsets_[p + 1] - 1];
      WCP_REQUIRE((w >> tail) == 0,
                  "wcp-tracebin parse error: nonzero predicate padding bits "
                  "on process " << p);
    }
  }

  WCP_REQUIRE(num_preds >= 1 && num_preds <= N,
              "wcp-tracebin parse error: predicate covers " << num_preds
                                                            << " processes");
  {
    std::vector<char> seen(N, 0);
    for (std::uint32_t v : s.pred_procs_) {
      WCP_REQUIRE(v < N, "wcp-tracebin parse error: predicate process " << v
                             << " out of range [0," << N << ")");
      WCP_REQUIRE(!seen[v], "wcp-tracebin parse error: predicate process "
                                << v << " listed twice");
      seen[v] = 1;
    }
  }

  // Message table: endpoints and states in range.
  for (std::uint64_t m = 0; m < num_msgs; ++m) {
    const std::uint32_t from = s.messages_[m * 4];
    const std::uint64_t send_state = s.messages_[m * 4 + 1];
    const std::uint32_t to = s.messages_[m * 4 + 2];
    const std::uint64_t recv_state = s.messages_[m * 4 + 3];
    WCP_REQUIRE(from < N && to < N && from != to,
                "wcp-tracebin parse error: message " << m << " endpoints "
                    << from << "->" << to << " invalid for N=" << N);
    WCP_REQUIRE(send_state >= 1 && send_state <= s.state_counts_[from],
                "wcp-tracebin parse error: message " << m << " send state "
                    << send_state << " out of range on process " << from);
    WCP_REQUIRE(recv_state == 0 ||
                    (recv_state >= 2 && recv_state <= s.state_counts_[to]),
                "wcp-tracebin parse error: message " << m << " recv state "
                    << recv_state << " out of range on process " << to);
  }

  // Event columns: every event word must name a real message whose recorded
  // endpoint/state matches the event's position, each message must be sent
  // exactly once and received exactly when delivered.
  {
    std::vector<char> send_seen(num_msgs, 0);
    std::vector<char> recv_seen(num_msgs, 0);
    for (std::uint64_t p = 0; p < N; ++p) {
      const std::uint64_t count = s.state_counts_[p] - 1;
      for (std::uint64_t t = 0; t < count; ++t) {
        const std::uint32_t w = s.events_[s.event_offsets_[p] + t];
        const std::uint64_t id = w & ~kReceiveBit;
        WCP_REQUIRE(id < num_msgs,
                    "wcp-tracebin parse error: event " << t << " on process "
                        << p << " names unknown message " << id);
        if ((w & kReceiveBit) == 0) {
          WCP_REQUIRE(!send_seen[id],
                      "wcp-tracebin parse error: message " << id
                          << " sent twice");
          send_seen[id] = 1;
          WCP_REQUIRE(s.messages_[id * 4] == p &&
                          s.messages_[id * 4 + 1] == t + 1,
                      "wcp-tracebin parse error: send of message " << id
                          << " at (" << p << "," << t + 1
                          << ") contradicts the message table");
        } else {
          WCP_REQUIRE(!recv_seen[id],
                      "wcp-tracebin parse error: message " << id
                          << " received twice");
          recv_seen[id] = 1;
          WCP_REQUIRE(s.messages_[id * 4 + 2] == p &&
                          s.messages_[id * 4 + 3] == t + 2,
                      "wcp-tracebin parse error: receive of message " << id
                          << " into (" << p << "," << t + 2
                          << ") contradicts the message table");
        }
      }
    }
    for (std::uint64_t m = 0; m < num_msgs; ++m) {
      WCP_REQUIRE(send_seen[m],
                  "wcp-tracebin parse error: message " << m
                      << " is in the table but never sent");
      const bool delivered = s.messages_[m * 4 + 3] != 0;
      WCP_REQUIRE(recv_seen[m] == (delivered ? 1 : 0),
                  "wcp-tracebin parse error: message " << m
                      << " delivery flag contradicts the event columns");
    }
  }

  // Clock interval index: offsets monotone and exhaustive, diagonals empty,
  // each change list strictly increasing in both state and value.
  WCP_REQUIRE(s.clock_offsets_[0] == 0 && s.clock_offsets_[N * N] == total_entries,
              "wcp-tracebin parse error: clock offsets do not span the entry "
              "section");
  for (std::uint64_t i = 0; i < N * N; ++i) {
    WCP_REQUIRE(s.clock_offsets_[i] <= s.clock_offsets_[i + 1],
                "wcp-tracebin parse error: clock offsets not monotone at "
                    << i);
    const std::uint64_t p = i / N, j = i % N;
    if (p == j) {
      WCP_REQUIRE(s.clock_offsets_[i] == s.clock_offsets_[i + 1],
                  "wcp-tracebin parse error: diagonal clock component ("
                      << p << "," << j << ") must be implicit, not stored");
      continue;
    }
    std::uint64_t prev_k = 1, prev_v = 0;
    for (std::uint64_t e = s.clock_offsets_[i]; e < s.clock_offsets_[i + 1];
         ++e) {
      const std::uint64_t k = s.clock_entries_[e] >> 32;
      const std::uint64_t v = s.clock_entries_[e] & 0xffff'ffffull;
      WCP_REQUIRE(k > prev_k && k <= s.state_counts_[p],
                  "wcp-tracebin parse error: clock change list (" << p << ","
                      << j << ") has non-increasing or out-of-range state "
                      << k);
      WCP_REQUIRE(v > prev_v && v <= s.state_counts_[j],
                  "wcp-tracebin parse error: clock change list (" << p << ","
                      << j << ") has non-increasing or out-of-range value "
                      << v);
      prev_k = k;
      prev_v = v;
    }
  }

  s.set_clock_stats();
  if (opts.verify_replay) {
    // Semantic verification: replay the mapped event columns and derive the
    // clock deltas from scratch. The change lists are a canonical function
    // of the causal structure (independent of message numbering), so any
    // disagreement means the stored clock section lies about the events.
    // The reported peak is what a from-scratch build of this computation
    // reports (its columns owned, plus the replay scratch), so a verified
    // binary load and a text build expose identical storage counters.
    const ClockReplay r =
        replay_clocks(N, s.events_, s.event_offsets_, s.messages_);
    WCP_REQUIRE(!r.deadlocked,
                "wcp-tracebin parse error: event columns deadlock under "
                "causal replay (a receive precedes its send)");
    WCP_REQUIRE(std::ranges::equal(r.offsets, s.clock_offsets_) &&
                    std::ranges::equal(r.entries, s.clock_entries_),
                "wcp-tracebin parse error: clock section is inconsistent with "
                "the event structure");
    s.stats_.peak_bytes = s.column_bytes() + r.scratch_bytes;
  } else {
    s.stats_.peak_bytes = s.resident_bytes();
  }

  // Validation scanned everything once; from here on access is random
  // (binary searches into the clock index, per-process column walks).
  src->advise_random();
  return s;
}

Computation TraceStore::to_computation() const {
  const std::size_t N = num_processes();
  ComputationBuilder b(N);
  {
    std::vector<ProcessId> preds;
    preds.reserve(pred_procs_.size());
    for (std::uint32_t v : pred_procs_)
      preds.emplace_back(static_cast<int>(v));
    b.set_predicate_processes(std::move(preds));
  }
  for (std::size_t p = 0; p < N; ++p) {
    const ProcessId pid(static_cast<int>(p));
    b.mark_pred(pid, local_pred(pid, 1));
  }

  // Greedy causal replay of the event columns; builder message ids are
  // assigned in replay order, so map the file's ids as sends are emitted.
  std::vector<std::size_t> next(N, 0);
  std::vector<MessageId> new_id(num_messages(), -1);
  std::size_t remaining = events_.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t p = 0; p < N; ++p) {
      const ProcessId pid(static_cast<int>(p));
      const std::size_t count = num_events(pid);
      while (next[p] < count) {
        const std::uint32_t w = events_[event_offsets_[p] + next[p]];
        const auto id = static_cast<std::size_t>(w & ~kReceiveBit);
        if ((w & kReceiveBit) == 0) {
          new_id[id] = b.send(pid, message(static_cast<MessageId>(id)).to);
        } else {
          if (new_id[id] < 0) break;  // wait for the sender's replay
          b.receive(new_id[id]);
        }
        b.mark_pred(pid, local_pred(pid, static_cast<StateIndex>(next[p]) + 2));
        ++next[p];
        --remaining;
        progressed = true;
      }
    }
    WCP_REQUIRE(progressed || remaining == 0,
                "wcp-tracebin parse error: event columns deadlock under "
                "causal replay (a receive precedes its send)");
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// File-level helpers.

void save_tracebin(std::ostream& os, const Computation& c) {
  c.trace_store().save(os);
}

void save_tracebin_file(const std::string& path, const Computation& c) {
  std::ofstream f(path, std::ios::binary);
  WCP_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  save_tracebin(f, c);
  // A short write (ENOSPC, quota, dying disk) can sit in the stream buffer
  // and "succeed" silently; force it out and check before reporting success.
  f.flush();
  WCP_REQUIRE(f.good(),
              "write to '" << path << "' failed (disk full or I/O error)");
}

Computation load_tracebin(std::istream& is, const TraceLoadOptions& opts) {
  return Computation::from_store(std::make_shared<const TraceStore>(
      TraceStore::from_source(ByteSource::read_stream(is), opts)));
}

Computation load_tracebin_file(const std::string& path,
                               const TraceLoadOptions& opts) {
  return Computation::from_store(std::make_shared<const TraceStore>(
      TraceStore::from_source(ByteSource::map_file(path), opts)));
}

Computation load_any_trace_file(const std::string& path,
                                const TraceLoadOptions& opts) {
  // One open, one inspection: sniff the magic straight from the (usually
  // mapped) bytes; both paths parse them in place.
  const auto src = ByteSource::map_file(path);
  const auto bytes = src->bytes();
  const bool binary =
      bytes.size() >= kTracebinMagic.size() &&
      std::memcmp(bytes.data(), kTracebinMagic.data(),
                  kTracebinMagic.size()) == 0;
  if (binary) {
    return Computation::from_store(std::make_shared<const TraceStore>(
        TraceStore::from_source(src, opts)));
  }
  return read_trace(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace wcp
