// Columnar trace storage: the at-rest counterpart of common/cut_storage.h.
//
// A Computation's ground-truth causality used to be an eager clock matrix —
// one heap-backed N-wide VectorClock per local state, O(N * total_states)
// bytes — which caps lattice/slice runs long before the exploration itself
// does. TraceStore replaces that matrix with flat, fixed-width columns:
//
//   - per-process event columns: one packed 32-bit word per event (high bit
//     = receive, low 31 bits = message id), concatenated back to back;
//   - per-process predicate columns: one bit per local state;
//   - a packed message table: four 32-bit words per message;
//   - delta-encoded vector clocks: the Singhal-Kshemkalyani differential
//     idea applied at rest. The own component of state (p, k) is k by
//     construction (Fig. 2 ticks once per event), so it is never stored.
//     Every other component (p, j) is a non-decreasing step function of k
//     that only moves on receives, so the store keeps just its change
//     points — a sorted (k, value) list per (process, component) pair,
//     addressed through a flat interval index of N*N+1 offsets. Reading a
//     component is one binary search; reconstructing a full clock is N of
//     them, on demand, instead of N words held resident per state.
//
// The same columns define the versioned on-disk format "wcp-tracebin 1":
// every section is fixed-width little-endian, the header carries the column
// offsets, and all sections are 8-byte aligned. The loader exploits exactly
// that: columns are std::span views that either point into owned vectors
// (stores built in memory) or straight into a live ByteSource — an mmap of
// the file on disk — so opening a tracebin is O(header) copies and the
// columns are served from the page cache (docs/ALGORITHMS.md §13).
//
// Validation is layered. Structural validation (magic, version, section
// offsets within the file, alignment, id ranges, event/message cross-links,
// clock-offset and change-list monotonicity) ALWAYS runs: after it, no
// accessor can read outside the mapping, so a truncated or hostile file
// fails with "wcp-tracebin parse error:" instead of faulting. The O(file)
// *semantic* check — replaying the events and rebuilding the clock deltas
// to confirm the stored clocks describe this computation — is opt-out via
// TraceLoadOptions::verify_replay for files we wrote ourselves.
//
// Everything is measured: TraceStoreStats reports the store's resident
// high-water mark (build scratch included), the number of clocks it
// represents, and the delta-compression ratio against the full-matrix
// representation it replaced — the counters behind bench E18.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clock/vector_clock.h"
#include "common/byte_source.h"
#include "common/error.h"
#include "common/types.h"
#include "trace/computation.h"
#include "trace/trace_store_stats.h"

namespace wcp {

/// Most processes a store holds. Its clock interval index has N*N + 1
/// offsets, so 4,096 processes already take 128 MiB of index; the text
/// reader and the tracebin loader reject larger counts as parse errors.
inline constexpr std::size_t kMaxProcesses = 4096;

/// Knobs for the wcp-tracebin loaders. Structural validation is not a knob:
/// it always runs, because it is what makes the mapped accessors memory-safe.
struct TraceLoadOptions {
  /// Replay the event columns and rebuild the clock deltas to verify the
  /// stored clocks semantically (O(file) time and heap). Turn off for files
  /// this process (or a trusted pipeline) wrote: the `--trusted` fast path,
  /// which keeps open time O(header + scan) and resident bytes O(N).
  bool verify_replay = true;
};

/// Flat, immutable, columnar form of one computation: the representation
/// every Computation is a view of.
///
/// Move-only: the column spans may point into the owned vectors, and a
/// member-wise copy would leave the copy's spans aliasing the original.
class TraceStore {
 public:
  TraceStore() = default;
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;
  TraceStore(TraceStore&&) = default;
  TraceStore& operator=(TraceStore&&) = default;

  // ---- shape ---------------------------------------------------------------

  [[nodiscard]] std::size_t num_processes() const {
    return state_counts_.size();
  }
  [[nodiscard]] StateIndex num_states(ProcessId p) const {
    return static_cast<StateIndex>(span_at(state_counts_, p.idx()));
  }
  [[nodiscard]] std::size_t num_events(ProcessId p) const {
    return span_at(state_counts_, p.idx()) - 1;
  }
  [[nodiscard]] std::size_t num_messages() const {
    return messages_.size() / 4;
  }
  [[nodiscard]] std::span<const std::uint32_t> predicate_processes() const {
    return pred_procs_;
  }
  [[nodiscard]] std::int64_t total_states() const;

  // ---- columns -------------------------------------------------------------

  /// Packed event column of process p (kPackedEventReceiveBit | message id
  /// per word) — the zero-copy view Computation serves events from.
  [[nodiscard]] std::span<const std::uint32_t> packed_events(
      ProcessId p) const;
  /// Truth of p's local predicate in state k (1-based).
  [[nodiscard]] bool local_pred(ProcessId p, StateIndex k) const;
  [[nodiscard]] MessageRecord message(MessageId id) const;
  /// Packed message table, {from, send_state, to, recv_state} per record.
  [[nodiscard]] std::span<const std::uint32_t> packed_messages() const {
    return messages_;
  }

  // ---- ground-truth clocks -------------------------------------------------

  /// Component j of the clock of state (p, k): O(1) for the own component,
  /// one interval-index binary search otherwise.
  [[nodiscard]] StateIndex clock_component(ProcessId p, StateIndex k,
                                           ProcessId j) const;
  /// Full N-wide clock of state (p, k), reconstructed on demand.
  [[nodiscard]] VectorClock clock(ProcessId p, StateIndex k) const;

  [[nodiscard]] const TraceStoreStats& stats() const { return stats_; }

  /// True when the columns alias a live file mapping rather than heap
  /// vectors.
  [[nodiscard]] bool mapped() const {
    return backing_ != nullptr && backing_->mapped();
  }

  /// Drop the resident pages of a mapped store back to the page cache
  /// (no-op for heap-backed stores). Columns stay valid and refault on
  /// demand.
  void release_resident() const {
    if (backing_ != nullptr) backing_->drop_resident();
  }

  // ---- binary format (wcp-tracebin 1) --------------------------------------

  /// Serializes every column in the fixed-width little-endian layout
  /// documented in docs/ALGORITHMS.md §13.
  void save(std::ostream& os) const;

  /// Parses and validates a wcp-tracebin stream (buffered: the stream is
  /// read into an owned aligned buffer first); throws std::invalid_argument
  /// with the offending section/field on any malformed input.
  static TraceStore load(std::istream& is, const TraceLoadOptions& opts = {});

  /// Zero-copy load: parses and validates the bytes of `src` in place and
  /// keeps `src` alive as the backing of the column views. This is the mmap
  /// fast path — on a little-endian host no column is copied.
  static TraceStore from_source(std::shared_ptr<const ByteSource> src,
                                const TraceLoadOptions& opts = {});

  /// Rebuilds the computation by causal replay of the columns through a
  /// ComputationBuilder, which renumbers messages in replay order (the
  /// numbering the text format writes).
  [[nodiscard]] Computation to_computation() const;

 private:
  friend class ComputationBuilder;

  /// Adopts a builder's staged columns (per-process event words and
  /// predicate words are concatenated, the rest is moved in) and derives
  /// the clock deltas by the two-pass causal replay the tracebin verifier
  /// shares: one N-word clock row per process, one snapshot per message in
  /// flight, change points counted first and then written in place.
  static TraceStore assemble(
      std::vector<std::uint64_t> state_counts,
      std::vector<std::uint32_t> pred_procs,
      const std::vector<std::vector<std::uint32_t>>& events,
      const std::vector<std::vector<std::uint64_t>>& pred_bits,
      std::vector<std::uint32_t> messages);

  template <class T>
  static const T& span_at(std::span<const T> s, std::size_t i) {
    WCP_CHECK_MSG(i < s.size(), "trace store index " << i << " out of range "
                                                     << s.size());
    return s[i];
  }

  /// Points every column span at its owned vector (in-memory builds and the
  /// big-endian decode fallback).
  void bind_owned();

  /// Heap bytes the store owns (columns aliasing `backing_` excluded).
  [[nodiscard]] std::int64_t resident_bytes() const;
  /// Bytes the store would own with every column on the heap: the resident
  /// size of a from-scratch build.
  [[nodiscard]] std::int64_t column_bytes() const;
  /// Fills clocks_interned, delta_entries and delta_ratio from the columns.
  void set_clock_stats();

  // Column views: each aliases either its *_own_ vector below or `backing_`.
  // All indices into them are derived from state_counts_, so the layout has
  // no per-process pointer structures.
  std::span<const std::uint64_t> state_counts_;   // per process
  std::span<const std::uint32_t> pred_procs_;     // predicate slots, in order
  std::span<const std::uint32_t> events_;         // kReceiveBit | message id
  std::span<const std::uint64_t> pred_bits_;      // per process, 64 states/word
  std::span<const std::uint32_t> messages_;       // {from, send_state, to, recv_state}

  // Interval index: change points of component j on process p live at
  // clock_entries_[clock_offsets_[p*N+j] .. clock_offsets_[p*N+j+1]), each
  // packed (k << 32) | value with k strictly increasing.
  std::span<const std::uint64_t> clock_offsets_;  // N*N + 1
  std::span<const std::uint64_t> clock_entries_;

  // Derived indexes, always owned (O(N) small).
  std::vector<std::uint64_t> event_offsets_;      // N+1, into events_
  std::vector<std::uint64_t> pred_word_offsets_;  // N+1, into pred_bits_

  // Owned storage backing the views for in-memory builds (and for loads
  // that must decode element-wise); empty when the views alias `backing_`.
  std::vector<std::uint64_t> state_counts_own_;
  std::vector<std::uint32_t> pred_procs_own_;
  std::vector<std::uint32_t> events_own_;
  std::vector<std::uint64_t> pred_bits_own_;
  std::vector<std::uint32_t> messages_own_;
  std::vector<std::uint64_t> clock_offsets_own_;
  std::vector<std::uint64_t> clock_entries_own_;

  // Keeps the mapping (or owned file buffer) alive while views alias it.
  std::shared_ptr<const ByteSource> backing_;

  TraceStoreStats stats_;
};

// ---- file-level helpers ----------------------------------------------------

inline constexpr std::string_view kTracebinMagic = "wcptrbin";

/// Writes `c`'s TraceStore in the wcp-tracebin 1 binary format.
void save_tracebin(std::ostream& os, const Computation& c);
void save_tracebin_file(const std::string& path, const Computation& c);

/// Reads a wcp-tracebin stream back into a Computation served by the
/// loaded store.
Computation load_tracebin(std::istream& is, const TraceLoadOptions& opts = {});
Computation load_tracebin_file(const std::string& path,
                               const TraceLoadOptions& opts = {});

/// Loads either trace format: the file is opened (mmap-ed when possible)
/// exactly once, the magic bytes are sniffed in place, and "wcptrbin" goes
/// straight to the mapped binary path while anything else is parsed as text
/// from the same bytes.
Computation load_any_trace_file(const std::string& path,
                                const TraceLoadOptions& opts = {});

}  // namespace wcp
