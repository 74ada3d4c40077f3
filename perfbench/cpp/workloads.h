// The three closed-loop workloads. Constructing one is the timed set-up:
// it generates the seeded inputs and computes every oracle the ops are
// checked against. Destroying it releases what set-up acquired (corpus
// files, the in-process server).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "record.h"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  /// Directory the offline corpus is written to (created and removed by
  /// the workload).
  std::string scratch_dir;
  /// Lanes of the multi-lane lattice comparison (hardware threads).
  std::size_t lanes = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs ops one after another (serve: keeps its streams in flight) for
  /// `seconds`, recording each into the recorder's open phase; opens spans
  /// around every library call while the phase is traced.
  virtual void run(Recorder& rec, double seconds) = 0;

  /// The per-layer pass the closed loop cannot measure, run for about
  /// `seconds` in phases of its own: offline builds slices apart from the
  /// sweep; lattice times the same ops at 1 lane and at `lanes` lanes;
  /// serve replays its streams in-process, layer by layer.
  virtual void run_breakdown(Recorder& rec, double seconds) {
    (void)rec;
    (void)seconds;
  }
};

std::unique_ptr<Workload> make_offline(const Config& cfg);
std::unique_ptr<Workload> make_lattice(const Config& cfg);
std::unique_ptr<Workload> make_serve(const Config& cfg);

/// Mixes a run seed with a stream index into an independent input seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
