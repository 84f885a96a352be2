// The benchmark's workloads.  Each is a closed loop: one iteration is a
// batch of rigs (prints or replayed sessions), and the next batch starts
// only when the previous one has finished.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Private scratch directory (cache, corpus); created by the caller.
  std::string work_dir;
};

/// What one iteration did, in the terms every workload shares: a rig is
/// a print on fleet_cold and a replayed session on replay_warm.
struct Batch {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  /// Host seconds of each rig, and the simulated print seconds it
  /// covered, index-aligned.
  std::vector<double> rig_s;
  std::vector<double> sim_s;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed and the outputs every iteration
  /// must reproduce.  Called several times; each call starts over and
  /// must derive the same expected outputs.  Throws on a failed check.
  virtual void setup() = 0;

  /// Runs one batch and checks its outputs.
  virtual Batch iterate(std::uint64_t iteration) = 0;

  /// Lines for the console table beyond the shared metrics, given the
  /// metrics of the run.
  [[nodiscard]] virtual std::vector<std::string> notes(
      const Metrics& m) const = 0;

  /// Drops the per-layer samples of earlier iterations.
  virtual void clear_layer_samples() = 0;

  /// Per-layer metrics: from the samples of the iterations since
  /// clear_layer_samples(), plus a fixed-work pass that calls each layer
  /// directly under spans.  Sets only the metrics this workload moves.
  virtual void layers(Metrics& m) = 0;

  /// Pool size (1 when the workload has no pool).
  [[nodiscard]] virtual std::size_t workers() const = 0;
};

std::unique_ptr<Workload> make_fleet_cold(const WorkloadOptions& o);
std::unique_ptr<Workload> make_replay_warm(const WorkloadOptions& o);

}  // namespace perfbench
