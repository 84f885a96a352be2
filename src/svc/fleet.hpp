// Fleet service: multi-rig orchestration with online streaming detection.
//
// One OFFRAMPS board defends one printer; a print farm needs a fleet of
// them reporting to a single host.  This orchestrator runs N independent
// rigs - each with its own seed, object, and (optionally) implanted
// Flaw3D Trojan - over the host::ParallelRunner pool, with one
// svc::OnlineDetector per rig consuming that rig's capture stream live
// through its ring buffer via a clock-slaved svc::Pump.
//
// Run shape: every rig is one job on the pool.  A job first obtains its
// object's reference from the campaign's svc::ReferenceResolver (slice
// the clean program, compute its static oracle, and take the golden
// capture and side-channel traces from the checkpoint, the reference
// cache, or one supervised reference print at a fixed seed).  The first
// rig of an object resolves it while later rigs of that object wait for
// it, so no barrier holds the fleet back and each reference is printed
// at most once.  The rig then prints under its detector.  A mid-print
// alarm safe-stops that rig's firmware (the paper's real-time halt, here
// driven by the fused multi-channel verdict); the other rigs are
// unaffected.
//
// Determinism: each rig is a self-contained single-threaded simulation,
// outcomes are stored by rig index, and the report renders no wall-clock
// or worker-count data - so the fleet report is BYTE-IDENTICAL at any
// `--jobs` value.  Detector memory is bounded per rig by the ring
// capacity; the backpressure policy (producer stall, lossless) is
// documented in online_detector.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "host/chaos.hpp"
#include "svc/reference.hpp"

namespace offramps::svc {

/// Upper bound of a fleet's worker threads, whether from offramps_fleetd
/// --jobs or a spec's "workers".
inline constexpr std::size_t kMaxWorkers = 1024;
/// Upper bound of the other integer knobs a spec or flag may set
/// (attempts, backoff ms, checkpoint interval, cache MiB, ring capacity).
inline constexpr std::uint64_t kMaxSpecCount = 1'000'000;

/// Sabotage implanted in one rig's g-code path (the Flaw3D families of
/// paper Table II).  Parsed from "reduce:<factor>" / "relocate:<n>".
struct Sabotage {
  enum class Kind : std::uint8_t { kNone, kReduction, kRelocation };
  Kind kind = Kind::kNone;
  double factor = 0.5;         // reduction: E multiplier
  std::uint32_t every_n = 20;  // relocation: moves between blob dumps

  [[nodiscard]] std::string to_string() const;  // "clean", "reduce:0.50", ...
};

/// Parses "" / "clean" / "none" / "reduce:0.85" / "relocate:10".
/// Throws offramps::Error on anything else.
Sabotage parse_sabotage(const std::string& text);

/// One rig's slot in the fleet.
struct RigSpec {
  std::string name;         // defaults to "rig-<index>" when empty
  std::uint64_t seed = 1;   // firmware jitter seed (per-print drift)
  double cube_mm = 8.0;     // printed object: cube footprint
  double height_mm = 3.0;   // ...and height
  Sabotage sabotage{};
  /// Service-layer fault injected into this rig's supervised attempts
  /// (host::parse_chaos grammar; none by default).
  host::ChaosSpec chaos{};
};

/// Fleet-wide configuration: the options every campaign shares
/// (ServiceOptions: workers, detector, pump, channels, references,
/// cache, supervisor) plus the batch fleet's own.
struct FleetOptions : ServiceOptions {
  /// Kill a rig's firmware the moment its detector alarms mid-print.
  bool safe_stop = true;
  /// When set, persist each object's golden capture and each rig's
  /// observed capture as .bin files (core::Capture::save_binary) there,
  /// plus each rig's detector-feed session stream as a .ofs file
  /// (core::wire) replayable by svc::replay_corpus.
  std::string save_captures_dir;
  /// When set, write a campaign checkpoint (completed rig verdicts plus
  /// per-object golden references) there as each reference resolves and
  /// after every `checkpoint_every` completed rigs, via write-to-temp +
  /// atomic rename.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  /// When set, load this checkpoint first and skip (not re-simulate) the
  /// rigs it already covers.
  std::string resume_path;
  /// When > 0, stop the campaign after this many rigs have completed
  /// this process (checkpoint-kill drill for tests; remaining rigs are
  /// reported kPending and FleetReport::complete is false).
  std::size_t stop_after = 0;
};

/// One rig's outcome: spec, print result summary, detector verdict.
struct RigOutcome {
  RigSpec spec;
  OnlineReport detector;
  bool print_finished = false;
  bool safe_stopped = false;   // killed by the fleet's alarm hook
  std::string kill_reason;
  double sim_seconds = 0.0;
  std::array<std::int64_t, 4> final_counts{};
  /// Supervision verdict: ok / recovered / degraded / lost / pending.
  RigStatus status = RigStatus::kOk;
  std::uint32_t attempts = 1;
  /// Last failure the supervisor saw ("" when the first attempt
  /// succeeded; for kLost, why the rig was quarantined).
  std::string failure_cause;
};

/// One orchestration phase's wall-clock cost ("reference/0" per resolved
/// object, "rig/<name>" per rig, counted from the moment its reference is
/// in hand).
struct PhaseTiming {
  std::string name;
  double seconds = 0.0;
};

/// Whole-fleet result.
struct FleetReport {
  std::vector<RigOutcome> rigs;
  /// Wall-clock phase timings in deterministic order (references by
  /// object index, then rigs by spec index).  Collected on every run but
  /// NEVER rendered by to_json() - only the CLI's --metrics flag
  /// surfaces them, in a separate "metrics" section, so the results stay
  /// byte-identical whether or not instrumentation is on.
  std::vector<PhaseTiming> timings;
  /// False when the campaign stopped early (stop_after): some rigs are
  /// kPending and the report is a partial, resumable snapshot.
  bool complete = true;

  [[nodiscard]] std::size_t alarmed() const;
  [[nodiscard]] std::size_t mid_print_alarms() const;
  /// Supervision census over `rigs`.
  [[nodiscard]] std::size_t count(RigStatus s) const;
  /// Worst-of campaign classification: "partial" when incomplete, else
  /// "lost" / "degraded" / "recovered" / "clean" by the worst rig status.
  [[nodiscard]] std::string campaign() const;

  /// Deterministic machine-readable report (analyzer JSON conventions).
  /// Contains no wall-clock or worker-count data: byte-identical for a
  /// given fleet spec at any worker count.
  [[nodiscard]] std::string to_json() const;
  /// Same document with one extra top-level "metrics" member holding the
  /// pre-rendered JSON value `metrics_json` (see metrics_json()).  With
  /// an empty argument this is to_json() byte for byte.
  [[nodiscard]] std::string to_json_with_metrics(
      const std::string& metrics_json) const;
  /// The "metrics" section value: {"phases": {...}, "registry": {...}} -
  /// the phase timings above plus a snapshot of the process-wide obs::
  /// registry (scheduler/runner/detector counters).  Keys are emitted in
  /// deterministic order; values are wall-clock measurements.
  [[nodiscard]] std::string metrics_json() const;
  /// One line per rig, for the console.
  [[nodiscard]] std::string to_string() const;
};

/// The orchestrator.
class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});

  /// Runs the whole fleet; outcomes are indexed like `specs`.
  FleetReport run(const std::vector<RigSpec>& specs);

  /// Built-in demo fleet: `n` rigs, the first `sabotaged` of which get
  /// Flaw3D variants (cycling reduce:0.5, relocate:5, reduce:0.85,
  /// relocate:10 - the strongly windowed-detectable half of Table II),
  /// interleaved evenly among clean rigs.
  static std::vector<RigSpec> demo_specs(std::size_t n,
                                         std::size_t sabotaged);

  /// Parses a fleet spec document:
  ///   { "workers": 4, "safe_stop": true, "rigs": [
  ///       {"name": "a", "seed": 7, "cube_mm": 8, "height_mm": 3,
  ///        "sabotage": "reduce:0.85"}, ... ] }
  /// Unknown keys are ignored; rig defaults are RigSpec's.  Throws
  /// offramps::Error on malformed JSON, a malformed sabotage string, or
  /// an integer field that is negative, fractional or out of range
  /// ("workers" up to kMaxWorkers, seeds up to 2^64 - 1, the other counts
  /// up to kMaxSpecCount).
  static std::vector<RigSpec> specs_from_json(const std::string& text,
                                              FleetOptions& options);

 private:
  FleetOptions options_;
};

}  // namespace offramps::svc
