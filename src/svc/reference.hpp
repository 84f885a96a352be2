// Golden references: the one way any campaign gets one.
//
// The paper (section V-C) judges every print against a captured
// known-good print of the same part.  A reference is a pure function of
// (object geometry, slicer profile, reference seed, enabled channels),
// so every campaign - the batch fleet, the daemon and offline replay -
// obtains it through one ReferenceResolver:
//
//   1. slice the clean program and compute its static oracle;
//   2. take the golden capture and side-channel traces from a checkpoint
//      seed, else from the svc::RefCache, else from one supervised
//      golden print (retry on throw, sim-clocked StallWatchdog, a
//      counts-only degraded final attempt; only ok/recovered prints are
//      cached, because a degraded print carries no side-channel traces).
//
// Resolution is on demand and happens once per content digest per
// resolver: the first caller computes while later callers of the same
// digest block until it is done, then share the result (or re-raise the
// owner's failure).  A print that exhausts its attempts is not an
// exception: the Reference comes back with status kLost and an empty
// golden, and each campaign reports that in its own terms.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "analyze/oracle.hpp"
#include "gcode/command.hpp"
#include "host/slicer.hpp"
#include "svc/channel.hpp"
#include "svc/online_detector.hpp"
#include "svc/pump.hpp"
#include "svc/ref_cache.hpp"
#include "svc/supervisor.hpp"

namespace offramps::host {
struct RigOptions;
}  // namespace offramps::host

namespace offramps::svc {

/// Options every campaign shares - the batch fleet, the daemon and
/// replay: how sessions are judged and how references are obtained.
/// Detector/pump tuning must match the campaign a stream came from for
/// byte-identical replay reports.
struct ServiceOptions {
  /// Worker threads; 0 = host::ParallelRunner::default_workers().
  std::size_t workers = 0;
  /// Per-rig detector tuning (channels, margins, ring capacity).
  OnlineDetectorOptions detector{};
  /// Per-rig consumer pump (service period, windows per slot).
  PumpOptions pump{};
  /// Arm the static-oracle channel (end-of-print tight-margin check and
  /// g-code line attribution for alarms).
  bool use_oracle = true;
  /// Which side channels to probe and arm (steps, power, acoustic,
  /// vibration - all on by default).  Probes are only attached for
  /// enabled channels, and the same set keys the reference cache so a
  /// golden without a channel's trace is never served to a campaign that
  /// wants that channel.  Mirrored into detector.channels per rig.
  ChannelSet channels{};
  /// Fixed jitter seed of the reference prints.
  std::uint64_t reference_seed = 42;
  /// Slicer profile shared by every object.
  host::SliceProfile profile{};
  /// When set, golden references are served from / persisted to this
  /// svc::RefCache directory (content-addressed by object + slicer
  /// profile + reference seed + channels), so repeated campaigns skip
  /// the reference simulations entirely.  Orchestration plumbing: it
  /// cannot change report bytes.
  std::string cache_dir;
  /// RefCache LRU size bound in bytes (0 = unbounded).
  std::uint64_t cache_max_bytes = 0;
  /// Retry/watchdog/quarantine policy of rig and reference prints.
  SupervisorOptions supervisor{};
};

/// Attaches one side-channel probe per enabled channel to `ro`, every
/// probe's noise seed derived from `seed` via plant::probe_noise_seed,
/// so no two rigs (or channels) share a sensor-noise sequence.
void attach_probes(host::RigOptions& ro, const ChannelSet& channels,
                   std::uint64_t seed);

/// One object's reference: the golden capture and traces (the RefEntry
/// a cache entry or checkpoint persists) plus the clean program and
/// oracle they were printed from.
struct Reference : RefEntry {
  gcode::Program program;
  analyze::Oracle oracle;
  /// How the golden was obtained: kOk for a checkpoint or cache hit,
  /// else the supervised print's verdict.  kLost leaves the RefEntry
  /// empty and names the cause.
  GuardOutcome guard{RigStatus::kOk, 0, {}};
  /// Wall-clock seconds the resolution took (slice, oracle, cache read,
  /// golden print, cache write).
  double seconds = 0.0;
};

/// The references a detector arms with for `ref` under a campaign's
/// switches: the oracle only when `use_oracle` and armed, each
/// side-channel trace only when its channel is enabled.
[[nodiscard]] ChannelRefs channel_refs(const Reference& ref, bool use_oracle,
                                       const ChannelSet& channels);

class ReferenceResolver {
 public:
  /// Opens the reference cache when `options.cache_dir` is set.
  explicit ReferenceResolver(const ServiceOptions& options);

  ReferenceResolver(const ReferenceResolver&) = delete;
  ReferenceResolver& operator=(const ReferenceResolver&) = delete;

  /// Checkpoint resume: the next resolve() of this object serves
  /// `golden` (recomputing only the slice and oracle).  Call before any
  /// resolve() of the same object.
  void seed(double cube_mm, double height_mm, RefEntry golden);

  /// The reference of one object.  `name` labels its golden print
  /// ("reference/<name>": trace span and watchdog phase).  Blocks while
  /// another thread resolves the same digest.  Throws offramps::Error
  /// when the object cannot be sliced or analyzed (re-raised to every
  /// caller of that digest); a lost golden print is reported through
  /// Reference::guard instead.  The reference lives as long as the
  /// resolver.
  const Reference& resolve(double cube_mm, double height_mm,
                           const std::string& name);

  /// resolve() for a daemon or replay session, keyed and labeled by the
  /// geometry alone: the references its detector arms with.  Throws
  /// offramps::Error("reference: <cause>") when the reference is lost
  /// or cannot be built, which quarantines the session.
  [[nodiscard]] ChannelRefs session_refs(double cube_mm, double height_mm);

 private:
  struct Slot {
    bool claimed = false;  // a caller is computing it
    bool done = false;
    bool failed = false;  // resolution threw `error`
    std::string error;
    std::optional<RefEntry> seeded;
    Reference ref;
  };

  void compute(Slot& slot, double cube_mm, double height_mm,
               std::uint64_t key, const std::string& name) const;
  /// The supervised golden print (cache put on ok/recovered).
  void print_golden(Reference& ref, std::uint64_t key,
                    const std::string& phase) const;
  [[nodiscard]] std::uint64_t key_of(double cube_mm, double height_mm) const;

  ServiceOptions options_;
  std::unique_ptr<RefCache> cache_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::unique_ptr<Slot>> slots_;
};

}  // namespace offramps::svc
