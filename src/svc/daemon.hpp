// Long-lived fleet service: rig sessions over Unix-domain sockets or a
// framed stdin pipe, plus offline corpus replay.
//
// The batch fleet (svc::Fleet) simulates its rigs itself; the daemon
// inverts that: rigs are *clients* that join and leave mid-campaign,
// streaming core::wire sessions at the service.  Each accepted session
// is sharded onto the existing host::ParallelRunner workers (post()
// service lane) and consumed through a RigSession, which preserves the
// SPSC lossless-backpressure contract end to end: the daemon reads a
// connection only as fast as the detector drains, so a slow detector
// fills the kernel socket buffer and stalls the producer - it never
// drops.  SIGTERM (or SIGINT, or stdin EOF) drains in-flight rigs and
// yields the usual deterministic FleetReport, rigs ordered by their
// hello's campaign index so the report is byte-identical to the live
// campaign the streams were recorded from.
//
// Golden references resolve through the same svc::ReferenceResolver the
// batch fleet uses (svc/reference.hpp): one resolution per content digest
// per process - checkpoint-free here, so the on-disk svc::RefCache when a
// cache directory is configured, else one supervised reference print
// with the fleet's retry and counts-only degrade - so a farm daemon
// simulates each reference at most once, ever.  A lost reference
// quarantines every session of that object ("session: reference: ...").
//
// replay_corpus() is the offline flavor: re-run detector verdicts from
// `--captures`-saved session files without simulating anything,
// optionally mangled by session-layer chaos drills (disconnect,
// framecorrupt) to prove the quarantine/recovery ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "host/chaos.hpp"
#include "svc/fleet.hpp"
#include "svc/session.hpp"

namespace offramps::svc {

struct ReplayOptions {
  ServiceOptions service{};
  /// Session-layer chaos drills keyed by corpus file index (sorted
  /// order), applied to the loaded stream bytes before parsing.
  std::vector<std::pair<std::size_t, host::ChaosSpec>> chaos;
};

/// Re-runs detector verdicts over every `*.ofs` session file in
/// `corpus_dir` (sorted, sharded over the worker pool), resolving golden
/// references through the cache instead of the simulator.  Throws
/// offramps::Error when the corpus is missing or empty.
FleetReport replay_corpus(const std::string& corpus_dir,
                          const ReplayOptions& options);

struct DaemonOptions {
  ServiceOptions service{};
  /// Unix-domain socket to listen on; empty or "-" serves concatenated
  /// session streams from stdin instead.
  std::string socket_path;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);

  /// Serves until SIGTERM/SIGINT (socket mode) or EOF (stdin mode),
  /// then drains in-flight sessions and returns the campaign report.
  FleetReport serve();

  /// Join client: streams one recorded `.ofs` session file into a
  /// serving daemon and waits for its one-byte verdict ack.  Returns 0
  /// when the session was accepted (clean or alarmed), 1 when the
  /// daemon reported it lost or the socket failed.
  static int stream_file(const std::string& socket_path,
                         const std::string& file);

 private:
  FleetReport serve_socket();
  FleetReport serve_stdin();

  DaemonOptions options_;
};

}  // namespace offramps::svc
