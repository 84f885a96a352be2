// replay_warm: svc::replay_corpus with two workers, replaying a session
// corpus many times with a warm reference cache.  The corpus is recorded
// at set-up from a seeded fleet of larger objects than fleet_cold's.  No
// simulator runs, so wire decoding, RigSession, the detector channels
// and cache reads do nearly all the work: detector, codec and pipeline
// changes show here.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>

#include "analyze/analyzer.hpp"
#include "campaign.hpp"
#include "core/session_wire.hpp"
#include "svc/daemon.hpp"
#include "svc/ref_cache.hpp"
#include "svc/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace offramps;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRigsPerGroup = 12;
/// Bytes per RigSession::feed call: one socket read's worth.
constexpr std::size_t kFeedChunk = 4096;
constexpr int kGetRepeats = 5;
constexpr int kChannelRepeats = 3;

// One object, so one reference resolution per batch: the sessions that
// wait for it (slice, oracle, cache read) stay under a tenth of the
// batch, and rig_s_tail, a p90, measures replayed sessions.  With a
// second object, how many sessions wait would depend on where the
// seeded shuffle puts that object's first session.
const std::vector<RigGroup> kGroups = {
    {12.0, 3.0, "reduce:0.5"},
    {12.0, 3.0, "relocate:5"},
};

/// Golden references of one object, as the daemon's resolver holds them.
struct Resolved {
  analyze::Oracle oracle;
  svc::RefEntry entry;
};

class ReplayWarm final : public Workload {
 public:
  explicit ReplayWarm(WorkloadOptions o)
      : opt_(std::move(o)),
        corpus_dir_(opt_.work_dir + "/corpus"),
        cache_dir_(opt_.work_dir + "/cache") {}

  void setup() override {
    // Record the corpus and warm the cache from one live campaign.
    std::filesystem::remove_all(corpus_dir_);
    std::filesystem::remove_all(cache_dir_);
    std::filesystem::create_directories(corpus_dir_);
    const auto specs = make_campaign(opt_.seed, kGroups, kRigsPerGroup);
    svc::FleetOptions fo;
    fo.workers = kWorkers;
    fo.save_captures_dir = corpus_dir_;
    fo.cache_dir = cache_dir_;
    svc::FleetReport live = svc::Fleet(fo).run(specs);
    check_verdicts(live);
    if (!expected_.rigs.empty() && live.to_json() != expected_.to_json()) {
      throw Error("replay_warm: set-up runs disagree on the live report");
    }
    expected_ = std::move(live);
  }

  Batch iterate(std::uint64_t iteration) override {
    svc::ReplayOptions ro;
    ro.service.workers = kWorkers;
    ro.service.cache_dir = cache_dir_;
    const auto t0 = std::chrono::steady_clock::now();
    svc::FleetReport report;
    {
      const Span span("svc.replay.corpus", iteration);
      report = svc::replay_corpus(corpus_dir_, ro);
    }
    Batch b;
    b.wall_s = seconds_since(t0);
    b.attempted = expected_.rigs.size();
    b.failed = std::min<std::uint64_t>(count_mismatches(report, expected_),
                                       b.attempted);
    rig_times(report, "session/", b.rig_s, b.sim_s);
    if (b.rig_s.size() != expected_.rigs.size()) b.failed = b.attempted;
    busy_.push_back(busy_fraction(report, b.wall_s, kWorkers));
    return b;
  }

  [[nodiscard]] std::vector<std::string> notes(
      const Metrics& m) const override {
    char sizes[96], latency[96], sessions[96];
    std::snprintf(sizes, sizeof(sizes),
                  "%zu sessions of one %gx%g mm object per batch, %zu workers",
                  expected_.rigs.size(), kGroups[0].cube_mm,
                  kGroups[0].height_mm, kWorkers);
    std::snprintf(latency, sizeof(latency),
                  "alarm_latency_windows = %.6g windows (simulated)",
                  alarm_latency_windows(expected_));
    std::vector<std::string> lines = {sizes, latency};
    // A rig here is a replayed session.
    if (m.value("rigs_per_s") > 0.0) {
      std::snprintf(sessions, sizeof(sessions),
                    "sessions_per_s = %.6g 1/s (rigs_per_s)",
                    m.value("rigs_per_s"));
      lines.emplace_back(sessions);
    }
    return lines;
  }

  void clear_layer_samples() override { busy_.clear(); }

  void layers(Metrics& m) override {
    m.set("host.pool.busy_frac", median(busy_), "ratio");
    m.set("svc.detector.alarm_latency_windows",
          alarm_latency_windows(expected_), "windows");

    svc::RefCache cache({cache_dir_, 0});
    std::vector<double> slice_s, oracle_s, get_us;
    std::map<std::pair<double, double>, Resolved> refs;
    const auto resolve = [&](const core::wire::SessionHello& h,
                             std::uint64_t id) -> const Resolved& {
      auto it = refs.find({h.cube_mm, h.height_mm});
      if (it != refs.end()) return it->second;
      const host::SliceProfile profile;
      gcode::Program program;
      auto t0 = std::chrono::steady_clock::now();
      {
        const Span span("host.slicer.slice_cube", id);
        program = host::slice_cube({.size_x_mm = h.cube_mm,
                                    .size_y_mm = h.cube_mm,
                                    .height_mm = h.height_mm,
                                    .center_x_mm = 110.0,
                                    .center_y_mm = 100.0},
                                   profile);
      }
      slice_s.push_back(seconds_since(t0));
      Resolved r;
      t0 = std::chrono::steady_clock::now();
      {
        const Span span("analyze.analyze_program", id);
        r.oracle = analyze::analyze_program(program, fw::Config{}).oracle;
      }
      oracle_s.push_back(seconds_since(t0));
      const std::uint64_t key = svc::reference_digest(
          h.cube_mm, h.height_mm, profile, svc::FleetOptions{}.reference_seed,
          svc::ChannelSet{});
      for (int k = 0; k < kGetRepeats; ++k) {
        t0 = std::chrono::steady_clock::now();
        std::optional<svc::RefEntry> hit;
        {
          const Span span("svc.ref_cache.get", id);
          hit = cache.get(key);
        }
        get_us.push_back(1e6 * seconds_since(t0));
        if (!hit) throw Error("replay_warm: reference cache is not warm");
        r.entry = std::move(*hit);
      }
      return refs.emplace(std::make_pair(h.cube_mm, h.height_mm),
                          std::move(r))
          .first->second;
    };

    const std::vector<std::string> files =
        core::wire::list_session_corpus(corpus_dir_);
    double wire_bytes = 0, wire_s = 0, frames = 0, resyncs = 0;
    std::vector<double> feed_us, window_us;
    std::vector<core::wire::Frame> priced;  // one clean session, decoded
    const Resolved* priced_refs = nullptr;
    for (std::size_t i = 0; i < files.size(); ++i) {
      std::ifstream in(files[i], std::ios::binary);
      const std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());

      // core::wire: the frame decoder alone, then once more untimed to
      // keep the frames for the detector below.
      core::wire::FrameReader reader;
      std::size_t n_frames = 0;
      auto t0 = std::chrono::steady_clock::now();
      {
        Span span("core.wire.feed", i);
        span.set_units(bytes.size());
        reader.feed(bytes.data(), bytes.size(),
                    [&](const core::wire::Frame&) { ++n_frames; });
      }
      wire_s += seconds_since(t0);
      wire_bytes += static_cast<double>(bytes.size());
      frames += static_cast<double>(n_frames);
      resyncs += static_cast<double>(reader.resyncs());
      std::vector<core::wire::Frame> decoded;
      core::wire::FrameReader().feed(
          bytes.data(), bytes.size(),
          [&](const core::wire::Frame& f) { decoded.push_back(f); });
      if (decoded.empty() ||
          decoded.front().type != core::wire::FrameType::kHello) {
        throw Error("replay_warm: session without a hello: " + files[i]);
      }

      // svc::RigSession: the whole session pipeline, one read at a time.
      svc::SessionOptions so;
      so.windows_per_slot = svc::PumpOptions{}.windows_per_slot;
      svc::RigSession session(so, [&](const core::wire::SessionHello& h) {
        return session_refs(resolve(h, i));
      });
      for (std::size_t off = 0; off < bytes.size(); off += kFeedChunk) {
        const std::size_t n = std::min(kFeedChunk, bytes.size() - off);
        Span span("svc.session.feed", i);
        span.set_units(n);
        t0 = std::chrono::steady_clock::now();
        session.feed(bytes.data() + off, n);
        feed_us.push_back(1e6 * seconds_since(t0));
      }
      session.close();
      const svc::RigOutcome outcome = session.outcome();
      const svc::RigOutcome* want = expected_rig(outcome.spec.name);
      if (want == nullptr || outcome.status != want->status ||
          outcome.detector.to_string() != want->detector.to_string()) {
        throw Error("replay_warm: RigSession verdict differs from the live "
                    "campaign for " + outcome.spec.name);
      }

      // svc::OnlineDetector: the same calls RigSession makes, each poll
      // timed on its own.
      const Resolved& r = resolve(decoded.front().hello, i);
      const svc::OnlineReport report =
          drive(decoded, r, svc::ChannelSet{}, i, &window_us);
      if (report.to_string() != outcome.detector.to_string()) {
        throw Error("replay_warm: direct detector run differs from "
                    "RigSession for " + outcome.spec.name);
      }
      if (priced.empty() && !report.alarmed) {
        priced = std::move(decoded);
        priced_refs = &r;
      }
    }
    if (priced_refs == nullptr) throw Error("replay_warm: no clean session");

    m.set("core.wire.MBps", wire_bytes / wire_s / 1e6, "MB/s");
    m.set("core.wire.frames", frames, "count");
    m.set("core.wire.resyncs", resyncs, "count");
    m.set("svc.session.feed_us_p50", median(feed_us), "us");
    m.set("svc.session.feed_us_tail", p90(feed_us), "us");
    m.set("svc.detector.window_us_p50", median(window_us), "us");
    m.set("svc.detector.window_us_tail", p90(window_us), "us");
    m.set("svc.ref_cache.get_us", median(get_us), "us");
    m.set("host.slicer.slice_s", median(slice_s), "s");
    m.set("analyze.oracle_s", median(oracle_s), "s");

    // Channel prices: one fixed clean session through a detector that
    // has only that channel group enabled.
    const std::pair<const char*, svc::ChannelSet> groups[] = {
        {"steps", {true, false, false, false}},
        {"power", {false, true, false, false}},
        {"acoustic", {false, false, true, false}},
        {"vibration", {false, false, false, true}},
    };
    for (const auto& [name, set] : groups) {
      std::vector<double> us;
      for (int k = 0; k < kChannelRepeats; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        const svc::OnlineReport r = drive(priced, *priced_refs, set,
                                          files.size() + 1, nullptr);
        us.push_back(1e6 * seconds_since(t0) /
                     static_cast<double>(r.windows_processed));
      }
      m.set(std::string("svc.channel.") + name + ".us_per_window", median(us),
            "us");
    }
  }

  [[nodiscard]] std::size_t workers() const override { return kWorkers; }

 private:
  static svc::SessionRefs session_refs(const Resolved& r) {
    svc::SessionRefs refs;
    refs.golden = &r.entry.golden;
    if (r.oracle.counters_armed) refs.oracle = &r.oracle;
    refs.golden_power = &r.entry.golden_power;
    refs.golden_acoustic = &r.entry.golden_acoustic;
    refs.golden_vibration = &r.entry.golden_vibration;
    return refs;
  }

  /// Feeds decoded frames to a fresh OnlineDetector in stream order,
  /// exactly as RigSession does.  Appends microseconds per window of
  /// each poll that processed any to `window_us` when it is given.
  static svc::OnlineReport drive(const std::vector<core::wire::Frame>& frames,
                                 const Resolved& r, const svc::ChannelSet& set,
                                 std::uint64_t id,
                                 std::vector<double>* window_us) {
    using core::wire::FrameType;
    const Span session_span("svc.detector.drive", id);
    svc::OnlineDetectorOptions opts;
    opts.channels = set;
    svc::OnlineDetector det(opts);
    const svc::SessionRefs refs = session_refs(r);
    det.set_golden(refs.golden);
    if (refs.oracle != nullptr) det.set_oracle(refs.oracle);
    if (!refs.golden_power->empty()) det.set_golden_power(refs.golden_power);
    if (!refs.golden_acoustic->empty()) {
      det.set_golden_acoustic(refs.golden_acoustic);
    }
    if (!refs.golden_vibration->empty()) {
      det.set_golden_vibration(refs.golden_vibration);
    }
    const std::size_t per_slot = svc::PumpOptions{}.windows_per_slot;
    for (const core::wire::Frame& f : frames) {
      switch (f.type) {
        case FrameType::kTxn: det.submit(f.txn); break;
        case FrameType::kPower:
          det.submit_power(f.power_t_s, f.power_watts);
          break;
        case FrameType::kSample:
          det.submit_sample(static_cast<svc::SampleKind>(f.sample_kind),
                            f.sample_t_s, f.sample_value);
          break;
        case FrameType::kSlot: {
          Span span("svc.detector.poll", id);
          const auto t0 = std::chrono::steady_clock::now();
          const std::size_t n = det.poll(per_slot);
          span.set_units(n);
          if (window_us != nullptr && n > 0) {
            window_us->push_back(1e6 * seconds_since(t0) /
                                 static_cast<double>(n));
          }
          break;
        }
        case FrameType::kFinish: {
          const Span span("svc.detector.finish", id);
          det.finish(core::Capture::from_binary(f.finish.data(),
                                                f.finish.size()));
          break;
        }
        case FrameType::kHello:
        case FrameType::kEnd: break;
      }
    }
    return det.report();
  }

  const svc::RigOutcome* expected_rig(const std::string& name) const {
    for (const svc::RigOutcome& r : expected_.rigs) {
      if (r.spec.name == name) return &r;
    }
    return nullptr;
  }

  WorkloadOptions opt_;
  std::string corpus_dir_;
  std::string cache_dir_;
  svc::FleetReport expected_;
  std::vector<double> busy_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_warm(const WorkloadOptions& o) {
  return std::make_unique<ReplayWarm>(o);
}

}  // namespace perfbench
