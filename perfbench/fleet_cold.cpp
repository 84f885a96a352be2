// fleet_cold: the campaign a print-farm user runs.  svc::Fleet::run with
// two workers on a seeded spec of six objects, a quarter of the rigs
// sabotaged (reduce and relocate families), all four channels, safe-stop
// on, and an empty reference cache at the start of every iteration.  On
// top of the simulator this exercises the reference phase (slicer,
// oracle, golden print, cache writes), probes, detector, pump,
// supervisor and pool; sabotaged rigs stop early, so rig times spread.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "analyze/analyzer.hpp"
#include "campaign.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "svc/ref_cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace offramps;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRigsPerObject = 4;
constexpr int kPutRepeats = 3;
const std::uint64_t kReferenceSeed = svc::FleetOptions{}.reference_seed;

// Six objects, 24 rigs: a batch's wall time ends with the slower
// worker's last rig, and a longer batch makes that ragged end, which the
// seed's rig order fixes, a smaller share of rigs_per_s.
const std::vector<RigGroup> kObjects = {
    {8.0, 2.0, "reduce:0.5"},   {10.0, 2.0, "relocate:5"},
    {6.0, 3.0, "reduce:0.85"},  {8.0, 3.0, "relocate:5"},
    {10.0, 3.0, "reduce:0.85"}, {6.0, 2.0, "relocate:5"},
};

host::CubeSpec cube(double cube_mm, double height_mm) {
  return {.size_x_mm = cube_mm,
          .size_y_mm = cube_mm,
          .height_mm = height_mm,
          .center_x_mm = 110.0,
          .center_y_mm = 100.0};
}

class FleetCold final : public Workload {
 public:
  explicit FleetCold(WorkloadOptions o)
      : opt_(std::move(o)), cache_dir_(opt_.work_dir + "/cache") {}

  void setup() override {
    specs_ = make_campaign(opt_.seed, kObjects, kRigsPerObject);
    // The digest every iteration must reproduce: the same spec on one
    // worker, without a cache.
    svc::FleetOptions fo;
    fo.workers = 1;
    svc::FleetReport report = svc::Fleet(fo).run(specs_);
    check_verdicts(report);
    if (!expected_.rigs.empty() && report.to_json() != expected_.to_json()) {
      throw Error("fleet_cold: set-up runs disagree on the report");
    }
    expected_ = std::move(report);
  }

  Batch iterate(std::uint64_t iteration) override {
    std::filesystem::remove_all(cache_dir_);
    svc::FleetOptions fo;
    fo.workers = kWorkers;
    fo.cache_dir = cache_dir_;
    const auto t0 = std::chrono::steady_clock::now();
    svc::FleetReport report;
    {
      const Span span("svc.fleet.run", iteration);
      report = svc::Fleet(fo).run(specs_);
    }
    Batch b;
    b.wall_s = seconds_since(t0);
    b.attempted = specs_.size();
    b.failed = std::min<std::uint64_t>(count_mismatches(report, expected_),
                                       b.attempted);
    rig_times(report, "rig/", b.rig_s, b.sim_s);
    if (b.rig_s.size() != specs_.size()) b.failed = b.attempted;
    for (const auto& t : report.timings) {
      if (t.name.rfind("reference/", 0) == 0) ref_s_.push_back(t.seconds);
    }
    rig_s_.insert(rig_s_.end(), b.rig_s.begin(), b.rig_s.end());
    busy_.push_back(busy_fraction(report, b.wall_s, kWorkers));
    return b;
  }

  [[nodiscard]] std::vector<std::string> notes(
      const Metrics& /*m*/) const override {
    char sizes[96], latency[96];
    std::snprintf(sizes, sizeof(sizes),
                  "%zu rigs of %zu objects per batch, %zu workers",
                  specs_.size(), kObjects.size(), kWorkers);
    std::snprintf(latency, sizeof(latency),
                  "alarm_latency_windows = %.6g windows (simulated)",
                  alarm_latency_windows(expected_));
    return {sizes, latency};
  }

  void clear_layer_samples() override {
    ref_s_.clear();
    rig_s_.clear();
    busy_.clear();
  }

  void layers(Metrics& m) override {
    m.set("svc.fleet.reference_s", median(ref_s_), "s");
    m.set("svc.fleet.rig_s", median(rig_s_), "s");
    m.set("host.pool.busy_frac", median(busy_), "ratio");
    m.set("svc.detector.alarm_latency_windows",
          alarm_latency_windows(expected_), "windows");

    // The reference phase, call by call: slice, oracle, cache miss,
    // golden print with every probe, cache write.
    const svc::ChannelSet all;
    const host::SliceProfile profile;
    svc::RefCache cache({opt_.work_dir + "/layer-cache", 0});
    std::vector<double> slice_s, oracle_s, put_us;
    std::vector<gcode::Program> programs;
    for (std::size_t j = 0; j < kObjects.size(); ++j) {
      const std::uint64_t id = 1000 + j;
      auto t0 = std::chrono::steady_clock::now();
      {
        const Span span("host.slicer.slice_cube", id);
        programs.push_back(host::slice_cube(
            cube(kObjects[j].cube_mm, kObjects[j].height_mm), profile));
      }
      slice_s.push_back(seconds_since(t0));
      t0 = std::chrono::steady_clock::now();
      analyze::AnalysisResult analysis;
      {
        const Span span("analyze.analyze_program", id);
        analysis = analyze::analyze_program(programs.back(), fw::Config{});
      }
      oracle_s.push_back(seconds_since(t0));
      const std::uint64_t key = svc::reference_digest(
          kObjects[j].cube_mm, kObjects[j].height_mm, profile, kReferenceSeed, all);
      {
        const Span span("svc.ref_cache.get", id);
        if (cache.get(key)) throw Error("fleet_cold: layer cache not cold");
      }
      host::RunResult golden = run(programs.back(), kReferenceSeed, true, id);
      const svc::RefEntry entry{std::move(golden.capture),
                                std::move(golden.power_trace),
                                std::move(golden.acoustic_trace),
                                std::move(golden.vibration_trace)};
      for (int r = 0; r < kPutRepeats; ++r) {
        t0 = std::chrono::steady_clock::now();
        const Span span("svc.ref_cache.put", id);
        cache.put(key, entry);
        put_us.push_back(1e6 * seconds_since(t0));
      }
    }
    m.set("host.slicer.slice_s", median(slice_s), "s");
    m.set("analyze.oracle_s", median(oracle_s), "s");
    m.set("svc.ref_cache.put_us", median(put_us), "us");

    // Each rig's print again, outside the fleet (no detector, so
    // sabotaged prints run to the end): with every probe, with none, and
    // with none and the board's jumpers in place of the FPGA
    // (RouteMode::kDirect), which prices the fabric.
    std::vector<double> run_s, ns_per_event, probe_s, fabric_s;
    double events = 0, txns = 0, frames = 0, probe_events = 0,
           fabric_events = 0;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const svc::RigSpec& s = specs_[k];
      std::size_t j = 0;
      while (kObjects[j].cube_mm != s.cube_mm ||
             kObjects[j].height_mm != s.height_mm) {
        ++j;
      }
      const gcode::Program program = sabotaged(programs[j], s.sabotage);
      auto t0 = std::chrono::steady_clock::now();
      const host::RunResult probed = run(program, s.seed, true, k);
      const double probed_s = seconds_since(t0);
      t0 = std::chrono::steady_clock::now();
      const host::RunResult bare = run(program, s.seed, false, k);
      const double bare_s = seconds_since(t0);
      t0 = std::chrono::steady_clock::now();
      const host::RunResult direct =
          run(program, s.seed, false, k, core::RouteMode::kDirect);
      run_s.push_back(probed_s);
      ns_per_event.push_back(1e9 * probed_s /
                             static_cast<double>(probed.events_executed));
      probe_s.push_back(probed_s - bare_s);
      fabric_s.push_back(bare_s - seconds_since(t0));
      fabric_events += static_cast<double>(bare.events_executed) -
                       static_cast<double>(direct.events_executed);
      events += static_cast<double>(probed.events_executed);
      txns += static_cast<double>(probed.capture.size());
      frames += static_cast<double>(probed.uart_frames_emitted);
      probe_events += static_cast<double>(probed.events_executed) -
                      static_cast<double>(bare.events_executed);
    }
    m.set("host.rig.run_s", median(run_s), "s");
    m.set("sim.scheduler.ns_per_event", median(ns_per_event), "ns");
    m.set("sim.scheduler.events", events, "count");
    m.set("core.capture.transactions", txns, "count");
    m.set("core.uart.frames", frames, "count");
    m.set("plant.probes.extra_s", median(probe_s), "s");
    m.set("plant.probes.extra_events", probe_events, "count");
    m.set("core.fabric.extra_s", median(fabric_s), "s");
    m.set("core.fabric.extra_events", fabric_events, "count");
  }

  [[nodiscard]] std::size_t workers() const override { return kWorkers; }

 private:
  static gcode::Program sabotaged(const gcode::Program& clean,
                                  const svc::Sabotage& s) {
    switch (s.kind) {
      case svc::Sabotage::Kind::kNone: return clean;
      case svc::Sabotage::Kind::kReduction:
        return gcode::flaw3d::apply_reduction(clean, {.factor = s.factor});
      case svc::Sabotage::Kind::kRelocation:
        return gcode::flaw3d::apply_relocation(clean,
                                               {.every_n_moves = s.every_n});
    }
    return clean;
  }

  static host::RunResult run(
      const gcode::Program& program, std::uint64_t seed, bool probes,
      std::uint64_t id,
      core::RouteMode route = core::RouteMode::kFpgaMitm) {
    host::RigOptions ro;
    ro.firmware.jitter_seed = seed;
    ro.route = route;
    ro.post_kill_observation_s = 5.0;
    if (probes) svc::attach_probes(ro, svc::ChannelSet{}, seed);
    host::Rig rig(ro);
    const Span span("host.rig.run", id);
    return rig.run(program);
  }

  WorkloadOptions opt_;
  std::string cache_dir_;
  std::vector<svc::RigSpec> specs_;
  svc::FleetReport expected_;
  std::vector<double> ref_s_;
  std::vector<double> rig_s_;
  std::vector<double> busy_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_cold(const WorkloadOptions& o) {
  return std::make_unique<FleetCold>(o);
}

}  // namespace perfbench
