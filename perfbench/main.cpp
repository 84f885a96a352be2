// End-to-end benchmark of the OFFRAMPS simulator and fleet service.
//
//   offramps_perfbench --workload fleet_cold|replay_warm
//                      --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Set-up runs three times and reports its median (setup_s).  With
// --trace 0 the workload then runs closed-loop batches for S seconds
// and prints the end-to-end metrics.  With --trace 1 it runs S/2
// seconds untraced, S/2 seconds traced (spans plus the obs:: counters),
// then a fixed-work pass that times each layer's calls directly, and
// prints the per-layer metrics.  Every batch checks its outputs; the
// last stdout line is the JSON result, and the exit code is 1 when any
// check failed.  perfbench/run.py builds this binary and runs it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metrics;

constexpr int kSetupRuns = 3;
/// The untraced run goes on past --seconds until this many rigs have
/// run, so that ten samples lie beyond rig_s_tail, their p90.
constexpr std::size_t kMinRigs = 100;

/// Every per-layer metric the traced run prints, with its unit.  A
/// workload sets the ones it moves; the rest read 0 on that workload.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> list = {
      {"host.rig.run_s", "s"},
      {"sim.scheduler.events", "count"},
      {"sim.scheduler.ns_per_event", "ns"},
      {"core.capture.transactions", "count"},
      {"core.uart.frames", "count"},
      {"core.fabric.extra_s", "s"},
      {"core.fabric.extra_events", "count"},
      {"plant.probes.extra_s", "s"},
      {"plant.probes.extra_events", "count"},
      {"host.slicer.slice_s", "s"},
      {"analyze.oracle_s", "s"},
      {"svc.fleet.reference_s", "s"},
      {"svc.fleet.rig_s", "s"},
      {"host.pool.busy_frac", "ratio"},
      {"host.pool.stolen", "count"},
      {"host.pool.parks", "count"},
      {"svc.detector.windows", "count"},
      {"svc.detector.window_us_p50", "us"},
      {"svc.detector.window_us_tail", "us"},
      {"svc.detector.stalls", "count"},
      {"svc.detector.ring_high_water", "count"},
      {"svc.detector.alarm_latency_windows", "windows"},
      {"svc.channel.steps.us_per_window", "us"},
      {"svc.channel.power.us_per_window", "us"},
      {"svc.channel.acoustic.us_per_window", "us"},
      {"svc.channel.vibration.us_per_window", "us"},
      {"core.wire.MBps", "MB/s"},
      {"core.wire.frames", "count"},
      {"core.wire.resyncs", "count"},
      {"svc.session.feed_us_p50", "us"},
      {"svc.session.feed_us_tail", "us"},
      {"svc.ref_cache.get_us", "us"},
      {"svc.ref_cache.put_us", "us"},
      {"svc.cache.hit", "count"},
      {"svc.cache.miss", "count"},
      {"svc.ref.simulations", "count"},
      {"svc.supervisor.retries", "count"},
      {"svc.supervisor.failures", "count"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

/// Layers whose self time the traced run reports as <layer>.self_s.
const std::vector<const char*>& self_time_layers() {
  static const std::vector<const char*> list = {
      "bench",       "host.rig",     "host.slicer",  "analyze",
      "svc.fleet",   "svc.replay",   "core.wire",    "svc.session",
      "svc.detector", "svc.ref_cache"};
  return list;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "offramps_perfbench: %s\nusage: offramps_perfbench "
               "--workload fleet_cold|replay_warm --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed wants an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds wants a positive number");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<perfbench::Workload> make(const std::string& name,
                                          const perfbench::WorkloadOptions& o) {
  if (name == "fleet_cold") return perfbench::make_fleet_cold(o);
  if (name == "replay_warm") return perfbench::make_replay_warm(o);
  usage(("unknown workload " + name).c_str());
}

/// Closed loop: starts batches until `seconds` have passed and at least
/// `min_rigs` rigs have run.
std::vector<perfbench::Batch> run_batches(perfbench::Workload& w,
                                          double seconds, std::size_t min_rigs,
                                          std::uint64_t& next_iteration) {
  std::vector<perfbench::Batch> batches;
  std::size_t rigs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const std::uint64_t it = next_iteration++;
    const perfbench::Span span("bench.iteration", it);
    batches.push_back(w.iterate(it));
    rigs += batches.back().rig_s.size();
  } while (perfbench::seconds_since(t0) < seconds || rigs < min_rigs);
  return batches;
}

double median_wall(const std::vector<perfbench::Batch>& batches) {
  std::vector<double> v;
  for (const auto& b : batches) v.push_back(b.wall_s);
  return perfbench::median(v);
}

/// Throughputs and the mean rig time are totals over the run (work done
/// / time taken); the tail is a p90.  On a shared host a run's rigs fall
/// into a fast and a slow cluster, and a median of per-rig times jumps
/// between them as their shares shift from run to run, where a total
/// moves only with the shares.
void end_to_end(const std::vector<perfbench::Batch>& batches, Metrics& m,
                std::vector<std::string>& table) {
  std::vector<double> rig_s;
  double sim_total = 0.0, rig_total = 0.0, wall_total = 0.0, rigs = 0.0;
  for (const auto& b : batches) {
    wall_total += b.wall_s;
    rigs += static_cast<double>(b.attempted);
    for (std::size_t i = 0; i < b.rig_s.size(); ++i) {
      rig_s.push_back(b.rig_s[i]);
      rig_total += b.rig_s[i];
      sim_total += b.sim_s[i];
    }
  }
  m.set("sim_speed_x", sim_total / rig_total, "x");
  m.set("rigs_per_s", rigs / wall_total, "1/s");
  m.set("rig_s_mean", rig_total / static_cast<double>(rig_s.size()), "s");
  m.set("rig_s_tail", perfbench::p90(rig_s), "s");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu batches, %zu rigs; rig_s_tail is their p90",
                batches.size(), rig_s.size());
  table.emplace_back(buf);
  std::snprintf(buf, sizeof(buf), "rig_s_p50 = %.6g s (console only)",
                perfbench::median(rig_s));
  table.emplace_back(buf);
}

void obs_snapshot(std::size_t workers, double iterations, Metrics& m) {
  auto& reg = offramps::obs::Registry::instance();
  const auto per_iter = [&](const char* metric, const char* counter) {
    m.set(metric, static_cast<double>(reg.counter(counter).value()) /
                      iterations, "count");
  };
  per_iter("svc.detector.windows", "svc.detector.windows");
  per_iter("svc.detector.stalls", "svc.detector.backpressure_stalls");
  per_iter("svc.cache.hit", "svc.cache.hit");
  per_iter("svc.cache.miss", "svc.cache.miss");
  per_iter("svc.ref.simulations", "svc.ref.simulations");
  per_iter("svc.supervisor.retries", "svc.supervisor.retries");
  per_iter("svc.supervisor.failures", "svc.supervisor.failures");
  m.set("svc.detector.ring_high_water",
        static_cast<double>(reg.gauge("svc.detector.ring_high_water").max()),
        "count");
  if (workers > 1) {
    double stolen = 0.0;
    for (std::size_t i = 0; i < workers; ++i) {
      stolen += static_cast<double>(
          reg.counter("host.pool.worker." + std::to_string(i) + ".stolen")
              .value());
    }
    m.set("host.pool.stolen", stolen / iterations, "count");
    per_iter("host.pool.parks", "host.pool.parks");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  namespace fs = std::filesystem;
  const fs::path work = fs::path(args.work_dir) /
                        (args.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);

  int rc = 0;
  try {
    auto w = make(args.workload, {args.seed, work.string()});
    Metrics m;
    std::vector<std::string> table;

    std::vector<double> setups;
    for (int r = 0; r < kSetupRuns; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      w->setup();
      setups.push_back(perfbench::seconds_since(t0));
    }
    const double setup_s = perfbench::median(setups);

    std::uint64_t next_iteration = 0;
    std::vector<perfbench::Batch> all;
    if (args.trace == 0) {
      all = run_batches(*w, args.seconds, kMinRigs, next_iteration);
      m.set("setup_s", setup_s, "s");
      end_to_end(all, m, table);
      m.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
    } else {
      for (const auto& [name, unit] : layer_metrics()) m.set(name, 0.0, unit);
      const auto plain =
          run_batches(*w, args.seconds / 2, 0, next_iteration);
      w->clear_layer_samples();
      offramps::obs::Registry::instance().reset();
      offramps::obs::set_enabled(true);
      perfbench::Tracer::start(1);
      const auto traced =
          run_batches(*w, args.seconds / 2, 0, next_iteration);
      perfbench::Tracer::stop();
      obs_snapshot(w->workers(), static_cast<double>(traced.size()), m);
      offramps::obs::set_enabled(false);
      perfbench::Tracer::start(2);
      w->layers(m);
      perfbench::Tracer::stop();

      m.set("trace.overhead_pct",
            100.0 * (median_wall(traced) / median_wall(plain) - 1.0), "%");
      std::map<std::string, double> self = perfbench::self_seconds_by_layer(
          perfbench::Tracer::spans(), 1, static_cast<double>(traced.size()));
      for (const char* layer : self_time_layers()) {
        m.set(std::string(layer) + ".self_s", self[layer], "s");
      }
      const fs::path spans_out = fs::path(args.work_dir) /
                                 ("spans-" + args.workload + ".json");
      if (!perfbench::Tracer::save(spans_out.string())) {
        throw std::runtime_error("cannot write " + spans_out.string());
      }
      table.push_back("spans written to " + spans_out.string());
      all = plain;
      all.insert(all.end(), traced.begin(), traced.end());
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto& b : all) {
      attempted += b.attempted;
      failed += b.failed;
    }
    const double fail_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    std::printf("workload %s  seed %llu  %zu batches  setup runs:",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), all.size());
    for (const double s : setups) std::printf(" %.3fs", s);
    std::printf("\n  fail_frac = %.6f ratio (%llu of %llu)\n", fail_frac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const std::string& line : w->notes(m)) {
      std::printf("  %s\n", line.c_str());
    }
    for (const auto& e : m.entries()) {
      std::printf("  %-38s %.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
    for (const std::string& line : table) std::printf("  %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                m.to_json().c_str());
    rc = failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "offramps_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  return rc;
}
