// bench_fleet: fleet-service evaluation harness (EXPERIMENTS.md E10).
//
// Phase 1 - online detection latency per Flaw3D variant: one rig per
// Table II case (reduction 0.5/0.85/0.9/0.98, relocation every
// 5/10/20/100 moves) plus clean controls, safe-stop disabled so every
// print runs to completion and the post-print channels also get their
// say.  Reports, per variant: the alarming channel, whether the catch
// was mid-print, and the first-alarm latency in capture windows (0.1 s
// each).  The 2% reduction is the expected post-print-only catch.
//
// Phase 2 - orchestration throughput: the demo fleet at 1 worker vs N
// workers, rigs/s each, plus a byte-identity check of the two reports
// (the fleet's determinism contract).
//
// Phase 3 - multi-modal overhead: per-window cost with every channel on
// against power only, median of alternating pairs, gated at 1.25x.
// Exits nonzero when any expectation fails, so this doubles as a perf
// smoke test.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "svc/fleet.hpp"

using namespace offramps;

namespace {

std::string variant_key(const std::string& sabotage) {
  std::string out = "variant_";
  for (const char c : sabotage) {
    out += (c == ':' || c == '.') ? '_' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::parse_jobs(argc, argv);
  bench::BenchJson json("fleet");
  json.add("jobs", static_cast<std::uint64_t>(jobs));
  bool ok = true;

  // ---- Phase 1: detection latency across all eight Table II variants.
  bench::heading("E10: online detection latency, all Flaw3D variants");
  const std::vector<std::string> variants{
      "reduce:0.5",  "reduce:0.85", "reduce:0.9",  "reduce:0.98",
      "relocate:5",  "relocate:10", "relocate:20", "relocate:100"};
  std::vector<svc::RigSpec> specs;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    svc::RigSpec spec;
    spec.name = variants[i];
    spec.seed = 2000 + i;
    spec.sabotage = svc::parse_sabotage(variants[i]);
    specs.push_back(spec);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    svc::RigSpec spec;
    spec.name = "clean-" + std::to_string(i);
    spec.seed = 3000 + i;
    specs.push_back(spec);
  }

  svc::FleetOptions options;
  options.workers = jobs;
  options.safe_stop = false;  // let every print finish: post-print
                              // channels must also report
  svc::Fleet fleet(options);
  const svc::FleetReport latency_report = fleet.run(specs);

  std::printf("%-14s %-16s %-10s %s\n", "variant", "channel", "mid-print",
              "latency (windows)");
  bench::rule();
  std::size_t mid_print_catches = 0;
  for (const auto& rig : latency_report.rigs) {
    const bool dirty = rig.spec.sabotage.kind != svc::Sabotage::Kind::kNone;
    if (!dirty) {
      if (rig.detector.alarmed) {
        std::printf("%-14s FALSE ALARM\n", rig.spec.name.c_str());
        ok = false;
      }
      continue;
    }
    if (!rig.detector.alarmed) {
      std::printf("%-14s MISSED\n", rig.spec.name.c_str());
      ok = false;
      continue;
    }
    mid_print_catches += rig.detector.alarmed_mid_print ? 1 : 0;
    std::printf("%-14s %-16s %-10s %u\n", rig.spec.name.c_str(),
                svc::channel_name(rig.detector.first_channel),
                rig.detector.alarmed_mid_print ? "yes" : "no (final)",
                rig.detector.alarm_window);
    // Per-channel attribution (E16): every modality that tripped, with
    // its own windows-to-alarm - the fused verdict above is their min.
    std::string attribution;
    for (const auto& v : rig.detector.channels) {
      if (!v.tripped) continue;
      attribution += attribution.empty() ? "" : ", ";
      attribution += svc::channel_name(v.channel);
      attribution += ":w" + std::to_string(v.trip_window);
      json.add(variant_key(rig.spec.name) + "_trip_" +
                   svc::channel_name(v.channel),
               static_cast<std::uint64_t>(v.trip_window));
    }
    std::printf("               tripped: %s\n",
                attribution.empty() ? "-" : attribution.c_str());
    const std::string key = variant_key(rig.spec.name);
    json.add(key + "_channel",
             svc::channel_name(rig.detector.first_channel));
    json.add(key + "_mid_print", rig.detector.alarmed_mid_print);
    json.add(key + "_latency_windows",
             static_cast<std::uint64_t>(rig.detector.alarm_window));
  }
  json.add("variants_caught",
           static_cast<std::uint64_t>(latency_report.alarmed()));
  json.add("variants_caught_mid_print",
           static_cast<std::uint64_t>(mid_print_catches));

  // ---- Phase 2: orchestration throughput and determinism.
  bench::heading("fleet throughput: demo 8 rigs / 4 sabotaged");
  const auto demo = svc::Fleet::demo_specs(8, 4);

  svc::FleetOptions seq_options;
  seq_options.workers = 1;
  bench::Stopwatch seq_watch;
  svc::Fleet seq_fleet(seq_options);
  const svc::FleetReport seq_report = seq_fleet.run(demo);
  const double seq_s = seq_watch.seconds();

  svc::FleetOptions par_options;
  par_options.workers = jobs;
  bench::Stopwatch par_watch;
  svc::Fleet par_fleet(par_options);
  const svc::FleetReport par_report = par_fleet.run(demo);
  const double par_s = par_watch.seconds();

  const double n = static_cast<double>(demo.size());
  std::printf("1 worker : %.2f s  (%.2f rigs/s)\n", seq_s, n / seq_s);
  std::printf("%zu workers: %.2f s  (%.2f rigs/s, speedup %.2fx)\n", jobs,
              par_s, n / par_s, seq_s / par_s);
  json.add("demo_rigs", static_cast<std::uint64_t>(demo.size()));
  json.add("rigs_per_s_1w", n / seq_s);
  json.add("rigs_per_s_nw", n / par_s);
  json.add("speedup", seq_s / par_s);

  double latency_sum = 0.0;
  std::size_t alarms = 0;
  for (const auto& rig : par_report.rigs) {
    if (rig.detector.alarmed_mid_print) {
      latency_sum += static_cast<double>(rig.detector.alarm_window) * 0.1;
      ++alarms;
    }
  }
  const double mean_latency_s =
      alarms > 0 ? latency_sum / static_cast<double>(alarms) : 0.0;
  std::printf("mid-print alarms: %zu, mean first-alarm latency %.1f s "
              "into the stream\n",
              alarms, mean_latency_s);
  json.add("demo_mid_print_alarms", static_cast<std::uint64_t>(alarms));
  json.add("mean_first_alarm_latency_s", mean_latency_s);

  const bool deterministic = seq_report.to_json() == par_report.to_json();
  std::printf("report determinism across worker counts: %s\n",
              deterministic ? "byte-identical" : "DIVERGED");
  json.add("deterministic_across_workers", deterministic);
  ok = ok && deterministic && alarms == 4;

  // ---- Phase 3: multi-modal overhead gate.  Turning on the acoustic
  // and vibration channels must cost < 25% per capture window over the
  // power-only configuration (enforced by exit code on plain builds;
  // sanitized builds report without enforcing).  The two configurations
  // run as alternating pairs and the gate compares their medians, so a
  // burst of host load lands on both sides instead of skewing one run.
  bench::heading("multi-modal channels: per-window cost vs power-only");
  auto mm_specs = svc::Fleet::demo_specs(4, 1);
  for (auto& s : mm_specs) {
    s.cube_mm = 6.0;
    s.height_mm = 2.0;
  }
  const auto timed_per_window = [&](const svc::ChannelSet& channels) {
    svc::FleetOptions o;
    o.workers = jobs;
    o.channels = channels;
    bench::Stopwatch watch;
    svc::Fleet f(o);
    const svc::FleetReport r = f.run(mm_specs);
    const double s = watch.seconds();
    std::uint64_t windows = 0;
    for (const auto& rig : r.rigs) {
      windows += rig.detector.windows_processed;
    }
    return windows == 0 ? 0.0 : s / static_cast<double>(windows);
  };
  constexpr int kPairs = 5;
  std::vector<double> power_only_runs, all_channels_runs;
  for (int pair = 0; pair < kPairs; ++pair) {
    power_only_runs.push_back(
        1e6 * timed_per_window(svc::ChannelSet{true, true, false, false}));
    all_channels_runs.push_back(1e6 * timed_per_window(svc::ChannelSet{}));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double power_only_us = median(power_only_runs);
  const double all_channels_us = median(all_channels_runs);
  const double mm_ratio =
      power_only_us > 0.0 ? all_channels_us / power_only_us : 0.0;
  const bool mm_enforced = !bench::built_with_sanitizers();
  const bool mm_ok = mm_ratio < 1.25;
  std::printf("power-only   : %.1f us/window (median of %d)\n",
              power_only_us, kPairs);
  std::printf("all channels : %.1f us/window  (%.2fx, gate < 1.25x%s)\n",
              all_channels_us, mm_ratio,
              mm_enforced ? "" : ", report-only under sanitizers");
  json.add("per_window_us_power_only", power_only_us);
  json.add("per_window_us_all_channels", all_channels_us);
  json.add("multi_modal_ratio", mm_ratio);
  json.add("multi_modal_gate_enforced", mm_enforced);
  if (mm_enforced && !mm_ok) {
    std::printf("FAIL: multi-modal per-window cost exceeds the 25%% budget\n");
    ok = false;
  }

  json.add("self_check", ok);
  json.write();
  return ok ? 0 : 1;
}
