// bench_supervisor: fault-tolerance cost harness (EXPERIMENTS.md E12).
//
// Phase 1 - supervision overhead: the same clean demo fleet with the
// retry/watchdog machinery at max_attempts 1 vs 3.  On a clean campaign
// no retries fire, so the two runs must produce byte-identical rig
// verdicts and near-identical wall time; the measured delta is the
// standing cost of the supervision layer.
//
// Phase 2 - recovery cost: a chaos campaign (crash / stall / powerjam
// faults on clean rigs) timed against the clean baseline.  Reports
// retries, quarantines, and the wall-time amplification of retrying,
// and checks the classification ladder end to end: crash -> recovered,
// permanent stall -> lost, powerjam -> degraded, zero false alarms.
//
// Phase 3 - checkpoint throughput: save/load latency and snapshot size
// for the finished campaign state, plus a round-trip identity check.
//
// Exits nonzero when any expectation fails, so this doubles as a perf
// smoke test alongside bench_fleet.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "host/chaos.hpp"
#include "svc/checkpoint.hpp"
#include "svc/fleet.hpp"

using namespace offramps;

namespace {

std::vector<svc::RigSpec> clean_fleet(std::size_t n) {
  std::vector<svc::RigSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].name = "sup-" + std::to_string(i);
    specs[i].seed = 4000 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.5;
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::parse_jobs(argc, argv);
  bench::BenchJson json("supervisor");
  json.add("jobs", static_cast<std::uint64_t>(jobs));
  bool ok = true;

  // ---- Phase 1: supervision overhead on a clean campaign.
  bench::heading("E12: supervision overhead (clean fleet, attempts 1 vs 3)");
  const auto specs = clean_fleet(4);
  svc::FleetOptions base;
  base.workers = jobs;

  svc::FleetOptions bare = base;
  bare.supervisor.max_attempts = 1;
  bench::Stopwatch t_bare;
  const svc::FleetReport r_bare = svc::Fleet(bare).run(specs);
  const double s_bare = t_bare.seconds();

  svc::FleetOptions guarded = base;
  guarded.supervisor.max_attempts = 3;
  bench::Stopwatch t_guarded;
  const svc::FleetReport r_guarded = svc::Fleet(guarded).run(specs);
  const double s_guarded = t_guarded.seconds();

  std::printf("  attempts=1: %.2f s    attempts=3: %.2f s    delta %+.1f%%\n",
              s_bare, s_guarded,
              100.0 * (s_guarded - s_bare) / (s_bare > 0 ? s_bare : 1.0));
  json.add("clean_seconds_attempts1", s_bare);
  json.add("clean_seconds_attempts3", s_guarded);
  if (r_bare.alarmed() != 0 || r_guarded.alarmed() != 0 ||
      r_guarded.count(svc::RigStatus::kOk) != specs.size()) {
    std::printf("  FAIL: clean campaign not clean under supervision\n");
    ok = false;
  }

  // ---- Phase 2: recovery cost under chaos.
  bench::heading("E12: recovery cost (crash/stall/powerjam campaign)");
  auto chaos_specs = clean_fleet(4);
  chaos_specs[1].chaos = host::parse_chaos("crash:1");
  chaos_specs[2].chaos = host::parse_chaos("stall:99");
  chaos_specs[3].chaos = host::parse_chaos("powerjam");
  bench::Stopwatch t_chaos;
  const svc::FleetReport r_chaos = svc::Fleet(base).run(chaos_specs);
  const double s_chaos = t_chaos.seconds();

  std::uint64_t retries = 0;
  for (const auto& rig : r_chaos.rigs) {
    retries += rig.attempts > 0 ? rig.attempts - 1 : 0;
  }
  std::printf("  campaign: %.2f s (clean baseline %.2f s, %.2fx)\n", s_chaos,
              s_bare, s_chaos / (s_bare > 0 ? s_bare : 1.0));
  std::printf("  retries: %llu   recovered %zu  degraded %zu  lost %zu\n",
              static_cast<unsigned long long>(retries),
              r_chaos.count(svc::RigStatus::kRecovered),
              r_chaos.count(svc::RigStatus::kDegraded),
              r_chaos.count(svc::RigStatus::kLost));
  json.add("chaos_seconds", s_chaos);
  json.add("chaos_retries", retries);
  const bool ladder_ok =
      r_chaos.rigs[1].status == svc::RigStatus::kRecovered &&
      r_chaos.rigs[2].status == svc::RigStatus::kLost &&
      r_chaos.rigs[3].status == svc::RigStatus::kDegraded &&
      r_chaos.alarmed() == 0;
  if (!ladder_ok) {
    std::printf("  FAIL: chaos ladder misclassified (campaign %s)\n",
                r_chaos.campaign().c_str());
    ok = false;
  }

  // ---- Phase 3: checkpoint save/load throughput.
  bench::heading("E12: checkpoint save/load throughput");
  svc::Checkpoint ck;
  ck.spec_digest = svc::campaign_digest(chaos_specs, base);
  ck.total_rigs = static_cast<std::uint32_t>(chaos_specs.size());
  for (std::uint32_t i = 0; i < r_chaos.rigs.size(); ++i) {
    ck.done.emplace_back(i, r_chaos.rigs[i]);
  }
  const std::string path = "BENCH_supervisor_ck.bin";
  constexpr int kReps = 50;
  bench::Stopwatch t_save;
  for (int i = 0; i < kReps; ++i) ck.save(path);
  const double save_us = 1e6 * t_save.seconds() / kReps;
  bench::Stopwatch t_load;
  for (int i = 0; i < kReps; ++i) (void)svc::Checkpoint::load(path);
  const double load_us = 1e6 * t_load.seconds() / kReps;
  const auto bytes = std::filesystem::file_size(path);
  std::printf("  save %.1f us   load %.1f us   %llu bytes\n", save_us,
              load_us, static_cast<unsigned long long>(bytes));
  json.add("checkpoint_save_us", save_us);
  json.add("checkpoint_load_us", load_us);
  json.add("checkpoint_bytes", static_cast<std::uint64_t>(bytes));

  const svc::Checkpoint back = svc::Checkpoint::load(path);
  if (back.to_binary() != ck.to_binary()) {
    std::printf("  FAIL: checkpoint round trip not byte-identical\n");
    ok = false;
  }
  std::filesystem::remove(path);

  json.add("ok", ok);
  json.write();
  std::printf("\nbench_supervisor: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
