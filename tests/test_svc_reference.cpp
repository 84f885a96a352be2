// svc::ReferenceResolver inside real campaigns: references resolve on
// demand, once per object, whichever worker gets there first; a lost
// reference quarantines exactly its object's rigs (live) and sessions
// (replay); and a stopped campaign's checkpoint carries every reference
// resolved before the stop, so a resume reproduces the full report.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/checkpoint.hpp"
#include "svc/daemon.hpp"
#include "svc/fleet.hpp"
#include "svc/reference.hpp"

namespace {

using offramps::svc::Checkpoint;
using offramps::svc::Fleet;
using offramps::svc::FleetOptions;
using offramps::svc::FleetReport;
using offramps::svc::parse_sabotage;
using offramps::svc::ReplayOptions;
using offramps::svc::RigSpec;
using offramps::svc::RigStatus;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// `n` rigs of one small object, named `prefix-<k>`, the second one
/// sabotaged.
std::vector<RigSpec> object_rigs(const std::string& prefix, double cube_mm,
                                 double height_mm, std::size_t n,
                                 std::uint64_t seed) {
  std::vector<RigSpec> specs(n);
  for (std::size_t k = 0; k < n; ++k) {
    specs[k].name = prefix + "-" + std::to_string(k);
    specs[k].seed = seed + k;
    specs[k].cube_mm = cube_mm;
    specs[k].height_mm = height_mm;
  }
  if (n > 1) specs[1].sabotage = parse_sabotage("reduce:0.5");
  return specs;
}

/// Two objects, their rigs in object order: a-0, a-1, b-0, b-1.
std::vector<RigSpec> two_objects() {
  std::vector<RigSpec> specs = object_rigs("a", 6.0, 1.5, 2, 900);
  for (RigSpec& s : object_rigs("b", 6.0, 1.0, 2, 950)) specs.push_back(s);
  return specs;
}

std::uint64_t simulations() {
  return offramps::obs::Registry::instance()
      .counter("svc.ref.simulations")
      .value();
}

TEST(ReferenceResolver, OneObjectFleetPrintsOneReferenceAtAnyWorkerCount) {
  offramps::obs::set_enabled(true);
  const std::vector<RigSpec> specs = object_rigs("one", 6.0, 1.5, 4, 600);
  FleetOptions options;
  options.workers = 1;
  const std::string serial = Fleet(options).run(specs).to_json();

  // Four workers race for one object: exactly one golden print, the
  // other three wait for it, and the report does not change.
  options.workers = 4;
  const std::uint64_t before = simulations();
  const FleetReport report = Fleet(options).run(specs);
  EXPECT_EQ(simulations() - before, 1u);
  EXPECT_EQ(report.to_json(), serial);
  ASSERT_FALSE(report.timings.empty());
  EXPECT_EQ(report.timings[0].name, "reference/0");
  offramps::obs::set_enabled(false);
}

TEST(ReferenceResolver, LostReferenceQuarantinesOnlyItsObject) {
  const auto dir = fresh_dir("reference_lost");
  const std::string captures = (dir / "captures").string();
  const std::string cache = (dir / "cache").string();
  std::filesystem::create_directories(captures);

  // A healthy recording of both objects, for the replay below.
  FleetOptions healthy;
  healthy.workers = 2;
  healthy.save_captures_dir = captures;
  (void)Fleet(healthy).run(two_objects());
  // Object b's reference is cached; object a's is not.
  FleetOptions warm_b;
  warm_b.workers = 1;
  warm_b.cache_dir = cache;
  (void)Fleet(warm_b).run(object_rigs("b", 6.0, 1.0, 1, 950));

  // A first-data deadline shorter than heat-up: every golden print of
  // a stalls in every attempt, so a's reference is lost.
  FleetOptions options;
  options.cache_dir = cache;
  options.supervisor.first_data_timeout_s = 20.0;
  std::vector<std::string> reports;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    options.workers = workers;
    const FleetReport report = Fleet(options).run(two_objects());
    ASSERT_EQ(report.rigs.size(), 4u);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& rig = report.rigs[i];
      EXPECT_EQ(rig.status, RigStatus::kLost) << rig.spec.name;
      EXPECT_EQ(rig.attempts, 0u) << rig.spec.name;
      EXPECT_EQ(rig.failure_cause.rfind("reference lost: ", 0), 0u)
          << rig.failure_cause;
    }
    // b's rigs were simulated against b's cached reference; a's loss
    // never reaches them.
    for (std::size_t i = 2; i < 4; ++i) {
      const auto& rig = report.rigs[i];
      EXPECT_GT(rig.attempts, 0u) << rig.spec.name;
      EXPECT_EQ(rig.failure_cause.find("reference lost"), std::string::npos)
          << rig.failure_cause;
    }
    reports.push_back(report.to_json());
  }
  EXPECT_EQ(reports[0], reports[1]);

  // Replay resolves through the same resolver: with a's reference
  // uncached, a's sessions are quarantined and b's replay as recorded.
  ReplayOptions replay;
  replay.service = options;
  replay.service.workers = 2;
  const FleetReport replayed =
      offramps::svc::replay_corpus(captures, replay);
  ASSERT_EQ(replayed.rigs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& rig = replayed.rigs[i];
    const bool reference_lost =
        rig.failure_cause.rfind("session: reference: ", 0) == 0;
    EXPECT_EQ(reference_lost, i < 2) << rig.spec.name << ": "
                                     << rig.failure_cause;
    EXPECT_EQ(rig.status, i < 2 ? RigStatus::kLost : RigStatus::kOk)
        << rig.spec.name;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReferenceResolver, StoppedCheckpointHoldsResolvedReferences) {
  const auto dir = fresh_dir("reference_checkpoint");
  const std::string ck = (dir / "ck.bin").string();
  FleetOptions plain;
  plain.workers = 4;
  const std::string full = Fleet(plain).run(two_objects()).to_json();

  // Stop after a's two rigs: a's reference resolved, b's never asked for.
  FleetOptions first = plain;
  first.checkpoint_path = ck;
  first.stop_after = 2;
  EXPECT_FALSE(Fleet(first).run(two_objects()).complete);
  const Checkpoint saved = Checkpoint::load(ck);
  ASSERT_EQ(saved.references.size(), 2u);
  EXPECT_FALSE(saved.references[0].golden.empty());
  EXPECT_TRUE(saved.references[1].golden.empty());

  // Stop after three: b's first rig resolved b, so both are in.
  first.stop_after = 3;
  std::filesystem::remove(ck);
  (void)Fleet(first).run(two_objects());
  const Checkpoint both = Checkpoint::load(ck);
  ASSERT_EQ(both.references.size(), 2u);
  EXPECT_FALSE(both.references[0].golden.empty());
  EXPECT_FALSE(both.references[1].golden.empty());

  // Resume: the seeded references are not re-printed, and the report is
  // the uninterrupted one byte for byte.
  FleetOptions second = plain;
  second.resume_path = ck;
  offramps::obs::set_enabled(true);
  const std::uint64_t before = simulations();
  const FleetReport resumed = Fleet(second).run(two_objects());
  EXPECT_EQ(simulations() - before, 0u);
  offramps::obs::set_enabled(false);
  EXPECT_EQ(resumed.to_json(), full);
  std::filesystem::remove_all(dir);
}

}  // namespace
