// Seeded fleet campaigns and the checks on their reports, shared by the
// fleet_cold and replay_warm workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/fleet.hpp"

namespace perfbench {

/// Rigs printing one object, one of them sabotaged when `sabotage` names
/// a Flaw3D variant.
struct RigGroup {
  double cube_mm = 8.0;
  double height_mm = 2.0;
  const char* sabotage = "clean";
};

/// `rigs_per_group` rigs of each group.  The seed draws every rig's
/// firmware jitter seed and the rig order; the object and sabotage mix
/// is fixed, so every seed asks for the same amount of work.
std::vector<offramps::svc::RigSpec> make_campaign(
    std::uint64_t seed, const std::vector<RigGroup>& groups,
    std::size_t rigs_per_group);

/// Throws unless exactly the sabotaged rigs alarmed, all of them mid-
/// print, and every rig finished its supervision with status ok.
void check_verdicts(const offramps::svc::FleetReport& report);

/// Rigs of `got` that differ from `expected` (report bytes, verdict or
/// status), plus one when the whole reports differ in any other byte.
std::uint64_t count_mismatches(const offramps::svc::FleetReport& got,
                               const offramps::svc::FleetReport& expected);

/// Mean transaction window of the first alarm over the sabotaged rigs
/// (simulated and deterministic for a given campaign).
double alarm_latency_windows(const offramps::svc::FleetReport& report);

/// Host seconds and simulated seconds of each rig, from the report's
/// "<prefix><name>" phase timings.
void rig_times(const offramps::svc::FleetReport& report, const char* prefix,
               std::vector<double>& rig_s, std::vector<double>& sim_s);

/// Summed phase seconds over (wall x workers): how busy the pool was.
double busy_fraction(const offramps::svc::FleetReport& report, double wall_s,
                     std::size_t workers);

}  // namespace perfbench
