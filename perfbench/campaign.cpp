#include "campaign.hpp"

#include <string>
#include <utility>

#include "harness.hpp"
#include "sim/error.hpp"

namespace perfbench {

using offramps::Error;
using offramps::svc::FleetReport;
using offramps::svc::RigOutcome;
using offramps::svc::RigSpec;
using offramps::svc::RigStatus;

std::vector<RigSpec> make_campaign(std::uint64_t seed,
                                   const std::vector<RigGroup>& groups,
                                   std::size_t rigs_per_group) {
  std::vector<RigSpec> specs;
  for (const RigGroup& g : groups) {
    for (std::size_t k = 0; k < rigs_per_group; ++k) {
      RigSpec s;
      s.cube_mm = g.cube_mm;
      s.height_mm = g.height_mm;
      s.sabotage = offramps::svc::parse_sabotage(k == 0 ? g.sabotage : "");
      specs.push_back(s);
    }
  }
  for (std::size_t i = specs.size(); i > 1; --i) {  // seeded shuffle
    std::swap(specs[i - 1], specs[mix(seed, 1000 + i) % i]);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "rig-" + std::to_string(i);
    specs[i].seed = mix(seed, i) % 1000000;
  }
  return specs;
}

void check_verdicts(const FleetReport& report) {
  for (const RigOutcome& r : report.rigs) {
    const bool sabotaged =
        r.spec.sabotage.kind != offramps::svc::Sabotage::Kind::kNone;
    if (r.status != RigStatus::kOk || r.detector.alarmed != sabotaged ||
        r.detector.alarmed_mid_print != sabotaged) {
      throw Error("campaign: wrong verdict for " + r.spec.name + " (" +
                  r.spec.sabotage.to_string() + "): " +
                  r.detector.to_string());
    }
  }
}

std::uint64_t count_mismatches(const FleetReport& got,
                               const FleetReport& expected) {
  if (got.rigs.size() != expected.rigs.size()) return got.rigs.size() + 1;
  const auto one = [](const RigOutcome& r) {
    FleetReport single;
    single.rigs.push_back(r);
    return single.to_json();
  };
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.rigs.size(); ++i) {
    if (one(got.rigs[i]) != one(expected.rigs[i])) ++bad;
  }
  if (bad == 0 && got.to_json() != expected.to_json()) ++bad;
  return bad;
}

double alarm_latency_windows(const FleetReport& report) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RigOutcome& r : report.rigs) {
    if (r.spec.sabotage.kind == offramps::svc::Sabotage::Kind::kNone) continue;
    sum += r.detector.alarm_window;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void rig_times(const FleetReport& report, const char* prefix,
               std::vector<double>& rig_s, std::vector<double>& sim_s) {
  for (const RigOutcome& r : report.rigs) {
    for (const auto& t : report.timings) {
      if (t.name == prefix + r.spec.name) {
        rig_s.push_back(t.seconds);
        sim_s.push_back(r.sim_seconds);
        break;
      }
    }
  }
}

double busy_fraction(const FleetReport& report, double wall_s,
                     std::size_t workers) {
  double phases = 0.0;
  for (const auto& t : report.timings) phases += t.seconds;
  return phases / (wall_s * static_cast<double>(workers));
}

}  // namespace perfbench
