#include "svc/reference.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "analyze/analyzer.hpp"
#include "host/rig.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"

namespace offramps::svc {

void attach_probes(host::RigOptions& ro, const ChannelSet& channels,
                   std::uint64_t seed) {
  if (channels.power) {
    plant::PowerProbeOptions po;
    po.noise_seed = plant::probe_noise_seed(seed, po.noise_seed);
    ro.power_probe = po;
  }
  if (channels.acoustic) {
    plant::AcousticProbeOptions ao;
    ao.noise_seed = plant::probe_noise_seed(seed, ao.noise_seed);
    ro.acoustic_probe = ao;
  }
  if (channels.vibration) {
    plant::VibrationProbeOptions vo;
    vo.noise_seed = plant::probe_noise_seed(seed, vo.noise_seed);
    ro.vibration_probe = vo;
  }
}

ChannelRefs channel_refs(const Reference& ref, bool use_oracle,
                         const ChannelSet& channels) {
  // An empty trace (a degraded or lost print) arms nothing either way.
  ChannelRefs refs;
  refs.golden = &ref.golden;
  if (use_oracle && ref.oracle.counters_armed) refs.oracle = &ref.oracle;
  if (channels.power) refs.golden_power = &ref.golden_power;
  if (channels.acoustic) refs.golden_acoustic = &ref.golden_acoustic;
  if (channels.vibration) refs.golden_vibration = &ref.golden_vibration;
  return refs;
}

ReferenceResolver::ReferenceResolver(const ServiceOptions& options)
    : options_(options) {
  if (!options_.cache_dir.empty()) {
    cache_ = std::make_unique<RefCache>(
        RefCacheOptions{options_.cache_dir, options_.cache_max_bytes});
  }
#if OFFRAMPS_OBS_ENABLED
  // Registered eagerly so a fully-warm campaign still exports
  // "svc.ref.simulations": 0.
  if (obs::enabled()) {
    obs::Registry::instance().counter("svc.ref.simulations");
  }
#endif
}

std::uint64_t ReferenceResolver::key_of(double cube_mm,
                                        double height_mm) const {
  return reference_digest(cube_mm, height_mm, options_.profile,
                          options_.reference_seed, options_.channels);
}

void ReferenceResolver::seed(double cube_mm, double height_mm,
                             RefEntry golden) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto& slot = slots_[key_of(cube_mm, height_mm)];
  if (!slot) slot = std::make_unique<Slot>();
  slot->seeded = std::move(golden);
}

const Reference& ReferenceResolver::resolve(double cube_mm, double height_mm,
                                            const std::string& name) {
  const std::uint64_t key = key_of(cube_mm, height_mm);
  Slot* slot = nullptr;
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto& p = slots_[key];
    if (!p) p = std::make_unique<Slot>();
    slot = p.get();
    // The first caller of a digest computes it; the rest wait for it.
    if (slot->claimed) {
      cv_.wait(lk, [&] { return slot->done; });
      if (slot->failed) throw Error(slot->error);
      return slot->ref;
    }
    slot->claimed = true;
  }
  bool failed = false;
  std::string error;
  try {
    compute(*slot, cube_mm, height_mm, key, name);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }
  const std::lock_guard<std::mutex> lk(mu_);
  slot->done = true;
  slot->failed = failed;
  slot->error = std::move(error);
  cv_.notify_all();
  if (slot->failed) throw Error(slot->error);
  return slot->ref;
}

ChannelRefs ReferenceResolver::session_refs(double cube_mm,
                                            double height_mm) {
  char name[64];
  std::snprintf(name, sizeof(name), "%gx%g", cube_mm, height_mm);
  try {
    const Reference& ref = resolve(cube_mm, height_mm, name);
    if (ref.guard.status == RigStatus::kLost) {
      throw Error(ref.guard.failure_cause);
    }
    return channel_refs(ref, options_.use_oracle, options_.channels);
  } catch (const std::exception& e) {
    throw Error(std::string("reference: ") + e.what());
  }
}

void ReferenceResolver::compute(Slot& slot, double cube_mm, double height_mm,
                                std::uint64_t key,
                                const std::string& name) const {
  const std::string phase = "reference/" + name;
  const obs::Span span(phase, "fleet");
  const auto t0 = std::chrono::steady_clock::now();
  Reference& ref = slot.ref;
  const host::CubeSpec cube{.size_x_mm = cube_mm,
                            .size_y_mm = cube_mm,
                            .height_mm = height_mm,
                            .center_x_mm = 110.0,
                            .center_y_mm = 100.0};
  ref.program = host::slice_cube(cube, options_.profile);
  ref.oracle = analyze::analyze_program(ref.program, fw::Config{}).oracle;

  // A checkpoint seed or a cache hit replaces the golden print entirely;
  // the slice and oracle above are cheap and always recomputed.
  std::optional<RefEntry> golden = std::move(slot.seeded);
  if (!golden && cache_) golden = cache_->get(key);
  if (golden) {
    static_cast<RefEntry&>(ref) = std::move(*golden);
  } else {
    print_golden(ref, key, phase);
  }
  ref.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void ReferenceResolver::print_golden(Reference& ref, std::uint64_t key,
                                     const std::string& phase) const {
#if OFFRAMPS_OBS_ENABLED
  if (obs::enabled()) {
    obs::Registry::instance().counter("svc.ref.simulations").add(1);
  }
#endif
  const Supervisor supervisor(options_.supervisor);
  RefEntry golden;
  ref.guard = supervisor.run_guarded(key, [&](const AttemptContext& ctx) {
    host::RigOptions ro;
    ro.firmware.jitter_seed = options_.reference_seed;
    // Degraded attempt: count channels only, no probes.
    attach_probes(ro,
                  ctx.degraded ? options_.channels.counts_only()
                               : options_.channels,
                  options_.reference_seed);
    host::Rig rig(ro);
    std::uint64_t txns = 0;
    rig.board().fpga().uart().on_transaction(
        [&txns](const core::Transaction&) { ++txns; });
    StallWatchdog dog(
        rig.scheduler(), options_.supervisor, [&txns] { return txns; },
        [&rig] { return rig.firmware().state() == fw::FwState::kRunning; },
        phase);
    host::RunResult res = rig.run(ref.program);
    if (!res.finished) {
      throw Error("fleet: reference print did not finish");
    }
    golden = RefEntry{std::move(res.capture), std::move(res.power_trace),
                      std::move(res.acoustic_trace),
                      std::move(res.vibration_trace)};
  });
  if (ref.guard.status == RigStatus::kLost) return;
  static_cast<RefEntry&>(ref) = std::move(golden);
  // Persist only full-fidelity references: a degraded attempt ran
  // without its probes, and caching empty side-channel traces would
  // silently disarm those channels for every future campaign that hits
  // this key.
  if (cache_ && ref.guard.status != RigStatus::kDegraded) {
    cache_->put(key, ref);
  }
}

}  // namespace offramps::svc
