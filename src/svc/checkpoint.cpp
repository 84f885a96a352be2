#include "svc/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"

namespace offramps::svc {

namespace {

constexpr std::uint8_t kMagic[4] = {'O', 'F', 'C', 'K'};

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::uint8_t max, const char* what) {
  if (raw > max) {
    throw Error(std::string("checkpoint: out-of-range ") + what + " value " +
                std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

// ------------------------------------------------------- outcome records

void put_outcome(codec::Writer& w, const RigOutcome& r) {
  w.str(r.spec.name);
  w.u64(r.spec.seed);
  w.f64(r.spec.cube_mm);
  w.f64(r.spec.height_mm);
  w.u8(static_cast<std::uint8_t>(r.spec.sabotage.kind));
  w.f64(r.spec.sabotage.factor);
  w.u32(r.spec.sabotage.every_n);
  w.u8(static_cast<std::uint8_t>(r.spec.chaos.kind));
  w.u32(r.spec.chaos.fires_for);
  w.f64(r.spec.chaos.crash_at_s);
  w.u32(r.spec.chaos.after);

  w.u8(static_cast<std::uint8_t>(r.status));
  w.u32(r.attempts);
  w.str(r.failure_cause);

  w.u8(r.print_finished ? 1 : 0);
  w.u8(r.safe_stopped ? 1 : 0);
  w.str(r.kill_reason);
  w.f64(r.sim_seconds);
  for (const std::int64_t c : r.final_counts) w.i64(c);

  const OnlineReport& d = r.detector;
  w.u8(d.alarmed ? 1 : 0);
  w.u8(d.alarmed_mid_print ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(d.first_channel));
  w.u32(d.alarm_window);
  w.u64(d.alarm_tick_ns);
  w.u64(d.alarm_gcode_line);
  w.u64(d.windows_processed);
  w.u64(d.ring_high_water);
  w.u64(d.backpressure_stalls);
  w.u8(d.stream_finished ? 1 : 0);
  w.u64(d.compare_mismatches);
  // Nested channel reports are persisted as *counts*: to_json only ever
  // renders sizes of these vectors, so resume rebuilds them as
  // default-constructed entries of the right count and the report stays
  // byte for byte.
  w.u64(d.golden_free.violations.size());
  w.u64(d.power.windows_compared);
  w.u64(d.power.mismatches.size());
  w.u64(d.acoustic.windows_compared);
  w.u64(d.acoustic.mismatches.size());
  w.u64(d.vibration.windows_compared);
  w.u64(d.vibration.mismatches.size());
  w.u8(d.final_counts_match ? 1 : 0);
  w.u8(d.static_final.trojan_suspected ? 1 : 0);

  // Per-channel verdict rows: the report's attribution array renders
  // every field, so they are persisted whole, not as counts.
  w.u8(static_cast<std::uint8_t>(d.channels.size()));
  for (const ChannelVerdict& v : d.channels) {
    w.u8(static_cast<std::uint8_t>(v.channel));
    w.u8(v.armed ? 1 : 0);
    w.u8(v.tripped ? 1 : 0);
    w.u32(v.trip_window);
    w.u64(v.windows_compared);
    w.u64(v.mismatches);
  }
}

RigOutcome read_outcome(codec::Reader& r) {
  RigOutcome out;
  out.spec.name = r.str("rig name");
  out.spec.seed = r.u64("rig seed");
  out.spec.cube_mm = r.f64("rig cube_mm");
  out.spec.height_mm = r.f64("rig height_mm");
  out.spec.sabotage.kind = checked_enum<Sabotage::Kind>(
      r.u8("sabotage kind"), 2, "sabotage kind");
  out.spec.sabotage.factor = r.f64("sabotage factor");
  out.spec.sabotage.every_n = r.u32("sabotage every_n");
  out.spec.chaos.kind =
      checked_enum<host::ChaosKind>(r.u8("chaos kind"), 9, "chaos kind");
  out.spec.chaos.fires_for = r.u32("chaos fires_for");
  out.spec.chaos.crash_at_s = r.f64("chaos crash_at_s");
  out.spec.chaos.after = r.u32("chaos after");

  out.status = checked_enum<RigStatus>(r.u8("rig status"), 4, "rig status");
  out.attempts = r.u32("rig attempts");
  out.failure_cause = r.str("failure cause");

  out.print_finished = r.u8("print_finished") != 0;
  out.safe_stopped = r.u8("safe_stopped") != 0;
  out.kill_reason = r.str("kill reason");
  out.sim_seconds = r.f64("sim_seconds");
  for (std::int64_t& c : out.final_counts) c = r.i64("final counts");

  OnlineReport& d = out.detector;
  d.alarmed = r.u8("alarmed") != 0;
  d.alarmed_mid_print = r.u8("alarmed_mid_print") != 0;
  d.first_channel = checked_enum<Channel>(
      r.u8("alarm channel"), kChannelCount - 1, "alarm channel");
  d.alarm_window = r.u32("alarm_window");
  d.alarm_tick_ns = r.u64("alarm_tick_ns");
  d.alarm_gcode_line = static_cast<std::size_t>(r.u64("alarm_gcode_line"));
  d.windows_processed = static_cast<std::size_t>(r.u64("windows_processed"));
  d.ring_high_water = static_cast<std::size_t>(r.u64("ring_high_water"));
  d.backpressure_stalls = r.u64("backpressure_stalls");
  d.stream_finished = r.u8("stream_finished") != 0;
  d.compare_mismatches = static_cast<std::size_t>(r.u64("compare_mismatches"));
  const std::uint64_t gf = r.u64("golden-free violation count");
  const std::uint64_t pw = r.u64("power windows compared");
  const std::uint64_t pm = r.u64("power mismatch count");
  // Bound the resize the same way a capture bounds its transaction
  // count: a default-constructed violation costs tens of bytes, so cap
  // the claimed counts against the *entire* input size - a lying count
  // cannot out-allocate the file that carried it.
  const std::uint64_t aw = r.u64("acoustic windows compared");
  const std::uint64_t am = r.u64("acoustic mismatch count");
  const std::uint64_t vw = r.u64("vibration windows compared");
  const std::uint64_t vm = r.u64("vibration mismatch count");
  if (gf > r.size() || pm > r.size() || am > r.size() || vm > r.size()) {
    throw Error("checkpoint: nested report count exceeds input size");
  }
  d.golden_free.violations.resize(static_cast<std::size_t>(gf));
  d.power.windows_compared = static_cast<std::size_t>(pw);
  d.power.mismatches.resize(static_cast<std::size_t>(pm));
  d.acoustic.windows_compared = static_cast<std::size_t>(aw);
  d.acoustic.mismatches.resize(static_cast<std::size_t>(am));
  d.vibration.windows_compared = static_cast<std::size_t>(vw);
  d.vibration.mismatches.resize(static_cast<std::size_t>(vm));
  d.final_counts_match = r.u8("final_counts_match") != 0;
  d.static_final.trojan_suspected = r.u8("static_trojan_suspected") != 0;

  const std::uint8_t n_channels = r.u8("channel verdict count");
  if (n_channels > kChannelCount) {
    throw Error("checkpoint: channel verdict count exceeds channel space");
  }
  d.channels.resize(n_channels);
  for (ChannelVerdict& v : d.channels) {
    v.channel = checked_enum<Channel>(r.u8("verdict channel"),
                                      kChannelCount - 1, "verdict channel");
    v.armed = r.u8("verdict armed") != 0;
    v.tripped = r.u8("verdict tripped") != 0;
    v.trip_window = r.u32("verdict trip window");
    v.windows_compared = r.u64("verdict windows compared");
    v.mismatches = r.u64("verdict mismatches");
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> Checkpoint::to_binary() const {
  std::vector<std::uint8_t> out;
  out.reserve(1024);
  codec::Writer w(out);
  w.bytes(kMagic, sizeof(kMagic));
  w.u16(kVersion);
  w.u16(0);  // reserved
  w.u64(spec_digest);
  w.u32(total_rigs);
  w.u32(static_cast<std::uint32_t>(references.size()));
  for (const RefEntry& ref : references) encode_reference(w, ref);
  w.u32(static_cast<std::uint32_t>(done.size()));
  for (const auto& [index, outcome] : done) {
    w.u32(index);
    put_outcome(w, outcome);
  }
  return out;
}

Checkpoint Checkpoint::from_binary(const std::uint8_t* data,
                                   std::size_t size) {
  codec::Reader r(data, size, "checkpoint");
  if (std::memcmp(r.bytes(4, "magic"), kMagic, 4) != 0) {
    r.fail("bad magic (not an OFCK checkpoint)");
  }
  const std::uint16_t version = r.u16("version");
  if (version != kVersion) {
    r.fail("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kVersion) + ")");
  }
  (void)r.u16("reserved");

  Checkpoint ck;
  ck.spec_digest = r.u64("spec digest");
  ck.total_rigs = r.u32("total rigs");

  // A reference record is at least its four u64 length prefixes.
  const std::size_t n_refs =
      r.count(r.u32("reference count"), 32, "reference count");
  ck.references.reserve(n_refs);
  for (std::size_t i = 0; i < n_refs; ++i) {
    ck.references.push_back(decode_reference(r));
  }

  const std::uint32_t n_done = r.u32("completed rig count");
  if (n_done > ck.total_rigs) {
    r.fail("more completed rigs than the campaign has");
  }
  ck.done.reserve(n_done);
  for (std::uint32_t i = 0; i < n_done; ++i) {
    const std::uint32_t index = r.u32("rig index");
    if (index >= ck.total_rigs) {
      r.fail("completed rig index out of range");
    }
    ck.done.emplace_back(index, read_outcome(r));
  }
  r.expect_end();
  std::sort(ck.done.begin(), ck.done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ck;
}

void Checkpoint::save(const std::string& path) const {
  const obs::Span span("checkpoint/save", "fleet");
  const auto t0 = std::chrono::steady_clock::now();
  codec::atomic_write_file(path, to_binary());
#if OFFRAMPS_OBS_ENABLED
  if (obs::enabled()) {
    static obs::Counter& saves =
        obs::Registry::instance().counter("svc.checkpoint.saves");
    saves.add(1);
    static obs::Histogram& latency = obs::Registry::instance().histogram(
        "svc.checkpoint.save_latency_us", obs::latency_buckets_us());
    latency.observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
#endif
  (void)t0;
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return from_binary(bytes);
}

std::uint64_t campaign_digest(const std::vector<RigSpec>& specs,
                              const FleetOptions& options) {
  codec::Fnv1a f;
  f.str("offramps-campaign-v2");
  // Behavior-relevant options.  Workers, checkpoint paths, stop_after and
  // save_captures_dir are excluded: they never change the report bytes.
  f.u64(options.safe_stop ? 1 : 0);
  f.u64(options.use_oracle ? 1 : 0);
  f.u64(options.channels.steps ? 1 : 0);
  f.u64(options.channels.power ? 1 : 0);
  f.u64(options.channels.acoustic ? 1 : 0);
  f.u64(options.channels.vibration ? 1 : 0);
  f.u64(options.reference_seed);
  f.u64(options.detector.ring_capacity);
  f.u64(static_cast<std::uint64_t>(options.pump.period));
  f.u64(options.pump.windows_per_slot);
  f.u64(options.supervisor.max_attempts);
  f.u64(options.supervisor.degrade_channels ? 1 : 0);
  f.f64(options.supervisor.watchdog_period_s);
  f.f64(options.supervisor.stall_timeout_s);
  f.f64(options.supervisor.first_data_timeout_s);
  const host::SliceProfile& p = options.profile;
  f.f64(p.layer_height_mm);
  f.f64(p.line_width_mm);
  f.f64(p.filament_diameter_mm);
  f.f64(p.first_layer_speed_mm_s);
  f.f64(p.perimeter_speed_mm_s);
  f.f64(p.infill_speed_mm_s);
  f.f64(p.travel_speed_mm_s);
  f.f64(p.z_speed_mm_s);
  f.f64(p.retract_mm);
  f.f64(p.retract_speed_mm_s);
  f.f64(p.hotend_temp_c);
  f.f64(p.bed_temp_c);
  f.f64(p.fan_duty);
  f.u64(p.fan_from_layer);
  f.u64(static_cast<std::uint64_t>(p.perimeter_count));
  f.f64(p.infill_spacing_mm);
  f.f64(p.prime_e_mm);
  f.u64(static_cast<std::uint64_t>(p.skirt_loops));
  f.f64(p.skirt_gap_mm);

  f.u64(specs.size());
  for (const RigSpec& s : specs) {
    f.str(s.name);
    f.u64(s.seed);
    f.f64(s.cube_mm);
    f.f64(s.height_mm);
    f.str(s.sabotage.to_string());
    f.str(s.chaos.to_string());
  }
  return f.digest();
}

}  // namespace offramps::svc
