#include "svc/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "svc/online_detector.hpp"

namespace offramps::svc {

const char* channel_name(Channel c) {
  // Exhaustive by construction: -Werror=switch flags a new Channel value
  // the moment it is added without a name.
  switch (c) {
    case Channel::kNone: return "none";
    case Channel::kGoldenCompare: return "golden-compare";
    case Channel::kStreamLength: return "stream-length";
    case Channel::kGoldenFree: return "golden-free";
    case Channel::kPower: return "power";
    case Channel::kFinalCounts: return "final-counts";
    case Channel::kStaticOracle: return "static-oracle";
    case Channel::kAcoustic: return "acoustic";
    case Channel::kVibration: return "vibration";
  }
  return "?";
}

Channel channel_from_name(std::string_view name) {
  for (std::uint8_t v = 0; v < kChannelCount; ++v) {
    const auto c = static_cast<Channel>(v);
    if (name == channel_name(c)) return c;
  }
  return Channel::kNone;
}

std::string ChannelSet::to_string() const {
  std::string out;
  const auto append = [&out](const char* group) {
    if (!out.empty()) out += ',';
    out += group;
  };
  if (steps) append("steps");
  if (power) append("power");
  if (acoustic) append("acoustic");
  if (vibration) append("vibration");
  if (out.empty()) out = "none";
  return out;
}

ChannelSet ChannelSet::parse(const std::string& text) {
  ChannelSet set{false, false, false, false};
  std::size_t pos = 0;
  bool any = false;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (token == "steps") {
      set.steps = true;
    } else if (token == "power") {
      set.power = true;
    } else if (token == "acoustic") {
      set.acoustic = true;
    } else if (token == "vibration") {
      set.vibration = true;
    } else if (token == "all") {
      set = ChannelSet{};
    } else {
      throw std::runtime_error("unknown channel group '" + token +
                               "' (want steps|power|acoustic|vibration|all)");
    }
    any = true;
    if (comma == text.size()) break;
  }
  if (!any || set == ChannelSet{false, false, false, false}) {
    throw std::runtime_error("empty channel set");
  }
  return set;
}

const ChannelTrip* pick_first_trip(const std::vector<ChannelTrip>& trips) {
  const ChannelTrip* best = nullptr;
  for (const ChannelTrip& trip : trips) {
    // Strictly-earlier window wins; an equal window keeps the earlier
    // trip (delivery order = channel fusion order).
    if (best == nullptr || trip.window < best->window) best = &trip;
  }
  return best;
}

namespace {

// ---------------------------------------------------------------------
// Shared windowed side-channel streaming (the online equivalent of
// detect::compare_side / verify_signature): accumulate per-window means
// against a golden window series, mismatch over tolerance, sustained
// mismatches trip.  Empty windows (sampling gaps) repeat the previous
// mean, mirroring detect::window_means so the online channel sees the
// same series the offline compare would.
class WindowStream {
 public:
  void arm(std::vector<double> golden, double window_s, double tolerance,
           std::uint32_t consecutive_to_flag, std::uint32_t skip_edge) {
    golden_ = std::move(golden);
    window_s_ = window_s;
    tolerance_ = tolerance;
    consecutive_to_flag_ = consecutive_to_flag;
    skip_edge_ = skip_edge;
  }

  [[nodiscard]] bool armed() const { return !golden_.empty(); }

  /// Feeds one sample.  Returns true when a window closed over the
  /// consecutive-mismatch threshold (a trip).
  bool push(double t_s, double value) {
    if (golden_.empty() || window_s_ <= 0.0) return false;
    if (!have_t0_) {
      have_t0_ = true;
      t0_ = t_s;
    }
    const auto w = static_cast<std::size_t>((t_s - t0_) / window_s_);
    bool tripped = false;
    while (window_ < w) tripped = close_window() || tripped;
    sum_ += value;
    ++n_;
    return tripped;
  }

  struct Mismatch {
    std::size_t window = 0;
    double golden = 0.0;
    double observed = 0.0;
  };

  [[nodiscard]] const std::vector<Mismatch>& mismatches() const {
    return mismatches_;
  }
  [[nodiscard]] std::size_t windows_compared() const {
    return windows_compared_;
  }
  [[nodiscard]] double largest_delta() const { return largest_delta_; }
  [[nodiscard]] bool flagged() const { return flagged_; }

 private:
  bool close_window() {
    const double mean =
        n_ > 0 ? sum_ / static_cast<double>(n_) : last_mean_;
    last_mean_ = mean;
    const std::size_t idx = window_;
    ++window_;
    sum_ = 0.0;
    n_ = 0;

    if (idx >= golden_.size()) return false;
    ++windows_compared_;
    // Leading edge windows (heat-up / homing transients) are skipped
    // just like the offline comparison; the trailing edge skip falls
    // out of finish() never closing the last partial windows.
    if (idx < skip_edge_) return false;
    const double golden_v = golden_[idx];
    const double delta = std::abs(golden_v - mean);
    largest_delta_ = std::max(largest_delta_, delta);
    if (delta > tolerance_) {
      mismatches_.push_back({idx, golden_v, mean});
      ++consecutive_;
      if (consecutive_ >= consecutive_to_flag_) {
        flagged_ = true;
        return true;
      }
    } else {
      consecutive_ = 0;
    }
    return false;
  }

  std::vector<double> golden_;
  double window_s_ = 1.0;
  double tolerance_ = 0.0;
  std::uint32_t consecutive_to_flag_ = 3;
  std::uint32_t skip_edge_ = 2;

  std::size_t window_ = 0;  // index of the window being filled
  double t0_ = 0.0;
  bool have_t0_ = false;
  double sum_ = 0.0;
  std::size_t n_ = 0;
  double last_mean_ = 0.0;
  std::uint32_t consecutive_ = 0;

  std::vector<Mismatch> mismatches_;
  std::size_t windows_compared_ = 0;
  double largest_delta_ = 0.0;
  bool flagged_ = false;
};

/// Common verdict bookkeeping: arm state plus first-trip capture.
class BuiltinChannel : public DetectionChannel {
 public:
  explicit BuiltinChannel(const ChannelInfo& info) : info_(info) {}

  [[nodiscard]] ChannelInfo info() const override { return info_; }

 protected:
  void set_armed(bool armed) { verdict_.armed = armed; }
  [[nodiscard]] bool armed() const { return verdict_.armed; }

  void record_trip(std::uint32_t window, std::uint64_t tick_ns,
                   const std::array<std::int32_t, 4>& counts,
                   std::vector<ChannelTrip>& trips) {
    if (!verdict_.tripped) {
      verdict_.tripped = true;
      verdict_.trip_window = window;
    }
    trips.push_back({info().id, window, tick_ns, counts});
  }

  /// Finalizes counts and appends the attribution row.
  void push_verdict(OnlineReport& report, std::uint64_t windows_compared,
                    std::uint64_t mismatches) const {
    ChannelVerdict v = verdict_;
    v.channel = info().id;
    v.windows_compared = windows_compared;
    v.mismatches = mismatches;
    report.channels.push_back(v);
  }

 private:
  ChannelInfo info_;
  ChannelVerdict verdict_{};
};

// ---------------------------------------------------------------------
// Builtin channels, in the legacy fusion priority order.

/// Windowed step-count compare against the golden capture (the paper's
/// section V-C method, via detect::compare_transaction).
class GoldenCompareChannel final : public BuiltinChannel {
 public:
  GoldenCompareChannel(const ChannelInfo& info,
                       const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        compare_(options.compare),
        consecutive_to_alarm_(options.consecutive_to_alarm) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr) return;
    if (txn.index >= golden_->transactions.size()) return;
    ++compared_;
    const bool bad = detect::compare_transaction(
        golden_->transactions[txn.index], txn, compare_, mismatches_);
    consecutive_ = bad ? consecutive_ + 1 : 0;
    if (consecutive_ >= consecutive_to_alarm_) {
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    report.compare_mismatches = mismatches_.size();
    push_verdict(report, compared_, mismatches_.size());
  }

 private:
  detect::CompareOptions compare_;
  std::uint32_t consecutive_to_alarm_;
  const core::Capture* golden_ = nullptr;
  std::uint32_t consecutive_ = 0;
  std::vector<detect::Mismatch> mismatches_;
  std::uint64_t compared_ = 0;
};

/// Sustained stream overrun past the golden length (print-lengthening
/// Trojans).  Tolerates the compare length tolerance plus a fixed slack
/// (time noise stretches prints slightly).
class StreamLengthChannel final : public BuiltinChannel {
 public:
  StreamLengthChannel(const ChannelInfo& info,
                      const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        length_tolerance_(options.compare.length_tolerance),
        slack_windows_(options.length_slack_windows) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr) return;
    const std::size_t golden_len = golden_->transactions.size();
    if (txn.index < golden_len) return;
    ++overrun_windows_;
    const double allowed =
        static_cast<double>(golden_len) * length_tolerance_ +
        static_cast<double>(slack_windows_);
    const auto over = static_cast<double>(txn.index - golden_len + 1);
    if (over > allowed) {
      ++beyond_allowed_;
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    push_verdict(report, overrun_windows_, beyond_allowed_);
  }

 private:
  double length_tolerance_;
  std::uint32_t slack_windows_;
  const core::Capture* golden_ = nullptr;
  std::uint64_t overrun_windows_ = 0;
  std::uint64_t beyond_allowed_ = 0;
};

/// Physical-plausibility rules (no reference needed).
class GoldenFreeChannel final : public BuiltinChannel {
 public:
  GoldenFreeChannel(const ChannelInfo& info,
                    const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        golden_free_(options.machine),
        min_violations_(options.golden_free_min_violations) {
    set_armed(true);  // reference-free: always able to judge
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    ++windows_;
    golden_free_.push(txn);
    if (golden_free_.violation_count() >= min_violations_) {
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    report.golden_free = golden_free_.report(min_violations_);
    push_verdict(report, windows_, golden_free_.violation_count());
  }

 private:
  detect::StreamingGoldenFree golden_free_;
  std::size_t min_violations_;
  std::uint64_t windows_ = 0;
};

/// Per-window mean-power compare against a golden power trace (the
/// side-channel baseline class).
class PowerChannel final : public BuiltinChannel {
 public:
  PowerChannel(const ChannelInfo& info,
               const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        options_(options.power) {}

  void arm(const ChannelRefs& refs) override {
    if (refs.golden_power != nullptr) {
      stream_.arm(detect::window_means(*refs.golden_power, options_.window_s),
                  options_.window_s, options_.tolerance_w,
                  options_.consecutive_to_flag, options_.skip_edge_windows);
    }
    set_armed(stream_.armed());
  }

  void on_sample(SampleKind kind, double t_s, double value,
                 const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (kind != SampleKind::kPower) return;
    if (stream_.push(t_s, value)) {
      record_trip(stream_window(ctx), ctx.last_tick_ns, ctx.last_counts,
                  trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    detect::PowerReport& p = report.power;
    p.windows_compared = stream_.windows_compared();
    p.largest_delta_w = stream_.largest_delta();
    p.sabotage_likely = stream_.flagged();
    p.mismatches.clear();
    for (const auto& m : stream_.mismatches()) {
      p.mismatches.push_back({m.window, m.golden, m.observed});
    }
    push_verdict(report, stream_.windows_compared(),
                 stream_.mismatches().size());
  }

 private:
  /// Side-channel trips are attributed to the latest drained transaction
  /// window (the stream position the operator can act on).
  static std::uint32_t stream_window(const StreamContext& ctx) {
    return static_cast<std::uint32_t>(
        ctx.windows_processed == 0 ? 0 : ctx.windows_processed - 1);
  }

  detect::PowerSignatureOptions options_;
  WindowStream stream_;
};

/// Acoustic master-signature verification (audio signing): the golden
/// recording is distilled into a MasterSignature and the live recording
/// is verified window-by-window against its levels.
class AcousticChannel final : public BuiltinChannel {
 public:
  AcousticChannel(const ChannelInfo& info,
                  const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        options_(options.acoustic) {}

  void arm(const ChannelRefs& refs) override {
    if (refs.golden_acoustic != nullptr) {
      signature_ =
          detect::make_master_signature(*refs.golden_acoustic,
                                        options_.window_s);
      stream_.arm(signature_.levels, signature_.window_s, options_.tolerance,
                  options_.consecutive_to_flag, options_.skip_edge_windows);
    }
    set_armed(stream_.armed());
  }

  void on_sample(SampleKind kind, double t_s, double value,
                 const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (kind != SampleKind::kAcoustic) return;
    if (stream_.push(t_s, value)) {
      record_trip(stream_window(ctx), ctx.last_tick_ns, ctx.last_counts,
                  trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    fill_side_report(report.acoustic, stream_);
    push_verdict(report, stream_.windows_compared(),
                 stream_.mismatches().size());
  }

  static void fill_side_report(detect::SideReport& r,
                               const WindowStream& stream) {
    r.windows_compared = stream.windows_compared();
    r.largest_delta = stream.largest_delta();
    r.sabotage_likely = stream.flagged();
    r.mismatches.clear();
    for (const auto& m : stream.mismatches()) {
      r.mismatches.push_back({m.window, m.golden, m.observed});
    }
  }

  static std::uint32_t stream_window(const StreamContext& ctx) {
    return static_cast<std::uint32_t>(
        ctx.windows_processed == 0 ? 0 : ctx.windows_processed - 1);
  }

 private:
  detect::SideSignatureOptions options_;
  detect::MasterSignature signature_;
  WindowStream stream_;
};

/// Vibration-signature compare against the golden vibration trace.
class VibrationChannel final : public BuiltinChannel {
 public:
  VibrationChannel(const ChannelInfo& info,
                   const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        options_(options.vibration) {}

  void arm(const ChannelRefs& refs) override {
    if (refs.golden_vibration != nullptr) {
      stream_.arm(
          detect::window_means(*refs.golden_vibration, options_.window_s),
          options_.window_s, options_.tolerance,
          options_.consecutive_to_flag, options_.skip_edge_windows);
    }
    set_armed(stream_.armed());
  }

  void on_sample(SampleKind kind, double t_s, double value,
                 const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (kind != SampleKind::kVibration) return;
    if (stream_.push(t_s, value)) {
      record_trip(AcousticChannel::stream_window(ctx), ctx.last_tick_ns,
                  ctx.last_counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    AcousticChannel::fill_side_report(report.vibration, stream_);
    push_verdict(report, stream_.windows_compared(),
                 stream_.mismatches().size());
  }

 private:
  detect::SideSignatureOptions options_;
  WindowStream stream_;
};

/// The paper's exact (0% margin) end-of-print totals check.  Only
/// meaningful when both prints ran to completion - a capture cut short
/// by our own safe-stop has nothing comparable to freeze.
class FinalCountsChannel final : public BuiltinChannel {
 public:
  FinalCountsChannel(const ChannelInfo& info, const OnlineDetectorOptions&)
      : BuiltinChannel(info) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_finish(const core::Capture& capture, const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr || !capture.print_completed ||
        !golden_->print_completed) {
      return;
    }
    checked_ = true;
    match_ = capture.final_counts == golden_->final_counts;
    if (!match_) {
      record_trip(capture.transactions.empty()
                      ? 0
                      : capture.transactions.back().index,
                  ctx.last_tick_ns, ctx.last_counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    report.final_counts_match = match_;
    push_verdict(report, checked_ ? 1 : 0, match_ ? 0 : 1);
  }

 private:
  const core::Capture* golden_ = nullptr;
  bool checked_ = false;
  bool match_ = true;
};

/// Static-oracle cross-check (tight margin, no golden print needed).
class StaticOracleChannel final : public BuiltinChannel {
 public:
  StaticOracleChannel(const ChannelInfo& info,
                      const OnlineDetectorOptions& options)
      : BuiltinChannel(info),
        options_(options.static_check) {}

  void arm(const ChannelRefs& refs) override {
    oracle_ = refs.oracle;
    set_armed(oracle_ != nullptr);
  }

  void on_finish(const core::Capture& capture, const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (oracle_ == nullptr) return;
    ran_ = true;
    report_ = detect::static_check(*oracle_, capture, options_);
    if (report_.trojan_suspected && report_.print_completed &&
        report_.oracle_armed) {
      record_trip(capture.transactions.empty()
                      ? 0
                      : capture.transactions.back().index,
                  ctx.last_tick_ns, ctx.last_counts, trips);
    }
  }

  void fill_report(OnlineReport& report) const override {
    report.static_final = report_;
    push_verdict(report, ran_ ? 1 : 0, report_.trojan_suspected ? 1 : 0);
  }

 private:
  detect::StaticCheckOptions options_;
  const analyze::Oracle* oracle_ = nullptr;
  bool ran_ = false;
  detect::StaticCheckReport report_{};
};

std::unique_ptr<DetectionChannel> make_builtin(const ChannelInfo& info,
                                               const OnlineDetectorOptions& o) {
  switch (info.id) {
    case Channel::kGoldenCompare:
      return std::make_unique<GoldenCompareChannel>(info, o);
    case Channel::kStreamLength:
      return std::make_unique<StreamLengthChannel>(info, o);
    case Channel::kGoldenFree:
      if (!o.golden_free) return nullptr;
      return std::make_unique<GoldenFreeChannel>(info, o);
    case Channel::kPower: return std::make_unique<PowerChannel>(info, o);
    case Channel::kAcoustic:
      return std::make_unique<AcousticChannel>(info, o);
    case Channel::kVibration:
      return std::make_unique<VibrationChannel>(info, o);
    case Channel::kFinalCounts:
      if (!o.final_checks) return nullptr;
      return std::make_unique<FinalCountsChannel>(info, o);
    case Channel::kStaticOracle:
      if (!o.final_checks) return nullptr;
      return std::make_unique<StaticOracleChannel>(info, o);
    case Channel::kNone: break;
  }
  return nullptr;
}

}  // namespace

std::vector<std::unique_ptr<DetectionChannel>> make_channels(
    const ChannelSet& set, const OnlineDetectorOptions& options) {
  std::vector<std::unique_ptr<DetectionChannel>> out;
  for (const ChannelInfo& info : kBuiltinChannels) {
    bool enabled = false;
    switch (info.group) {
      case ChannelInfo::Group::kSteps: enabled = set.steps; break;
      case ChannelInfo::Group::kPower: enabled = set.power; break;
      case ChannelInfo::Group::kAcoustic: enabled = set.acoustic; break;
      case ChannelInfo::Group::kVibration: enabled = set.vibration; break;
    }
    if (!enabled) continue;
    auto channel = make_builtin(info, options);
    if (channel != nullptr) out.push_back(std::move(channel));
  }
  return out;
}

}  // namespace offramps::svc
