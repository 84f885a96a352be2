// Shared pieces of the end-to-end benchmark: seeded input derivation,
// sample statistics, the metric table, and the span tracer the traced
// run records around every call it makes into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: derives every generated input (rig seeds, orderings) from
/// the workload seed, so one seed always yields the same inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

/// FNV-1a over bytes, folded into `h` (start with kFnvBasis).
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Host memory high-water mark of this process, in MiB.
double peak_rss_mib();

double median(std::vector<double> v);

/// p90 by nearest rank.  Untraced runs make at least 100 rigs, so ten
/// or more samples lie beyond it.  p99 also qualifies on replay_warm's
/// ~10^4 sessions, but there it varied by half between runs: host
/// scheduling hiccups rather than the program.
double p90(std::vector<double> v);

/// Ordered name -> (value, unit) table; renders the result line.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// The value set under `name`, 0 when none was.
  [[nodiscard]] double value(const std::string& name) const;
  /// `"name": {"value": v, "unit": "u"}, ...` with every digit kept.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// ---- tracing ------------------------------------------------------------

/// One recorded span.  `parent` is the index of the enclosing span on
/// the same thread (-1 for a root); `id` is shared by every span of one
/// rig, session or iteration; `units` is the work the call did (windows,
/// bytes) where that differs per call; `pass` is 1 for the traced
/// iterations and 2 for the layer pass.
struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
  std::uint64_t units = 0;
  int pass = 0;
};

/// Process-wide span store, kept in memory while tracing is on.
class Tracer {
 public:
  /// Starts recording; spans recorded afterwards carry `pass`.
  static void start(int pass);
  static void stop();
  [[nodiscard]] static std::vector<SpanRecord> spans();
  /// Writes every span as a JSON array; false when the file fails.
  static bool save(const std::string& path);
};

/// RAII span around one call.  Inert when tracing is off.
class Span {
 public:
  Span(const char* name, std::uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_units(std::uint64_t units) { units_ = units; }

 private:
  std::int64_t index_ = -1;
  std::uint64_t units_ = 0;
};

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover, summed by layer (the span name up to its last
/// '.').  Spans of pass `divided_pass` count `1 / divisor` each, which
/// turns the traced iterations into per-iteration figures.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans, int divided_pass, double divisor);

}  // namespace perfbench
