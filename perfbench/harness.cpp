#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mib() {
  // VmHWM, not getrusage(): ru_maxrss carries over the high-water mark
  // of the process image that exec replaced (the launching interpreter).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double p90(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::max<std::size_t>((9 * v.size() + 9) / 10, 1);
  return v[rank - 1];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Metrics::to_json() const {
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out;
}

// ---- tracing ------------------------------------------------------------

namespace {

struct Store {
  std::mutex mu;
  std::atomic<bool> active{false};
  int pass = 0;
  std::chrono::steady_clock::time_point t0;
  std::vector<SpanRecord> spans;
};

Store& store() {
  static Store s;
  return s;
}

// Open spans of this thread, innermost last: the parent of a new span.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

void Tracer::start(int pass) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.spans.empty()) s.t0 = std::chrono::steady_clock::now();
  s.pass = pass;
  s.active = true;
}

void Tracer::stop() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.active = false;
}

std::vector<SpanRecord> Tracer::spans() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.spans;
}

bool Tracer::save(const std::string& path) {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& r = all[i];
    std::fprintf(f,
                 "  {\"span\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"id\": %llu, "
                 "\"units\": %llu, \"pass\": %d}%s\n",
                 i, r.name, r.start_s, r.end_s,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.units), r.pass,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t id) {
  Store& s = store();
  if (!s.active.load()) return;
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(s.mu);
  SpanRecord r;
  r.name = name;
  r.start_s = std::chrono::duration<double>(now - s.t0).count();
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.id = id;
  r.pass = s.pass;
  index_ = static_cast<std::int64_t>(s.spans.size());
  s.spans.push_back(r);
  t_open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  t_open.pop_back();
  Store& s = store();
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(s.mu);
  SpanRecord& r = s.spans[static_cast<std::size_t>(index_)];
  r.end_s = std::chrono::duration<double>(now - s.t0).count();
  r.units = units_;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans, int divided_pass, double divisor) {
  // Children of one span run on its thread and nest inside it, one after
  // another, so the part they cover is the sum of their durations.
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& r : spans) {
    if (r.parent >= 0) {
      covered[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.rfind('.'));
    double self = r.end_s - r.start_s - covered[i];
    if (r.pass == divided_pass && divisor > 0.0) self /= divisor;
    by_layer[layer] += self;
  }
  return by_layer;
}

}  // namespace perfbench
