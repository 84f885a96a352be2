// Content-addressed golden-reference cache.
//
// The fleet's reference phase is its single most expensive fixed cost:
// every campaign re-simulates one golden print per distinct object even
// though the result is a pure function of (object geometry, slicer
// profile, reference seed, power instrumentation).  This store memoizes
// that function on disk, keyed by an FNV-1a digest of exactly those
// inputs, so a farm daemon computes each reference once per content hash
// and serves it from cache on every later campaign, replay, or session.
//
// On-disk record (<dir>/<16-hex-digest>.ref, little endian, encoded with
// sim/codec.hpp):
//
//   "OFRF" magic, u16 version, u16 reserved, u64 key, reference record
//
// where the reference record (encode_reference, shared with the campaign
// checkpoint) is
//
//   u64 capture-blob length + Capture::to_binary bytes,
//   u64 power-sample count + per sample f64 t_s + f64 watts,
//   u64 acoustic-sample count + per sample f64 t_s + f64 value,
//   u64 vibration-sample count + per sample f64 t_s + f64 value
//
// The reader is bounded (every length prefix checked against the
// remaining input before allocation) and paranoid: trailing garbage, a
// version skew, or a key that disagrees with the filename all reject the
// entry, and a rejected or unreadable entry is deleted and treated as a
// miss - the caller recomputes, the cache never crashes a campaign.
// Writes go through codec::atomic_write_file (unique temp name, fsync,
// rename), so a half-written entry (crash, chaos kCacheTear) can never be
// read back as truth, and processes sharing one cache directory never
// write the same temp file; concurrent puts of one key each rename a
// whole entry, last wins.  An optional byte budget is enforced LRU by
// file mtime (get() refreshes an entry's mtime), evicting oldest-first
// but never the entry just written.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "host/slicer.hpp"
#include "plant/side_channel.hpp"
#include "sim/codec.hpp"
#include "svc/channel.hpp"

namespace offramps::svc {

/// Digest of every input the reference print is a function of: object
/// geometry, the full slicer profile, the reference jitter seed, and
/// which side-channel probes were attached (a power-only golden must
/// never silently disarm the acoustic channel of a campaign that wants
/// it - each channel flag is part of the key, so enabling a new channel
/// forces a recompute instead of serving a golden with no trace for it).
[[nodiscard]] std::uint64_t reference_digest(double cube_mm,
                                             double height_mm,
                                             const host::SliceProfile& profile,
                                             std::uint64_t reference_seed,
                                             const ChannelSet& channels);

struct RefCacheOptions {
  std::string dir;
  /// LRU byte budget; 0 = unbounded.
  std::uint64_t max_bytes = 0;
};

/// One golden reference: the capture plus its side-channel snapshots
/// (each trace empty when that probe was not attached).  Cache entries
/// and campaign checkpoints both persist it.
struct RefEntry {
  core::Capture golden;
  plant::PowerTrace golden_power;
  plant::SideTrace golden_acoustic;
  plant::SideTrace golden_vibration;
};

/// The reference record, shared by cache entries and checkpoints.
/// decode_reference throws offramps::Error (named by the reader's format)
/// on any malformation.
void encode_reference(codec::Writer& w, const RefEntry& ref);
[[nodiscard]] RefEntry decode_reference(codec::Reader& r);

class RefCache {
 public:
  static constexpr std::uint16_t kVersion = 2;

  /// Creates `options.dir` if needed.  Throws offramps::Error when the
  /// directory cannot be created.
  explicit RefCache(RefCacheOptions options);

  RefCache(const RefCache&) = delete;
  RefCache& operator=(const RefCache&) = delete;

  /// Cache lookup.  nullopt on miss or on a rejected (truncated,
  /// corrupt, version-skewed, mis-keyed) entry; rejected entries are
  /// deleted so they cannot poison later campaigns.  Thread-safe.
  [[nodiscard]] std::optional<RefEntry> get(std::uint64_t key);

  /// Inserts (or overwrites) an entry via codec::atomic_write_file, then
  /// enforces the LRU byte budget.  Thread-safe.
  void put(std::uint64_t key, const RefEntry& entry);

  /// Where `key` lives on disk.
  [[nodiscard]] std::string path_for(std::uint64_t key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Entries that existed but failed validation (subset of misses).
    std::uint64_t rejected = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Record codec, exposed for tests and the fuzz harness.  encode never
  /// fails; decode throws offramps::Error on any malformation, including
  /// a key that differs from `expect_key`.
  [[nodiscard]] static std::vector<std::uint8_t> encode_entry(
      std::uint64_t key, const RefEntry& entry);
  [[nodiscard]] static RefEntry decode_entry(const std::uint8_t* data,
                                             std::size_t size,
                                             std::uint64_t expect_key);

 private:
  void enforce_budget_locked();

  RefCacheOptions options_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace offramps::svc
