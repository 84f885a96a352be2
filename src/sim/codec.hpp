// The one little-endian binary codec behind every OFFRAMPS file and wire
// format: capture binaries ("OFRC"), the session wire ("OFSS"), campaign
// checkpoints ("OFCK") and reference-cache entries ("OFRF").
//
//   Writer       appends fixed-width little-endian fields to a byte vector
//   Reader       bounded cursor: every read checks the bytes left first,
//                count() rejects a length prefix the input cannot hold
//                before the caller allocates, expect_end() rejects
//                trailing bytes; failures throw offramps::Error
//                "<format>: truncated input reading <what>"
//   load_*       raw loads for fixed-size frames already bounds-checked
//                by their caller (the replay hot path)
//   Fnv1a        64-bit FNV-1a over explicit little-endian field bytes
//   json_escape  string escaping for the JSON reports
//   atomic_write_file  unique temp file + fsync + rename
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace offramps::codec {

// ---- raw little-endian loads -----------------------------------------

[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

[[nodiscard]] inline double load_f64(const std::uint8_t* p) {
  const std::uint64_t bits = load_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---- writer -----------------------------------------------------------

/// Appends little-endian fields to a caller-owned byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// u32 length prefix + bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  /// Raw bytes, no prefix.
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

// ---- reader -----------------------------------------------------------

/// Bounded little-endian cursor over untrusted bytes.  `what` names the
/// field in the error so a rejected file says where it broke.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size, const char* format)
      : data_(data), size_(size), format_(format) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n) truncated(what);
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return data_[pos_++];
  }
  std::uint16_t u16(const char* what) { return load<2>(load_u16, what); }
  std::uint32_t u32(const char* what) { return load<4>(load_u32, what); }
  std::uint64_t u64(const char* what) { return load<8>(load_u64, what); }
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  double f64(const char* what) { return load<8>(load_f64, what); }

  /// u32 length prefix + bytes; a length over `max_len` is rejected.
  std::string str(const char* what, std::size_t max_len =
                                        std::numeric_limits<std::size_t>::max());

  /// Consumes `n` raw bytes and returns where they start.
  const std::uint8_t* bytes(std::uint64_t n, const char* what);

  /// Validates an element count read from the input: `n` records of at
  /// least `min_record_bytes` each must fit in the bytes left.  Call it
  /// before reserving storage for them.
  std::size_t count(std::uint64_t n, std::size_t min_record_bytes,
                    const char* what) const;

  /// Rejects any bytes left after the last field.
  void expect_end() const;

  /// Throws offramps::Error("<format>: <why>").
  [[noreturn]] void fail(const std::string& why) const;

 private:
  template <std::size_t N, typename T>
  T load(T (*fn)(const std::uint8_t*), const char* what) {
    need(N, what);
    const T v = fn(data_ + pos_);
    pos_ += N;
    return v;
  }
  [[noreturn]] void truncated(const char* what) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* format_;
};

// ---- hashing ----------------------------------------------------------

/// FNV-1a 64, fed field by field.  Integers hash as their little-endian
/// bytes and doubles by bit pattern, so a digest is exact and the same on
/// every host.  The offset basis is the repository's historical
/// 1469598103934665603, not the published 14695981039346656037: cache
/// file names and checkpoint digests on disk are keyed by it.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFull;
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// u64 length + bytes.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ---- text and files ---------------------------------------------------

/// Escapes `s` for a JSON string body: `"` and `\`, `\n` and `\t` by
/// their short forms, every other control character as `\u00XX`.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Writes `bytes` to `path` so that no reader ever sees a partial file:
/// the bytes go to a temp file unique to this process and call
/// ("<path>.<pid>.<n>.tmp"), are fsynced, and the temp file is renamed
/// over `path`.  On any failure the temp file is removed and
/// offramps::Error is thrown.
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

}  // namespace offramps::codec
