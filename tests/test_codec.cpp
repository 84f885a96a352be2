// sim/codec: the one little-endian codec behind the capture, session,
// checkpoint and reference-cache formats - its writer/reader pair, the
// bounded-read rules, FNV-1a, JSON escaping and atomic file writes - and
// the checked-in seed file of every format, pinned as a compatibility
// fixture: each decodes cleanly, re-encodes to identical bytes, and is
// rejected when cut at any byte, when a length prefix lies, and when
// bytes trail the last field.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/session_wire.hpp"
#include "sim/codec.hpp"
#include "sim/error.hpp"
#include "svc/checkpoint.hpp"
#include "svc/json.hpp"
#include "svc/ref_cache.hpp"

namespace {

namespace codec = offramps::codec;
namespace fs = std::filesystem;
namespace wire = offramps::core::wire;
using offramps::Error;
using offramps::core::Capture;
using offramps::svc::Checkpoint;
using offramps::svc::RefCache;
using Bytes = std::vector<std::uint8_t>;

// ---- codec primitives ------------------------------------------------

TEST(Codec, WriterIsLittleEndian) {
  Bytes out;
  codec::Writer w(out);
  w.u8(0xAB);
  w.u16(0x0102);
  w.u32(0x03040506);
  w.u64(0x0708090A0B0C0D0Eull);
  w.str("hi");
  const Bytes want = {0xAB, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E,
                      0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07, 0x02,
                      0x00, 0x00, 0x00, 'h',  'i'};
  EXPECT_EQ(out, want);
}

TEST(Codec, ReaderRoundTripsEveryField) {
  Bytes out;
  codec::Writer w(out);
  w.u8(7);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-2.5e-300);
  w.str("label");
  w.bytes("xyz", 3);

  codec::Reader r(out.data(), out.size(), "test");
  EXPECT_EQ(r.u8("a"), 7u);
  EXPECT_EQ(r.u16("b"), 0xBEEFu);
  EXPECT_EQ(r.u32("c"), 0xDEADBEEFu);
  EXPECT_EQ(r.u64("d"), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64("e"), -42);
  EXPECT_EQ(r.f64("f"), -2.5e-300);
  EXPECT_EQ(r.str("g"), "label");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(r.bytes(3, "h")), 3),
            "xyz");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(codec::load_u16(out.data() + 1), 0xBEEFu);
  EXPECT_EQ(codec::load_u32(out.data() + 3), 0xDEADBEEFu);
  EXPECT_EQ(codec::load_u64(out.data() + 7), 0x0123456789ABCDEFull);
  EXPECT_EQ(codec::load_f64(out.data() + 23), -2.5e-300);
}

TEST(Codec, TruncationNamesFormatAndField) {
  const Bytes three = {1, 2, 3};
  codec::Reader r(three.data(), three.size(), "OFXX");
  try {
    (void)r.u32("widget count");
    FAIL() << "a 3-byte input cannot hold a u32";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "OFXX: truncated input reading widget count");
  }
  // A failed read consumes nothing.
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_THROW((void)r.bytes(4, "blob"), Error);
  EXPECT_THROW((void)r.bytes(std::numeric_limits<std::uint64_t>::max(),
                             "blob"),
               Error);
}

TEST(Codec, CountRejectsLyingLengthBeforeAllocation) {
  const Bytes sixteen(16, 0);
  const codec::Reader r(sixteen.data(), sixteen.size(), "test");
  EXPECT_EQ(r.count(0, 8, "records"), 0u);
  EXPECT_EQ(r.count(2, 8, "records"), 2u);
  EXPECT_THROW((void)r.count(3, 8, "records"), Error);
  EXPECT_THROW(
      (void)r.count(std::numeric_limits<std::uint64_t>::max(), 1, "records"),
      Error);
}

TEST(Codec, ExpectEndRejectsTrailingBytes) {
  const Bytes five = {1, 0, 0, 0, 9};
  codec::Reader r(five.data(), five.size(), "test");
  EXPECT_EQ(r.u32("value"), 1u);
  EXPECT_THROW(r.expect_end(), Error);
  (void)r.u8("last");
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Codec, StrRejectsLengthOverCap) {
  Bytes out;
  codec::Writer(out).str("twelve bytes");
  codec::Reader capped(out.data(), out.size(), "test");
  EXPECT_THROW((void)capped.str("name", 11), Error);
  codec::Reader fits(out.data(), out.size(), "test");
  EXPECT_EQ(fits.str("name", 12), "twelve bytes");
}

TEST(Codec, Fnv1aPinsTheRepositoryDigests) {
  // The offset basis is the repository's historical 1469598103934665603
  // (the published FNV-1a basis has one more digit); cache file names and
  // checkpoint digests on disk depend on it, so these values are pinned.
  codec::Fnv1a empty;
  EXPECT_EQ(empty.digest(), 1469598103934665603ull);
  codec::Fnv1a a;
  a.bytes("a", 1);
  EXPECT_EQ(a.digest(), 4953267810257967366ull);
  codec::Fnv1a foobar;
  foobar.bytes("foobar", 6);
  EXPECT_EQ(foobar.digest(), 9870438755804841970ull);

  // Integers hash as explicit little-endian bytes; strings carry their
  // u64 length first.
  const std::uint8_t le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  codec::Fnv1a by_bytes;
  by_bytes.bytes(le, sizeof(le));
  codec::Fnv1a by_u64;
  by_u64.u64(0x0102030405060708ull);
  EXPECT_EQ(by_u64.digest(), by_bytes.digest());
  codec::Fnv1a by_str;
  by_str.str("ab");
  codec::Fnv1a by_parts;
  by_parts.u64(2);
  by_parts.bytes("ab", 2);
  EXPECT_EQ(by_str.digest(), by_parts.digest());
}

TEST(Codec, JsonEscapeRoundTripsThroughParser) {
  std::string every;
  for (int c = 1; c < 0x80; ++c) every += static_cast<char>(c);
  every += "\"\\\"";
  const std::string doc = "\"" + codec::json_escape(every) + "\"";
  EXPECT_EQ(offramps::svc::json::parse(doc).string, every);
  EXPECT_EQ(codec::json_escape("a\"b\\c\nd\te\x01"),
            "a\\\"b\\\\c\\nd\\te\\u0001");
  EXPECT_EQ(codec::json_escape("plain rig-7"), "plain rig-7");
}

std::vector<std::string> tmp_files_in(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& f : fs::directory_iterator(dir)) {
    if (f.path().extension() == ".tmp") names.push_back(f.path().string());
  }
  return names;
}

Bytes read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

TEST(Codec, AtomicWriteFileReplacesWholeFileAndLeavesNoTemp) {
  const fs::path dir = fs::path(::testing::TempDir()) / "codec_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "out.bin";
  codec::atomic_write_file(path.string(), Bytes(4096, 0xAA));
  codec::atomic_write_file(path.string(), Bytes{1, 2, 3});
  EXPECT_EQ(read_file(path), (Bytes{1, 2, 3}));
  EXPECT_TRUE(tmp_files_in(dir).empty());
  fs::remove_all(dir);
}

TEST(Codec, AtomicWriteFileFailureThrowsAndLeavesNoTemp) {
  const fs::path dir = fs::path(::testing::TempDir()) / "codec_atomic_fail";
  fs::remove_all(dir);
  fs::create_directories(dir / "occupied");
  // Renaming a file over a non-empty directory fails after the temp file
  // was written: the temp must be cleaned up.
  std::ofstream(dir / "occupied" / "keep") << "x";
  EXPECT_THROW(codec::atomic_write_file((dir / "occupied").string(), {1}),
               Error);
  EXPECT_TRUE(tmp_files_in(dir).empty());
  EXPECT_THROW(codec::atomic_write_file((dir / "missing" / "f").string(), {1}),
               Error);
  fs::remove_all(dir);
}

// ---- seed files as compatibility fixtures ----------------------------

enum class Format { kCapture, kCheckpoint, kRefCache, kSession };

struct Seed {
  const char* name;
  const char* file;  // under tests/fuzz_corpus/
  Format format;
};

const Seed kSeeds[] = {
    {"capture_small", "capture/seed_small.bin", Format::kCapture},
    {"capture_empty", "capture/seed_empty.bin", Format::kCapture},
    {"checkpoint", "checkpoint/seed_checkpoint.bin", Format::kCheckpoint},
    {"refcache_entry", "refcache/seed_entry.ref", Format::kRefCache},
    {"session", "session/seed_session.ofs", Format::kSession},
};

void PrintTo(const Seed& seed, std::ostream* os) { *os << seed.file; }

/// The key fuzz_ref_cache validates entries against: the reference of an
/// 8x8x3 mm cube at the default profile, seed 42, steps channel only.
std::uint64_t refcache_key() {
  return offramps::svc::reference_digest(8.0, 3.0,
                                         offramps::host::SliceProfile{}, 42,
                                         offramps::svc::ChannelSet{});
}

void reencode_frame(Bytes& out, const wire::Frame& f) {
  switch (f.type) {
    case wire::FrameType::kHello: wire::append_hello(out, f.hello); break;
    case wire::FrameType::kTxn: wire::append_txn(out, f.txn); break;
    case wire::FrameType::kPower:
      wire::append_power(out, f.power_t_s, f.power_watts);
      break;
    case wire::FrameType::kSample:
      wire::append_sample(out, f.sample_kind, f.sample_t_s, f.sample_value);
      break;
    case wire::FrameType::kSlot: wire::append_slot(out); break;
    case wire::FrameType::kFinish:
      wire::append_finish(out, Capture::from_binary(f.finish));
      break;
    case wire::FrameType::kEnd: wire::append_end(out, f.end); break;
  }
}

/// Decodes one session stream and re-encodes its frames.  Throws when
/// the reader fails, needs a resync or drops a transaction.  `consumed`
/// receives how many bytes the stream took.
Bytes reencode_session(const std::uint8_t* data, std::size_t size,
                       std::size_t& consumed) {
  Bytes out;
  wire::append_stream_header(out);
  wire::FrameReader reader;
  consumed = reader.feed(data, size,
                         [&](const wire::Frame& f) { reencode_frame(out, f); });
  reader.close();
  if (reader.failed()) throw Error("session: " + reader.error());
  if (reader.resyncs() != 0 || reader.corrupt_txns() != 0) {
    throw Error("session: damaged frames");
  }
  return out;
}

/// Decodes `size` bytes as `format` and re-encodes the result.  Throws
/// offramps::Error when the decoder rejects the input.
Bytes decode_reencode(Format format, const std::uint8_t* data,
                      std::size_t size) {
  switch (format) {
    case Format::kCapture:
      return Capture::from_binary(data, size).to_binary();
    case Format::kCheckpoint:
      return Checkpoint::from_binary(data, size).to_binary();
    case Format::kRefCache:
      return RefCache::encode_entry(
          refcache_key(), RefCache::decode_entry(data, size, refcache_key()));
    case Format::kSession: {
      std::size_t consumed = 0;
      return reencode_session(data, size, consumed);
    }
  }
  return {};
}

void patch_le(Bytes& bytes, std::size_t offset, std::size_t width,
              std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes.at(offset + i) = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

class SeedFixture : public ::testing::TestWithParam<Seed> {
 protected:
  void SetUp() override {
    bytes_ = read_file(fs::path(OFFRAMPS_FUZZ_CORPUS_DIR) / GetParam().file);
    ASSERT_FALSE(bytes_.empty()) << "missing seed " << GetParam().file;
  }
  Bytes decode(const Bytes& b) const {
    return decode_reencode(GetParam().format, b.data(), b.size());
  }

  Bytes bytes_;
};

TEST_P(SeedFixture, DecodesAndReencodesToIdenticalBytes) {
  Bytes again;
  ASSERT_NO_THROW(again = decode(bytes_));
  EXPECT_TRUE(again == bytes_)
      << "re-encoding changed the bytes (" << again.size() << " vs "
      << bytes_.size() << ")";
}

TEST_P(SeedFixture, RejectsEveryTruncation) {
  std::size_t accepted = 0;
  std::size_t first_accepted = 0;
  for (std::size_t cut = 0; cut < bytes_.size(); ++cut) {
    try {
      (void)decode_reencode(GetParam().format, bytes_.data(), cut);
      if (accepted++ == 0) first_accepted = cut;
    } catch (const Error&) {
    }
  }
  EXPECT_EQ(accepted, 0u) << "first accepted cut: " << first_accepted
                          << " of " << bytes_.size();
}

TEST_P(SeedFixture, RejectsLyingLength) {
  Bytes lying = bytes_;
  switch (GetParam().format) {
    case Format::kCapture:  // transaction count, after the label
      patch_le(lying, 12 + codec::load_u32(lying.data() + 8), 8,
               std::numeric_limits<std::uint64_t>::max() / 2);
      break;
    case Format::kCheckpoint:  // reference count
      patch_le(lying, 20, 4, 0x7fffffff);
      break;
    case Format::kRefCache:  // golden capture blob length
      patch_le(lying, 16, 8, std::numeric_limits<std::uint64_t>::max());
      break;
    case Format::kSession:  // the hello frame's rig-name length
      ASSERT_EQ(lying.at(8 + 2),
                static_cast<std::uint8_t>(wire::FrameType::kHello));
      patch_le(lying, 8 + wire::kFrameHeaderSize + 28, 4, 0xffffffff);
      break;
  }
  EXPECT_THROW((void)decode(lying), Error);
}

TEST_P(SeedFixture, RejectsTrailingGarbage) {
  Bytes padded = bytes_;
  padded.push_back(0x00);
  padded.push_back(0xA7);
  if (GetParam().format != Format::kSession) {
    EXPECT_THROW((void)decode(padded), Error);
    return;
  }
  // A session ends at its kEnd frame; what follows belongs to the next
  // stream on the pipe and is never consumed into this one.
  std::size_t consumed = 0;
  Bytes again;
  ASSERT_NO_THROW(again = reencode_session(padded.data(), padded.size(),
                                           consumed));
  EXPECT_EQ(consumed, bytes_.size());
  EXPECT_TRUE(again == bytes_);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SeedFixture, ::testing::ValuesIn(kSeeds),
    [](const ::testing::TestParamInfo<Seed>& p) {
      return std::string(p.param.name);
    });

}  // namespace
