#include "sim/codec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sim/error.hpp"

namespace offramps::codec {

std::string Reader::str(const char* what, std::size_t max_len) {
  const std::uint32_t n = u32(what);
  if (n > max_len) {
    fail(std::string(what) + " length " + std::to_string(n) +
         " exceeds cap " + std::to_string(max_len));
  }
  const std::uint8_t* p = bytes(n, what);
  return std::string(reinterpret_cast<const char*>(p), n);
}

const std::uint8_t* Reader::bytes(std::uint64_t n, const char* what) {
  if (remaining() < n) truncated(what);
  const std::uint8_t* p = data_ + pos_;
  pos_ += static_cast<std::size_t>(n);
  return p;
}

std::size_t Reader::count(std::uint64_t n, std::size_t min_record_bytes,
                          const char* what) const {
  if (min_record_bytes != 0 && n > remaining() / min_record_bytes) {
    fail(std::string(what) + " " + std::to_string(n) +
         " exceeds the remaining input");
  }
  return static_cast<std::size_t>(n);
}

void Reader::expect_end() const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing bytes after the last field");
  }
}

void Reader::fail(const std::string& why) const {
  throw Error(std::string(format_) + ": " + why);
}

void Reader::truncated(const char* what) const {
  fail(std::string("truncated input reading ") + what);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Per-writer temp name (pid + process-wide sequence): two processes or
  // threads writing one path never truncate each other's temp file.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1)) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw Error("atomic_write_file: cannot open " + tmp + ": " +
                std::strerror(errno));
  }
  const auto give_up = [&](const char* step, int err) {
    ::unlink(tmp.c_str());
    throw Error(std::string("atomic_write_file: ") + step + " failed for " +
                tmp + ": " + std::strerror(err));
  };
  if (!write_all(fd, bytes) || ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    give_up("write", err);
  }
  if (::close(fd) != 0) give_up("close", errno);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) give_up("rename", errno);
}

}  // namespace offramps::codec
