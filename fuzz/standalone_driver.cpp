// Standalone driver for the LLVMFuzzerTestOneInput targets.
//
// The harnesses use the libFuzzer entry-point ABI, but this repo must
// also fuzz where only GCC is installed (no libFuzzer runtime).  This
// driver fills that gap: linked against one target, it
//
//   * replays every corpus file/directory named on the command line
//     (the CI regression mode - a crash is an immediate nonzero exit),
//   * and with --time S additionally runs a deterministic mutation loop
//     for S seconds of wall time, seeded from the corpus:
//     splitmix64-driven byte flips, splices, truncations and insertions.
//     The PRNG seed is fixed (override with --seed N), so a given
//     (corpus, seed, time) budget explores a reproducible prefix of the
//     same input stream.
//
// When an input kills the process - a sanitizer report (the fuzz build
// uses -fno-sanitize-recover=all, so UBSan findings die too) or an
// uncaught exception - the input is written to
// "<progname>-last-input.bin" on the way down, so the offending bytes
// can be minimized into tests/fuzz_corpus/.  Nothing is written per
// input: the loop's speed does not depend on the disk.
//
// Under clang the same harness sources link against -fsanitize=fuzzer
// instead (see fuzz/CMakeLists.txt) and this file is not built.
#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

// Provided by the sanitizer runtimes; weak so the driver still links
// without one.
extern "C" void __sanitizer_set_death_callback(void (*callback)(void))
    __attribute__((weak));

namespace {

namespace fs = std::filesystem;

using Input = std::vector<std::uint8_t>;

/// splitmix64: tiny, seedable, good enough to drive mutations.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : next() % bound;
  }
};

Input read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  Input bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return bytes;
}

void collect(const fs::path& path, std::vector<Input>& corpus) {
  if (fs::is_directory(path)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    // Directory iteration order is filesystem-dependent; sort for the
    // deterministic replay/mutation stream the driver promises.
    std::sort(files.begin(), files.end());
    for (const auto& f : files) corpus.push_back(read_file(f));
    return;
  }
  corpus.push_back(read_file(path));
}

std::string g_last_input_path;
const Input* g_current = nullptr;  // the input being executed

/// Death hook: saves the input that is killing the process.  Plain POSIX
/// calls only, since it runs inside a sanitizer's failure path.
void save_current_input() {
  const Input* input = g_current;
  if (input == nullptr || g_last_input_path.empty()) return;
  const int fd = ::open(g_last_input_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  std::size_t done = 0;
  while (done < input->size()) {
    const ssize_t n = ::write(fd, input->data() + done, input->size() - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

/// Hooks save_current_input() into every sanitizer runtime's death path.
/// GCC links UBSan as a runtime of its own, with its own callback list,
/// beside ASan's; under clang one runtime serves both.
void register_death_callback() {
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(save_current_input);
  }
  using Setter = void (*)(void (*)(void));
  if (void* ubsan = ::dlopen("libubsan.so.1", RTLD_NOW | RTLD_NOLOAD)) {
    if (auto set = reinterpret_cast<Setter>(
            ::dlsym(ubsan, "__sanitizer_set_death_callback"))) {
      set(save_current_input);
    }
  }
}

void run_one(const Input& input) {
  g_current = &input;
  LLVMFuzzerTestOneInput(input.data(), input.size());
  g_current = nullptr;
}

Input mutate(const Input& base, Rng& rng) {
  Input out = base;
  const std::uint64_t ops = 1 + rng.below(4);
  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (rng.below(5)) {
      case 0:  // flip a byte
        if (!out.empty()) {
          out[rng.below(out.size())] ^=
              static_cast<std::uint8_t>(1U << rng.below(8));
        }
        break;
      case 1:  // overwrite with an interesting byte
        if (!out.empty()) {
          static constexpr std::uint8_t kInteresting[] = {
              0x00, 0xff, 0x7f, 0x80, '\n', ';', '*', '(', 'G', 'M',
              'N',  'E',  '-',  '.',  'e',  '9', '{', '[', '"', '\\'};
          out[rng.below(out.size())] =
              kInteresting[rng.below(sizeof(kInteresting))];
        }
        break;
      case 2:  // truncate
        if (!out.empty()) out.resize(rng.below(out.size()));
        break;
      case 3: {  // insert a random run
        const std::size_t pos = rng.below(out.size() + 1);
        const std::size_t len = 1 + rng.below(8);
        Input run(len);
        for (auto& b : run) b = static_cast<std::uint8_t>(rng.next());
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   run.begin(), run.end());
        break;
      }
      default: {  // duplicate a slice (length-prefix confusion food)
        if (out.empty()) break;
        const std::size_t pos = rng.below(out.size());
        const std::size_t len = 1 + rng.below(out.size() - pos);
        Input slice(out.begin() + static_cast<std::ptrdiff_t>(pos),
                    out.begin() + static_cast<std::ptrdiff_t>(pos + len));
        const std::size_t at = rng.below(out.size() + 1);
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   slice.begin(), slice.end());
        break;
      }
    }
  }
  // The harnesses ignore inputs over 1 MiB; stay just under that so a
  // large seed (a whole cache entry or checkpoint) keeps its tail.
  if (out.size() > (1 << 20)) out.resize(1 << 20);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double time_budget_s = 0.0;
  std::uint64_t seed = 0x0ff7a3b5ULL;
  std::vector<fs::path> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--time" && i + 1 < argc) {
      time_budget_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--time SECONDS] [--seed N] CORPUS...\n"
                   "replays corpus files/dirs; with --time also runs a\n"
                   "deterministic mutation loop seeded from them\n",
                   argv[0]);
      return 0;
    } else {
      paths.emplace_back(arg);
    }
  }

  g_last_input_path = std::string(argv[0]) + "-last-input.bin";
  std::remove(g_last_input_path.c_str());  // the file belongs to this run
  register_death_callback();
  std::set_terminate([] {
    save_current_input();
    std::abort();
  });

  std::vector<Input> corpus;
  for (const auto& p : paths) {
    if (!fs::exists(p)) {
      std::fprintf(stderr, "corpus path '%s' does not exist\n",
                   p.string().c_str());
      return 2;
    }
    collect(p, corpus);
  }
  if (corpus.empty()) corpus.push_back({});  // always have a seed

  for (const auto& input : corpus) run_one(input);
  std::fprintf(stderr, "replayed %zu corpus input(s)\n", corpus.size());

  std::uint64_t executed = 0;
  if (time_budget_s > 0.0) {
    using Clock = std::chrono::steady_clock;
    Rng rng{seed};
    const Clock::time_point start = Clock::now();
    const auto budget = std::chrono::duration<double>(time_budget_s);
    while (Clock::now() - start < budget) {
      const Input& base = corpus[rng.below(corpus.size())];
      run_one(mutate(base, rng));
      ++executed;
    }
    std::fprintf(stderr, "executed %llu mutated input(s) in %.1fs\n",
                 static_cast<unsigned long long>(executed),
                 std::chrono::duration<double>(Clock::now() - start).count());
  }
  return 0;
}
