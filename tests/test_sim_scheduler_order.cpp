// Ordering-invariant property tests for `sim::Scheduler`.
//
// The scheduler's contract: events drain in exactly (time, seq) order,
// FIFO among same-tick events, no matter how insertions interleave with
// drains or how far apart event times spread.  Every fleet/campaign/
// checkpoint digest depends on this, so the tests here compare the real
// `sim::Scheduler` against a minimal reference binary-heap scheduler
// running the same schedule script: random one-shot events, events that
// spawn children mid-drain, far-future events, and the dense, sparse and
// mixed self-rescheduling chain profiles the simulator's event traffic is
// made of.  Any change to the scheduler's storage must keep these green.
// The suite keeps its historical `SchedulerWheelProperty` name (from when
// a timer wheel backed the scheduler) so the test IDs stay stable.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using offramps::sim::Scheduler;
using offramps::sim::Tick;

/// The oracle: a plain binary heap popped in (time, seq) order, with
/// none of the real scheduler's hot-path machinery (SmallFn callbacks,
/// time warp, metrics, stop requests, deadlines).
class RefHeapScheduler {
 public:
  using Callback = std::function<void()>;

  void schedule_at(Tick t, Callback cb) {
    heap_.push_back(Event{t, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in(Tick dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] bool idle() const { return heap_.empty(); }

  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.time;
    ev.cb();
    return true;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Execution log entry: which event ran, at what simulated time.
struct LogEntry {
  std::uint64_t id;
  Tick time;
  bool operator==(const LogEntry&) const = default;
};

/// Far-future offset for the draws and cases below: 2^32 ticks (~4.3
/// simulated seconds), beyond any delta the simulator's pulse trains and
/// clock edges use.
constexpr Tick kFar = Tick{1} << 32;

/// Event-time distributions for the randomized scripts.
Tick draw_time(std::mt19937_64& rng, int dist) {
  switch (dist) {
    case 0:  // dense: stepper-burst spacing, heavy same-tick collisions
      return rng() % 64;
    case 1:  // sparse: thermal-tick spacing
      return rng() % 10'000'000;
    case 2:  // clustered: few distinct ticks, long FIFO runs
      return (rng() % 8) * 1000;
    default:  // far future: supervisor deadlines, end-of-print watchdogs
      return kFar + rng() % 1'000'000;
  }
}

/// Runs the same generative schedule script on both schedulers and
/// returns (scheduler log, reference log).  Initial events may spawn
/// children by a deterministic rule keyed on the event id, so insertion
/// interleaves with draining on both sides identically as long as the
/// drain order matches - any divergence shows up in the logs.
std::pair<std::vector<LogEntry>, std::vector<LogEntry>> run_script(
    std::uint64_t seed, std::size_t n_initial, bool spawn_children) {
  std::vector<LogEntry> sched_log;
  std::vector<LogEntry> ref_log;

  const auto drive = [&](auto& sched, std::vector<LogEntry>& log) {
    std::mt19937_64 rng(seed);
    std::uint64_t next_id = 0;
    // Children reuse the parent's rng stream deterministically: a fresh
    // engine seeded from the child id.
    std::function<void(std::uint64_t, int)> schedule_event =
        [&](std::uint64_t id, int depth) {
          std::mt19937_64 crng(seed ^ (id * 0x9e3779b97f4a7c15ULL));
          const Tick delta = draw_time(crng, static_cast<int>(id % 4));
          sched.schedule_in(delta, [&, id, depth]() {
            log.push_back(LogEntry{id, sched.now()});
            if (spawn_children && depth < 3 && id % 3 == 0) {
              for (int c = 0; c < 2; ++c) {
                schedule_event(next_id++, depth + 1);
              }
            }
          });
        };
    for (std::size_t i = 0; i < n_initial; ++i) {
      schedule_event(next_id++, 0);
    }
    (void)rng;
    sched.run_all();
  };

  Scheduler sched;
  drive(sched, sched_log);
  RefHeapScheduler ref;
  drive(ref, ref_log);
  return {sched_log, ref_log};
}

TEST(SchedulerWheelProperty, RandomizedInsertionsDrainLikeReferenceHeap) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL, 0xdeadbeefULL}) {
    auto [sched_log, ref_log] = run_script(seed, 500, /*spawn_children=*/false);
    ASSERT_EQ(sched_log.size(), 500u) << "seed " << seed;
    EXPECT_EQ(sched_log, ref_log) << "seed " << seed;
  }
}

TEST(SchedulerWheelProperty, InterleavedSpawningDrainsLikeReferenceHeap) {
  for (std::uint64_t seed : {3ULL, 99ULL, 0xabcdefULL}) {
    auto [sched_log, ref_log] = run_script(seed, 200, /*spawn_children=*/true);
    ASSERT_GT(sched_log.size(), 200u) << "seed " << seed;
    EXPECT_EQ(sched_log, ref_log) << "seed " << seed;
  }
}

TEST(SchedulerWheelProperty, SameTickEventsRunInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(5000, [&order, i]() { order.push_back(i); });
  }
  s.run_all();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerWheelProperty, SameTickScheduledDuringDrainRunsThisTick) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&]() {
    order.push_back(0);
    // Scheduled while tick 10 is mid-drain: must still run at tick 10,
    // after every event inserted before it.
    s.schedule_at(10, [&]() { order.push_back(2); });
  });
  s.schedule_at(10, [&]() { order.push_back(1); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.now(), 10u);
}

TEST(SchedulerWheelProperty, StepIfBeforeBoundaryIsInclusive) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(100, [&]() { ran = true; });
  EXPECT_FALSE(s.step_if_before(99));
  EXPECT_EQ(s.now(), 0u);         // refusal leaves time untouched
  EXPECT_EQ(s.pending(), 1u);     // and the event pending
  EXPECT_TRUE(s.step_if_before(100));  // boundary is inclusive
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100u);
}

TEST(SchedulerWheelProperty, ScheduleEarlierAfterRefusedStepStillOrdersFirst) {
  // A refused step_if_before() has already looked at the earliest
  // event; scheduling an even earlier one afterwards must still drain
  // in (time, seq) order.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1000, [&]() { order.push_back(1); });
  EXPECT_FALSE(s.step_if_before(500));
  s.schedule_at(600, [&]() { order.push_back(0); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerWheelProperty, StopRequestedMidDrainPreservesRemainder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(static_cast<Tick>(i) * 10, [&, i]() {
      order.push_back(i);
      if (i == 4) s.request_stop();
    });
  }
  s.run_all();
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(s.pending(), 5u);
  s.clear_stop();
  s.run_all();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerWheelProperty, FarFutureEventsSpillToOverflowAndStillOrder) {
  Scheduler s;
  std::vector<int> order;
  // A near event first, then far-future ones (delta >= 2^32) inserted
  // out of order, one just short of the far boundary.
  s.schedule_at(50, [&]() { order.push_back(0); });
  s.schedule_at(kFar + 500, [&]() { order.push_back(2); });
  s.schedule_at(2 * kFar + 7, [&]() { order.push_back(3); });
  s.schedule_at(kFar - 1, [&]() { order.push_back(1); });
  EXPECT_EQ(s.pending(), 4u);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now(), 2 * kFar + 7);
  EXPECT_TRUE(s.idle());
}

TEST(SchedulerWheelProperty, SlotResidueCollisionsDrainInTimeOrder) {
  // Times congruent mod 256 and mod 65536: a bucketed queue keyed on
  // low time bits would alias them, a correct one drains them in order.
  Scheduler s;
  std::vector<Tick> times;
  for (Tick base : {Tick{5}, Tick{5 + 256}, Tick{5 + 512},
                    Tick{5 + 65536}, Tick{5 + 131072}}) {
    s.schedule_at(base, [&times, &s]() { times.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.front(), 5u);
  EXPECT_EQ(times.back(), 5u + 131072u);
}

TEST(SchedulerWheelProperty, LongRunningChainsCrossLevelBoundaries) {
  // A self-rescheduling chain whose period sweeps from 1 tick to ~2 ms
  // and back, so each hop lands at a different distance from now().
  Scheduler s;
  std::uint64_t hops = 0;
  Tick last = 0;
  std::function<void(Tick)> hop = [&](Tick period) {
    EXPECT_GE(s.now(), last);
    last = s.now();
    ++hops;
    if (hops < 200) {
      const Tick next_period = (period * 3) % 2'000'000 + 1;
      s.schedule_in(next_period, [&hop, next_period]() { hop(next_period); });
    }
  };
  s.schedule_in(1, [&hop]() { hop(1); });
  s.run_all();
  EXPECT_EQ(hops, 200u);
}

/// Self-rescheduling chain profiles: many concurrent timers, each
/// re-arming itself after a delta drawn from a fixed hash of (chain,
/// hop).
///   dense  - deltas 1..16 ticks (stepper pulse trains, FPGA clock
///            edges): heavy same-tick collisions across chains;
///   sparse - deltas ~0.2-2.2 ms (thermal ticks, control deadlines);
///   mixed  - odd chains dense, even chains sparse, on one queue.
enum class ChainProfile { kDense, kSparse, kMixed };

Tick chain_delta(ChainProfile profile, std::uint32_t id, std::uint32_t hop) {
  const std::uint64_t x =
      ((static_cast<std::uint64_t>(id) << 32) | hop) * 0x9e3779b97f4a7c15ULL;
  const Tick dense = 1 + (x & 15);
  const Tick sparse = 200'000 + (x % 2'000'000);
  switch (profile) {
    case ChainProfile::kDense:
      return dense;
    case ChainProfile::kSparse:
      return sparse;
    default:
      return (id & 1) != 0 ? dense : sparse;
  }
}

/// FNV-1a digest over every executed (now, chain id) pair.
template <typename Sched>
struct ChainCtx {
  Sched* sched;
  ChainProfile profile;
  std::uint32_t hops;
  std::uint64_t executed = 0;
  std::uint64_t digest = 1469598103934665603ULL;
};

/// One chain hop.  Trivially copyable and 16 bytes, so it rides inline
/// in the real scheduler's SmallFn, as the simulator's own lambdas do.
template <typename Sched>
struct ChainHop {
  ChainCtx<Sched>* ctx;
  std::uint32_t id;
  std::uint32_t hop;

  void operator()() const {
    ++ctx->executed;
    ctx->digest = (ctx->digest ^ ctx->sched->now()) * 1099511628211ULL;
    ctx->digest = (ctx->digest ^ id) * 1099511628211ULL;
    if (hop + 1 < ctx->hops) {
      ctx->sched->schedule_in(chain_delta(ctx->profile, id, hop + 1),
                              ChainHop{ctx, id, hop + 1});
    }
  }
};

template <typename Sched>
std::pair<std::uint64_t, std::uint64_t> run_chains(ChainProfile profile,
                                                   std::uint32_t chains,
                                                   std::uint32_t hops) {
  Sched s;
  ChainCtx<Sched> ctx{&s, profile, hops};
  for (std::uint32_t id = 0; id < chains; ++id) {
    s.schedule_in(chain_delta(profile, id, 0), ChainHop<Sched>{&ctx, id, 0});
  }
  s.run_all();
  return {ctx.executed, ctx.digest};
}

TEST(SchedulerWheelProperty, ChainProfilesDrainLikeReferenceHeap) {
  struct Case {
    ChainProfile profile;
    const char* name;
    std::uint32_t chains;
    std::uint32_t hops;
  };
  for (const Case& c : {Case{ChainProfile::kDense, "dense", 256, 512},
                        Case{ChainProfile::kSparse, "sparse", 64, 1024},
                        Case{ChainProfile::kMixed, "mixed", 256, 512}}) {
    const auto [events, digest] =
        run_chains<Scheduler>(c.profile, c.chains, c.hops);
    const auto [ref_events, ref_digest] =
        run_chains<RefHeapScheduler>(c.profile, c.chains, c.hops);
    EXPECT_EQ(events, std::uint64_t{c.chains} * c.hops) << c.name;
    EXPECT_EQ(events, ref_events) << c.name;
    EXPECT_EQ(digest, ref_digest) << c.name;
  }
}

}  // namespace
