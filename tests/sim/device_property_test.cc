// Property and differential tests of the interval-booking Device.
//
// Under random out-of-order arrivals, the property test checks bounds:
//   1. completion >= arrival + service (no time travel),
//   2. total busy time fits channels x horizon (capacity is never exceeded).
// The reference tests compare exact completions with textbook queues for
// in-order arrivals. The differential test replays out-of-order arrivals on
// a test-local copy of the front-to-back interval scan, with the same
// insert/merge/collapse bookkeeping, and checks every request's start and
// completion and the collapse count against it, across the cap's
// compaction of collapsed intervals too.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/device.h"

namespace diesel::sim {
namespace {

struct Op {
  Nanos arrival;
  uint64_t bytes;
  Nanos completion;
};

class DevicePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DevicePropertyTest, CompletionsRespectServiceAndCapacity) {
  Rng rng(GetParam());
  DeviceSpec spec;
  spec.name = "prop";
  spec.channels = 1 + static_cast<uint32_t>(rng.Uniform(4));
  spec.latency = 50 + rng.Uniform(200);
  spec.bytes_per_sec = 1e9;
  Device device(spec);

  std::vector<Op> ops;
  Nanos horizon = 0;
  for (int i = 0; i < 2000; ++i) {
    Op op;
    // Out-of-order arrivals: mostly forward progress, occasional jumps back.
    if (rng.Uniform(4) == 0 && horizon > 10000) {
      op.arrival = horizon - rng.Uniform(10000);
    } else {
      horizon += rng.Uniform(300);
      op.arrival = horizon;
    }
    op.bytes = rng.Uniform(4096);
    op.completion = device.Serve(op.arrival, op.bytes);
    ops.push_back(op);

    // Property 1: no op completes before arrival + its own service time.
    ASSERT_GE(op.completion, op.arrival + device.ServiceTime(op.bytes))
        << "op " << i;
  }

  // Property 2: capacity. Sum of service time of ops completing within
  // [0, T] cannot exceed channels * T (work conservation upper bound).
  Nanos t_max = 0;
  for (const Op& op : ops) t_max = std::max(t_max, op.completion);
  double busy = 0;
  for (const Op& op : ops) busy += static_cast<double>(device.ServiceTime(op.bytes));
  ASSERT_LE(busy, static_cast<double>(spec.channels) *
                      static_cast<double>(t_max) + 1.0);

  // Property 3 (utilization sanity): with a dense closed load the device is
  // reasonably utilized — the interval structure doesn't leak capacity.
  // (Loose bound: at least 10% utilized.)
  EXPECT_GT(busy, 0.1 * static_cast<double>(t_max));

  // Stats coherence.
  EXPECT_EQ(device.ops_served(), ops.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DevicePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

TEST(DeviceReferenceTest, SequentialArrivalsMatchClosedFormQueue) {
  // With nondecreasing arrivals and one channel, the device must behave as
  // the textbook single-server queue: completion_i =
  //   max(arrival_i, completion_{i-1}) + service_i.
  Rng rng(7);
  Device device({.name = "q", .channels = 1, .latency = 100,
                 .bytes_per_sec = 1e9});
  Nanos arrival = 0;
  Nanos expected_prev = 0;
  for (int i = 0; i < 5000; ++i) {
    arrival += rng.Uniform(250);
    uint64_t bytes = rng.Uniform(2000);
    Nanos service = device.ServiceTime(bytes);
    Nanos expected = std::max(arrival, expected_prev) + service;
    Nanos got = device.Serve(arrival, bytes);
    ASSERT_EQ(got, expected) << "op " << i;
    expected_prev = expected;
  }
}

TEST(DeviceReferenceTest, MultiChannelSequentialMatchesKServerQueue) {
  // k-server reference: earliest-free channel, nondecreasing arrivals.
  Rng rng(8);
  constexpr uint32_t kChannels = 3;
  Device device({.name = "q", .channels = kChannels, .latency = 80,
                 .bytes_per_sec = 0});
  std::vector<Nanos> free_at(kChannels, 0);
  Nanos arrival = 0;
  for (int i = 0; i < 5000; ++i) {
    arrival += rng.Uniform(100);
    Nanos got = device.Serve(arrival, 0);
    auto it = std::min_element(free_at.begin(), free_at.end());
    Nanos expected = std::max(arrival, *it) + 80;
    *it = expected;
    ASSERT_EQ(got, expected) << "op " << i;
  }
}

// Reference schedule: each channel's busy intervals scanned from the front on
// every request, with no skipping. Insert mirrors Device's merge of touching
// neighbours and its collapse of the oldest gap at the interval cap.
class ReferenceDevice {
 public:
  static constexpr size_t kMaxIntervals = 4096;  // Device's cap

  explicit ReferenceDevice(uint32_t channels) : channels_(channels) {}

  ServeStats Serve(Nanos now, Nanos service) {
    if (service == 0) service = 1;
    Nanos best_start = ~Nanos{0};
    size_t best_channel = 0;
    for (size_t c = 0; c < channels_.size(); ++c) {
      Nanos candidate = now;
      for (const Interval& iv : channels_[c]) {
        if (iv.start >= candidate && iv.start - candidate >= service) break;
        candidate = std::max(candidate, iv.end);
      }
      if (candidate < best_start) {
        best_start = candidate;
        best_channel = c;
      }
    }
    Insert(channels_[best_channel], best_start, best_start + service);
    return {.start = best_start,
            .done = best_start + service,
            .queue_wait = best_start - now,
            .service = service};
  }

  uint64_t collapsed() const { return collapsed_; }

 private:
  struct Interval {
    Nanos start;
    Nanos end;
  };

  void Insert(std::vector<Interval>& busy, Nanos start, Nanos end) {
    auto it = std::lower_bound(
        busy.begin(), busy.end(), start,
        [](const Interval& iv, Nanos s) { return iv.start < s; });
    it = busy.insert(it, {start, end});
    if (it != busy.begin() && (it - 1)->end >= it->start) {
      (it - 1)->end = std::max((it - 1)->end, it->end);
      it = busy.erase(it) - 1;
    }
    if (it + 1 != busy.end() && it->end >= (it + 1)->start) {
      it->end = std::max(it->end, (it + 1)->end);
      busy.erase(it + 1);
    }
    if (busy.size() > kMaxIntervals) {
      busy[1].start = busy[0].start;
      busy.erase(busy.begin());
      ++collapsed_;
    }
  }

  std::vector<std::vector<Interval>> channels_;
  uint64_t collapsed_ = 0;
};

class DeviceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeviceDifferentialTest, ScheduleMatchesFrontToBackScan) {
  Rng rng(GetParam());
  DeviceSpec spec;
  spec.name = "diff";
  spec.channels = 1 + static_cast<uint32_t>(rng.Uniform(4));
  spec.latency = rng.Uniform(200);  // 0 with zero bytes hits the 1 ns floor
  spec.bytes_per_sec = 1e9;
  Device device(spec);
  ReferenceDevice reference(spec.channels);

  // Enough sparse ops that channel 0 alone holds more than the interval cap,
  // so the collapse fires; arrivals mix forward gaps, short steps back and
  // jumps far behind the horizon.
  Nanos horizon = 0;
  for (int i = 0; i < 12000; ++i) {
    Nanos arrival;
    switch (rng.Uniform(8)) {
      case 0:
        arrival = horizon - rng.Uniform(horizon + 1);  // anywhere behind
        break;
      case 1:
        arrival = horizon - rng.Uniform(std::min<Nanos>(horizon, 5000) + 1);
        break;
      default:
        horizon += rng.Uniform(3000);
        arrival = horizon;
    }
    uint64_t bytes = rng.Uniform(4) == 0 ? 0 : rng.Uniform(512);
    Nanos extra = rng.Uniform(4) == 0 ? rng.Uniform(300) : 0;
    ServeStats got;
    Nanos done = device.Serve(arrival, bytes, extra, &got);
    ServeStats want =
        reference.Serve(arrival, device.ServiceTime(bytes) + extra);
    ASSERT_EQ(got.start, want.start) << "op " << i << " arrival " << arrival;
    ASSERT_EQ(got.done, want.done) << "op " << i << " arrival " << arrival;
    ASSERT_EQ(done, want.done) << "op " << i;
  }
  EXPECT_GT(reference.collapsed(), 0u);
  EXPECT_EQ(device.intervals_collapsed(), reference.collapsed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// Device drops collapsed intervals lazily and erases them in one move per
// kMaxIntervals collapses. One channel with sparse arrivals collapses on
// nearly every op once full, so this run crosses that compaction at least
// twice. The first op arrives late: far jumps back then land either in the
// oldest live gaps or in the idle stretch before every booked interval,
// where the new interval goes in front of the collapsed ones.
TEST(DeviceCompactionTest, SingleChannelMatchesReferenceAcrossCompactions) {
  constexpr size_t kCap = ReferenceDevice::kMaxIntervals;
  Rng rng(4242);
  Device device({.name = "compact", .channels = 1, .latency = 100,
                 .bytes_per_sec = 1e9});
  ReferenceDevice reference(1);
  Nanos horizon = 10'000'000;  // idle before the first op
  for (int i = 0; i < 14000; ++i) {
    Nanos arrival;
    if (rng.Uniform(10) == 0) {
      arrival = horizon - rng.Uniform(horizon + 1);  // far behind
    } else {
      horizon += 200 + rng.Uniform(2000);  // leaves a gap after the last op
      arrival = horizon;
    }
    uint64_t bytes = rng.Uniform(256);
    ServeStats got;
    device.Serve(arrival, bytes, 0, &got);
    ServeStats want = reference.Serve(arrival, device.ServiceTime(bytes));
    ASSERT_EQ(got.start, want.start) << "op " << i << " arrival " << arrival;
    ASSERT_EQ(got.done, want.done) << "op " << i << " arrival " << arrival;
  }
  EXPECT_GE(reference.collapsed(), 2 * kCap);
  EXPECT_EQ(device.intervals_collapsed(), reference.collapsed());
}

}  // namespace
}  // namespace diesel::sim
