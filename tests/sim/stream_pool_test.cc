// StreamPool: the earliest stream takes the next unit of work.
//
// A stream is identified by the address Earliest() returns; the pool's
// clocks live in one array, so address order is index order. The seeded
// test replays mixed durations, many of them equal so ties are frequent,
// against a test-local copy of the index loop the pool replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"

namespace diesel::sim {
namespace {

TEST(StreamPoolTest, TiesGoToTheLowestIndex) {
  StreamPool pool(4, 100);
  // All four tie at 100: each pick must be the lowest-index stream still at
  // 100, so the picked addresses ascend.
  std::vector<VirtualClock*> picked;
  for (int i = 0; i < 4; ++i) {
    VirtualClock& c = pool.Earliest();
    EXPECT_EQ(c.now(), 100u);
    picked.push_back(&c);
    c.Advance(5);
  }
  for (size_t i = 1; i < picked.size(); ++i) {
    EXPECT_TRUE(std::less<VirtualClock*>()(picked[i - 1], picked[i]));
  }
  // Tied again at 105: index 0 wins.
  EXPECT_EQ(&pool.Earliest(), picked[0]);
  // A strictly earlier stream beats a lower index.
  picked[0]->Advance(1);
  picked[1]->Advance(2);
  EXPECT_EQ(&pool.Earliest(), picked[2]);
}

TEST(StreamPoolTest, FinishIsTheStartWhenNoWorkRan) {
  StreamPool pool(3, 7000);
  EXPECT_EQ(pool.Finish(), 7000u);
  EXPECT_EQ(pool.BusyAfter(7000), 0u);
  pool.AdvanceTo(6000);  // already past: no stream moves
  EXPECT_EQ(pool.Finish(), 7000u);
}

/// The dispatch loop the pool replaced, on a plain vector of clocks.
size_t ReferenceEarliest(const std::vector<VirtualClock>& clocks) {
  size_t s = 0;
  for (size_t k = 1; k < clocks.size(); ++k) {
    if (clocks[k].now() < clocks[s].now()) s = k;
  }
  return s;
}

TEST(StreamPoolTest, PicksTheSameStreamAsTheIndexLoop) {
  const Nanos durations[] = {0, 1, 5, 5, 10, 100};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.Uniform(8);
    const Nanos start = rng.Uniform(1000);
    StreamPool pool(n, start);
    std::vector<VirtualClock> ref(n, VirtualClock(start));
    // Every stream ties at `start`, so the first pick is index 0.
    const VirtualClock* base = &pool.Earliest();
    for (int step = 0; step < 2000; ++step) {
      VirtualClock& c = pool.Earliest();
      const size_t s = ReferenceEarliest(ref);
      ASSERT_EQ(static_cast<size_t>(&c - base), s)
          << "seed " << seed << " step " << step;
      const Nanos d = rng.Uniform(4) == 0 ? rng.Uniform(1000)
                                          : durations[rng.Uniform(6)];
      c.Advance(d);
      ref[s].Advance(d);
      if (rng.Uniform(50) == 0) {
        // A detached caller catching the pool up to its own clock.
        const Nanos t = c.now() - std::min<Nanos>(c.now(), rng.Uniform(200));
        pool.AdvanceTo(t);
        for (VirtualClock& r : ref) r.AdvanceTo(t);
      }
      Nanos finish = 0;
      size_t busy = 0;
      for (const VirtualClock& r : ref) {
        finish = std::max(finish, r.now());
        busy += r.now() > c.now() ? 1 : 0;
      }
      ASSERT_EQ(pool.Finish(), finish);
      ASSERT_EQ(pool.BusyAfter(c.now()), busy);
    }
  }
}

}  // namespace
}  // namespace diesel::sim
