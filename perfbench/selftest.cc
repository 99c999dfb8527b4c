// Self-test of the benchmark's pure code (stats.h): the percentile rule and
// its sample counts, quartile spread, span self time and the name rule.
// Exits non-zero on the first failed check; test_perfbench.py runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cc:%d: FAILED %s\n", line, what);
  ++failures;
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

void TestQuantile() {
  using perfbench::Quantile;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(Quantile(v, 0.5) == 50);
  EXPECT(Quantile(v, 0.99) == 99);
  EXPECT(Quantile(v, 1.0) == 100);
  EXPECT(Quantile(v, 0.0) == 1);
  EXPECT(Quantile({}, 0.5) == 0);
  EXPECT(Quantile({7}, 0.99) == 7);
}

void TestPercentileRule() {
  using perfbench::QuantileSupported;
  using perfbench::SamplesBeyond;
  // p99 of n samples has n - ceil(0.99 n) samples beyond it; the rule asks
  // for ten, so 1000 samples is the least that supports a p99.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(10000, 0.99) == 100);
  EXPECT(SamplesBeyond(0, 0.99) == 0);
  EXPECT(QuantileSupported(1000, 0.99));
  EXPECT(!QuantileSupported(999, 0.99));
  EXPECT(QuantileSupported(20, 0.5));
  EXPECT(!QuantileSupported(19, 0.5));

  std::vector<double> s;
  for (int i = 1000; i >= 1; --i) s.push_back(i);  // unsorted input
  perfbench::Summary sum = perfbench::Summarize(s);
  EXPECT(sum.count == 1000);
  EXPECT(sum.p50 == 500);
  EXPECT(sum.p99 == 990);
  EXPECT(sum.p99_supported);
  s.pop_back();
  EXPECT(!perfbench::Summarize(s).p99_supported);
}

void TestMedianAndSpread() {
  using perfbench::Median;
  using perfbench::QuartileSpread;
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  // Expected values from Python: statistics.quantiles(v, n=4).
  EXPECT(Near(QuartileSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0));
  EXPECT(Near(QuartileSpread({1, 2}), 1.0));
  EXPECT(Near(QuartileSpread({3, 1, 2}), 1.0));
  EXPECT(Near(QuartileSpread({10, 10, 10, 11, 12, 50, 9, 10, 10, 10}), 0.125));
  EXPECT(QuartileSpread({5}) == 0);
}

perfbench::Span MakeSpan(int64_t b, int64_t e, size_t parent) {
  perfbench::Span s;
  s.name = "x";
  s.host_begin = b;
  s.host_end = e;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  using perfbench::Span;
  EXPECT(perfbench::CoveredLength({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25);
  EXPECT(perfbench::CoveredLength({{0, 10}, {5, 15}}, 8, 12) == 4);
  EXPECT(perfbench::CoveredLength({}, 0, 100) == 0);

  // root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // 40) and a grandchild [12,18) that only lowers the child's self time.
  std::vector<Span> spans = {MakeSpan(0, 100, Span::kNoParent),
                             MakeSpan(10, 30, 0), MakeSpan(20, 50, 0),
                             MakeSpan(12, 18, 1)};
  std::vector<int64_t> self = perfbench::HostSelfTimes(spans);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);

  // A child that outlives its parent is clipped to the parent's interval.
  spans = {MakeSpan(0, 10, Span::kNoParent), MakeSpan(5, 20, 0)};
  self = perfbench::HostSelfTimes(spans);
  EXPECT(self[0] == 5);
  EXPECT(self[1] == 15);
}

void TestNames() {
  using perfbench::ValidName;
  using perfbench::ValidUnit;
  EXPECT(ValidName("train_warm"));
  EXPECT(ValidName("cache.path_owner_wait_frac"));
  EXPECT(ValidName("9lives-x.y"));
  EXPECT(!ValidName(""));
  EXPECT(!ValidName("_lead"));
  EXPECT(!ValidName(".lead"));
  EXPECT(!ValidName("has space"));
  EXPECT(!ValidName("slash/name"));
  EXPECT(ValidName(std::string(64, 'a')));
  EXPECT(!ValidName(std::string(65, 'a')));
  EXPECT(ValidUnit("ops/s"));
  EXPECT(ValidUnit("%"));
  EXPECT(ValidUnit("us"));
  EXPECT(!ValidUnit(""));
  EXPECT(!ValidUnit("µs"));
  EXPECT(!ValidUnit(std::string(17, 's')));
}

}  // namespace

int main() {
  TestQuantile();
  TestPercentileRule();
  TestMedianAndSpread();
  TestSelfTime();
  TestNames();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
