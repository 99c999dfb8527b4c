// Pure helpers of the repo benchmark: the percentile rule, benchmark-side
// spans with self time, and the metric-name rule. Header-only so the
// driver and its self-test share one copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least q*n samples at or below it. 0 for an empty set.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly above the nearest-rank q-quantile's position.
inline size_t SamplesBeyond(size_t n, double q) {
  size_t at = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

/// The percentile rule: a quantile is reported only when at least
/// `kMinBeyond` samples lie beyond it, so one outlier cannot set it.
inline constexpr size_t kMinBeyond = 10;
inline bool QuantileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

/// A timing distribution as reported: median and p99 with the sample count.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

inline Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.5);
  s.p99 = Quantile(samples, 0.99);
  s.p99_supported = QuantileSupported(samples.size(), 0.99);
  return s;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Interquartile range over the median, with the quartiles computed exactly
/// like Python's statistics.quantiles(values, n=4) (the default
/// "exclusive" method, including its clamping at the ends).
inline double QuartileSpread(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  auto quartile = [&](int64_t i) {
    int64_t j = std::clamp<int64_t>(i * (ld + 1) / 4, 1, ld - 1);
    int64_t delta = i * (ld + 1) - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4.0;
  };
  double med = Median(v);
  return med == 0.0 ? 0.0 : (quartile(3) - quartile(1)) / std::abs(med);
}

/// One benchmark-side span around a call into a layer. Times are ns; host
/// times come from a steady clock, virtual times from the simulator clock.
/// `parent` is an index into the span vector (kNoParent for roots);
/// spans of one logical request share `request`.
struct Span {
  static constexpr size_t kNoParent = static_cast<size_t>(-1);
  std::string_view name;
  int64_t host_begin = 0;
  int64_t host_end = 0;
  int64_t virt_begin = 0;
  int64_t virt_end = 0;
  size_t parent = kNoParent;
  uint64_t request = 0;
};

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
inline int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> iv,
                             int64_t lo, int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur = lo;
  for (auto [b, e] : iv) {
    b = std::max(b, cur);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cur = e;
    }
  }
  return covered;
}

/// Host self time of every span: its duration minus the part of it that
/// its children cover (overlapping children count once).
inline std::vector<int64_t> HostSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.host_begin, s.host_end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.host_end - s.host_begin) -
              CoveredLength(std::move(kids[i]), s.host_begin, s.host_end);
  }
  return self;
}

/// BENCHMARK.json's rule for workload and metric names: starts with a
/// letter or digit, at most 64 of [A-Za-z0-9_.-].
inline bool ValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: at most 16 of [A-Za-z0-9_/%.-].
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
