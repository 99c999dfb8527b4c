// Per-instance stats counted once into both books.
//
// A module whose stats struct has an unlabeled registry series for each
// field declares ONE name table pairing field and series, and counts every
// event with a single StatBook call: it bumps the instance's relaxed atomic
// and the process-wide series together, so stats() and a registry dump
// cannot drift apart.
//
//   stats_.Add<&FooStats::hits>();     // one event, both books
//   FooStats s; stats_.ReadInto(s);    // the per-instance view
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "obs/metrics.h"

namespace diesel::obs {

enum class SeriesKind : uint8_t {
  kCounter,  // event total: Add only
  kGauge,    // resident quantity: Add on growth, Sub on shrink
};

template <typename Stats>
struct StatRow {
  uint64_t Stats::*field;
  const char* series;
  /// Rows of one group register their series together on the group's first
  /// event, so a registry dump lists the whole group or none of it.
  uint8_t group = 0;
  SeriesKind kind = SeriesKind::kCounter;
};

template <const auto& kTable>
class StatBook {
  static constexpr size_t kRows =
      std::tuple_size_v<std::remove_cvref_t<decltype(kTable)>>;

 public:
  template <auto kField>
  void Add(uint64_t delta = 1) {
    constexpr size_t row = RowOf<kField>();
    counts_[row].fetch_add(delta, std::memory_order_relaxed);
    const Series& s = Registered<kTable[row].group>()[row];
    if constexpr (kTable[row].kind == SeriesKind::kGauge) {
      s.gauge->Add(static_cast<double>(delta));
    } else {
      s.counter->Inc(delta);
    }
  }

  template <auto kField>
  void Sub(uint64_t delta = 1) {
    constexpr size_t row = RowOf<kField>();
    static_assert(kTable[row].kind == SeriesKind::kGauge,
                  "only a gauge row shrinks");
    counts_[row].fetch_sub(delta, std::memory_order_relaxed);
    Registered<kTable[row].group>()[row].gauge->Add(
        -static_cast<double>(delta));
  }

  /// Copy this instance's counts into the table's fields of `out`.
  template <typename Stats>
  void ReadInto(Stats& out) const {
    for (size_t i = 0; i < kRows; ++i) {
      out.*(kTable[i].field) = counts_[i].load(std::memory_order_relaxed);
    }
  }

 private:
  struct Series {
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
  };

  template <auto kField>
  static consteval size_t RowOf() {
    for (size_t i = 0; i < kRows; ++i) {
      if (kTable[i].field == kField) return i;
    }
    throw "field missing from the name table";
  }

  /// `kGroup`'s series (other rows stay null), looked up once per process.
  template <uint8_t kGroup>
  static const std::array<Series, kRows>& Registered() {
    static const std::array<Series, kRows> series = [] {
      std::array<Series, kRows> out{};
      for (size_t i = 0; i < kRows; ++i) {
        if (kTable[i].group != kGroup) continue;
        if (kTable[i].kind == SeriesKind::kGauge) {
          out[i].gauge = &Metrics().GetGauge(kTable[i].series);
        } else {
          out[i].counter = &Metrics().GetCounter(kTable[i].series);
        }
      }
      return out;
    }();
    return series;
  }

  std::array<std::atomic<uint64_t>, kRows> counts_{};
};

}  // namespace diesel::obs
