// Retry with capped exponential backoff over virtual time.
//
// Transient faults (node flaps, injected RPC drops, briefly-down KV shards)
// surface as Status::Unavailable. RetryPolicy re-drives the operation with
// exponential backoff and deterministic jitter, charging every wait to the
// caller's VirtualClock — never a wall-clock sleep — so fault runs stay
// bit-reproducible. Only kUnavailable is retried: every other code (NotFound,
// Corruption, Stale, ...) is a semantic answer, not a transient fault.
//
// The paper's own stack behaves this way: §5.1 notes libMemcached's
// timeout/retry/backoff on connection failure (modeled as a latency constant
// in sim/calibration.h); DIESEL's Thrift clients get the equivalent here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "common/units.h"
#include "sim/clock.h"

namespace diesel {

struct RetryPolicy {
  /// Total tries including the first. <= 1 disables retrying.
  uint32_t max_attempts = 4;
  Nanos initial_backoff = Micros(500);
  double backoff_multiplier = 2.0;
  Nanos max_backoff = Millis(50);
  /// Virtual-time budget for the whole operation (waits included), measured
  /// from the first attempt. 0 = unlimited. A retry whose backoff would
  /// exceed the budget is not attempted.
  Nanos deadline_budget = Millis(500);
  /// Deterministic jitter: each backoff is scaled by a factor drawn from
  /// [1 - jitter_frac, 1 + jitter_frac] via a hash of (jitter_seed, attempt).
  double jitter_frac = 0.25;
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;

  /// Backoff charged before retry number `attempt` (1 = first retry).
  Nanos BackoffBefore(uint32_t attempt) const;

  /// Drive `fn` (returning Status or Result<T>) until it succeeds, fails
  /// with a non-transient code, or the policy is exhausted. Backoff waits
  /// advance `clock`; the last outcome is returned.
  template <typename Fn>
  std::invoke_result_t<Fn&> Run(sim::VirtualClock& clock, Fn&& fn) const {
    const Nanos start = clock.now();
    for (uint32_t attempt = 1;; ++attempt) {
      std::invoke_result_t<Fn&> out = fn();
      if (!StatusOf(out).IsUnavailable()) return out;
      if (attempt >= std::max<uint32_t>(1, max_attempts)) return out;
      Nanos wait = BackoffBefore(attempt);
      if (deadline_budget != 0 &&
          clock.now() - start + wait > deadline_budget) {
        return out;
      }
      clock.Advance(wait);
    }
  }

  /// Run() for a callable whose result converts to Result<T>.
  template <typename T, typename Fn>
  Result<T> RunResult(sim::VirtualClock& clock, Fn&& fn) const {
    return Run(clock, [&]() -> Result<T> { return fn(); });
  }

 private:
  static const Status& StatusOf(const Status& st) { return st; }
  template <typename T>
  static const Status& StatusOf(const Result<T>& r) {
    return r.status();
  }
};

}  // namespace diesel
