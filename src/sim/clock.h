// Virtual time.
//
// Every logical worker (a simulated client thread, server executor, I/O
// worker) owns a VirtualClock measured in nanoseconds. Devices advance a
// worker's clock when the worker uses them; workers never advance each
// other's clocks directly. Wall-clock time never enters the simulation, so
// every experiment is deterministic and independent of host load.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/units.h"

namespace diesel::sim {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(Nanos start) : now_(start) {}

  Nanos now() const { return now_; }

  /// Jump forward to `t` (no-op if `t` is in the past: a device that was
  /// free earlier than the worker arrived completes at the worker's now).
  void AdvanceTo(Nanos t) { now_ = std::max(now_, t); }

  /// Spend `d` of local compute/think time.
  void Advance(Nanos d) { now_ += d; }

  void Reset(Nanos t = 0) { now_ = t; }

 private:
  Nanos now_ = 0;
};

/// `n` concurrent streams of one worker (a node's preload or prefetch
/// fetchers, a server's store readers), each with its own clock, all
/// starting at one time. The earliest stream takes the next unit of work
/// (closed loop), so `n` streams overlap their device time as `n` real
/// workers would.
class StreamPool {
 public:
  StreamPool(size_t n, Nanos start) : clocks_(n, VirtualClock(start)) {
    assert(n > 0);
  }

  /// The first stream with the smallest now(): ties go to the lowest index.
  VirtualClock& Earliest() {
    VirtualClock* earliest = &clocks_.front();
    for (VirtualClock& c : clocks_) {
      if (c.now() < earliest->now()) earliest = &c;
    }
    return *earliest;
  }

  /// When the last stream goes idle (the start time if no work ran).
  Nanos Finish() const {
    Nanos finish = clocks_.front().now();
    for (const VirtualClock& c : clocks_) finish = std::max(finish, c.now());
    return finish;
  }

  /// Move every stream idle before `t` up to `t`.
  void AdvanceTo(Nanos t) {
    for (VirtualClock& c : clocks_) c.AdvanceTo(t);
  }

  /// Streams still busy after `t`.
  size_t BusyAfter(Nanos t) const {
    return static_cast<size_t>(std::count_if(
        clocks_.begin(), clocks_.end(),
        [t](const VirtualClock& c) { return c.now() > t; }));
  }

 private:
  std::vector<VirtualClock> clocks_;
};

}  // namespace diesel::sim
