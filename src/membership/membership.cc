#include "membership/membership.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace diesel::membership {
namespace {

/// Virtual nodes per member on the ownership ring. More vnodes = tighter
/// balance (stddev ~ 1/sqrt(vnodes)) at O(log) lookup cost.
constexpr uint32_t kVnodesPerMember = 128;

struct MemCounters {
  obs::Counter& changes = obs::Metrics().GetCounter("membership.changes");
  obs::Counter& joins = obs::Metrics().GetCounter("membership.joins");
  obs::Counter& drains = obs::Metrics().GetCounter("membership.drains");
  obs::Counter& crashes = obs::Metrics().GetCounter("membership.crashes");
  obs::Gauge& epoch = obs::Metrics().GetGauge("membership.epoch");
  obs::Gauge& active = obs::Metrics().GetGauge("membership.active_nodes");
};

MemCounters& Counters() {
  static MemCounters c;
  return c;
}

/// Chunk indices are small dense integers; mix them so consecutive chunks
/// land on independent ring points (the salt keeps chunk hashes disjoint
/// from the ring's member-point hashes).
uint64_t ChunkHash(size_t chunk_index) {
  return Mix64(static_cast<uint64_t>(chunk_index) ^ 0xD1E5E1C0FFEE5EEDULL);
}

}  // namespace

const char* ToString(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kBootstrap: return "bootstrap";
    case ChangeKind::kJoin: return "join";
    case ChangeKind::kDrainStart: return "drain_start";
    case ChangeKind::kDrainComplete: return "drain_complete";
    case ChangeKind::kCrash: return "crash";
    case ChangeKind::kRecover: return "recover";
  }
  return "?";
}

const char* ToString(NodeState state) {
  switch (state) {
    case NodeState::kActive: return "active";
    case NodeState::kDraining: return "draining";
    case NodeState::kDown: return "down";
  }
  return "?";
}

MembershipTable::MembershipTable() : ring_(kVnodesPerMember) {}

void MembershipTable::Bootstrap(const std::vector<sim::NodeId>& nodes,
                                Nanos at) {
  std::vector<MembershipListener*> listeners;
  MembershipChange change;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_ != 0) return;  // already bootstrapped
    for (sim::NodeId n : nodes) {
      ring_.AddMember(n);
      states_[n] = NodeState::kActive;
    }
    epoch_ = 1;
    change = MembershipChange{epoch_, ChangeKind::kBootstrap,
                              sim::kInvalidNode, at};
    log_.push_back(change);
    Counters().changes.Inc();
    Counters().epoch.Set(static_cast<double>(epoch_));
    Counters().active.Set(static_cast<double>(ring_.NumMembers()));
    obs::Flight().Record(obs::FlightEventKind::kMembership, at,
                         "bootstrap " + std::to_string(ring_.NumMembers()) +
                             " nodes epoch=" + std::to_string(epoch_));
    listeners = listeners_;
  }
  for (MembershipListener* l : listeners) l->OnMembershipChange(change);
}

uint64_t MembershipTable::ApplyLocked(ChangeKind kind, sim::NodeId node,
                                      Nanos at,
                                      std::unique_lock<std::mutex>& lock) {
  ++epoch_;
  MembershipChange change{epoch_, kind, node, at};
  log_.push_back(change);
  Counters().changes.Inc();
  Counters().epoch.Set(static_cast<double>(epoch_));
  Counters().active.Set(static_cast<double>(ring_.NumMembers()));
  obs::Flight().Record(obs::FlightEventKind::kMembership, at,
                       std::string(ToString(kind)) + " n" +
                           std::to_string(node) + " epoch=" +
                           std::to_string(epoch_));
  std::vector<MembershipListener*> listeners = listeners_;
  uint64_t epoch = epoch_;
  // Notify outside the table lock: listeners (cache migration, prefetch
  // recompute) read ownership back through OwnerOfChunk. Mutations are
  // driven by one churn driver at a time, so notification order stays the
  // epoch order.
  lock.unlock();
  for (MembershipListener* l : listeners) l->OnMembershipChange(change);
  return epoch;
}

uint64_t MembershipTable::Join(sim::NodeId node, Nanos at) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  if (it != states_.end() && it->second != NodeState::kDown) return epoch_;
  states_[node] = NodeState::kActive;
  ring_.AddMember(node);
  Counters().joins.Inc();
  return ApplyLocked(ChangeKind::kJoin, node, at, lock);
}

uint64_t MembershipTable::StartDrain(sim::NodeId node, Nanos at) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end() || it->second != NodeState::kActive) return epoch_;
  if (ring_.NumMembers() <= 1) return epoch_;  // never drain the last owner
  it->second = NodeState::kDraining;
  ring_.RemoveMember(node);
  Counters().drains.Inc();
  return ApplyLocked(ChangeKind::kDrainStart, node, at, lock);
}

uint64_t MembershipTable::CompleteDrain(sim::NodeId node, Nanos at) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end() || it->second != NodeState::kDraining) return epoch_;
  states_.erase(it);
  return ApplyLocked(ChangeKind::kDrainComplete, node, at, lock);
}

uint64_t MembershipTable::Crash(sim::NodeId node, Nanos at) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end() || it->second == NodeState::kDown) return epoch_;
  if (it->second == NodeState::kActive && ring_.NumMembers() <= 1)
    return epoch_;  // the last owner crashing would orphan every chunk
  ring_.RemoveMember(node);  // no-op for a draining node (already off-ring)
  it->second = NodeState::kDown;
  Counters().crashes.Inc();
  return ApplyLocked(ChangeKind::kCrash, node, at, lock);
}

uint64_t MembershipTable::Recover(sim::NodeId node, Nanos at) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end() || it->second != NodeState::kDown) return epoch_;
  it->second = NodeState::kActive;
  ring_.AddMember(node);
  return ApplyLocked(ChangeKind::kRecover, node, at, lock);
}

uint64_t MembershipTable::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

size_t MembershipTable::NumActive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.NumMembers();
}

NodeState MembershipTable::StateOf(sim::NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = states_.find(node);
  return it == states_.end() ? NodeState::kDown : it->second;
}

std::vector<sim::NodeId> MembershipTable::ActiveNodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<sim::NodeId> out;
  for (const auto& [node, state] : states_) {
    if (state == NodeState::kActive) out.push_back(node);
  }
  return out;  // std::map iterates ascending
}

std::vector<MembershipChange> MembershipTable::Log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

Result<sim::NodeId> MembershipTable::OwnerOfChunk(size_t chunk_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.NumMembers() == 0)
    return Status::FailedPrecondition("membership: no active nodes");
  return static_cast<sim::NodeId>(ring_.OwnerOfHash(ChunkHash(chunk_index)));
}

double MembershipTable::OwnedFraction(sim::NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.OwnedFraction(node);
}

void MembershipTable::Subscribe(MembershipListener* listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(listener);
}

}  // namespace diesel::membership
