// Redis-cluster-like deployment of KV shards across simulated nodes.
//
// The DIESEL metadata plane stores key-value pairs here (Fig. 2). Shards are
// placed round-robin over the given nodes (the paper runs 16 Redis instances
// on 4 machines); keys map to shards via consistent hashing. Client
// operations pay one RPC to the owning shard plus the shard's service-loop
// time; batch puts pipeline many entries over a single round trip, which is
// what lets DIESEL servers ingest chunk metadata at high rates.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "kv/ring.h"
#include "kv/shard.h"
#include "net/fabric.h"
#include "sim/clock.h"

namespace diesel::kv {

struct KvClusterOptions {
  /// Nodes hosting shards.
  std::vector<sim::NodeId> nodes;
  uint32_t shards_per_node = 4;
  /// Per-operation retry around shard flaps and injected RPC drops. The
  /// default budget rides out short outages; permanently-down shards still
  /// surface Unavailable once the policy is exhausted.
  RetryPolicy retry{};
};

class KvCluster {
 public:
  KvCluster(net::Fabric& fabric, KvClusterOptions options);

  size_t NumShards() const { return shards_.size(); }
  Shard& shard(uint32_t i) { return *shards_.at(i); }
  sim::NodeId ShardNode(uint32_t i) const { return shard_node_.at(i); }
  uint32_t OwnerShard(const std::string& key) const { return ring_.Owner(key); }

  // -- data plane (all charge virtual time on `clock`) --------------------
  Status Put(sim::VirtualClock& clock, sim::NodeId client, std::string key,
             std::string value);
  Result<std::string> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key);
  Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                const std::string& key);

  /// Pipelined multi-put: entries are grouped per owning shard, one RPC per
  /// shard, per-entry service time still paid at the shard.
  Status BatchPut(sim::VirtualClock& clock, sim::NodeId client,
                  std::vector<std::pair<std::string, std::string>> entries);

  /// Pipelined multi-get (one RPC per owning shard). Result i corresponds to
  /// keys[i]; missing keys yield nullopt. Unavailable if any owning shard is
  /// down.
  Result<std::vector<std::optional<std::string>>> MGet(
      sim::VirtualClock& clock, sim::NodeId client,
      const std::vector<std::string>& keys);

  /// Prefix scan across all shards, merged in key order.
  Result<std::vector<ScanEntry>> PScan(sim::VirtualClock& clock,
                                       sim::NodeId client,
                                       const std::string& prefix,
                                       size_t limit = 0);

  // -- failure injection ---------------------------------------------------
  void FailShard(uint32_t i) { shards_.at(i)->Fail(); }
  void RestartShard(uint32_t i) { shards_.at(i)->Restart(); }
  /// Fail every shard hosted on `node` (machine crash).
  void FailShardsOnNode(sim::NodeId node);
  /// Restart every shard hosted on `node` (machine back up; shards come back
  /// empty — callers redrive metadata via DieselServer::RecoverMetadata).
  void RestartShardsOnNode(sim::NodeId node);

  size_t TotalKeys() const;

  /// Forget all shard service-queue state (fresh experiment repetition).
  void ResetDevices() {
    for (auto& s : shards_) s->service().Reset();
  }

 private:
  Status CheckShardUp(uint32_t s) const;

  net::Fabric& fabric_;
  KvClusterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<sim::NodeId> shard_node_;
};

}  // namespace diesel::kv
