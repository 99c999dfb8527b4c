// Memcached-cluster baseline (global in-memory caching system, §2.2/§6).
//
// Mirrors the paper's comparison setup: one memcached instance per node
// behind twemproxy instances that provide consistent hashing and a unified
// namespace. Every operation is an individual network RPC (libMemcached has
// no batch write mode), which is exactly the overhead Figs. 9/11 measure.
// Disabling an instance does NOT remap the ring (twemproxy keeps routing to
// it); lookups that land there miss — the Fig. 6 failure experiment.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kv/ring.h"
#include "net/fabric.h"
#include "sim/clock.h"
#include "sim/device.h"

namespace diesel::memcache {

struct MemcacheOptions {
  std::vector<sim::NodeId> nodes;   // one instance per node
};

class MemcachedCluster {
 public:
  MemcachedCluster(net::Fabric& fabric, MemcacheOptions options);

  size_t NumInstances() const { return instances_.size(); }

  /// Store an item (one RPC through the node-local proxy to the owner).
  Status Set(sim::VirtualClock& clock, sim::NodeId client, std::string key,
             std::string value);

  /// Fetch; NotFound = cache miss (instance disabled or item absent).
  Result<std::string> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key);

  Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                const std::string& key);

  /// Which instance index owns a key (for tests / targeted failures).
  uint32_t OwnerInstance(const std::string& key) const {
    return ring_.Owner(key);
  }

  /// Disable the instance on `instance_index`: its items become misses.
  void DisableInstance(uint32_t instance_index);
  void EnableInstance(uint32_t instance_index);
  bool InstanceEnabled(uint32_t instance_index) const;

  /// Count of items currently stored across enabled instances.
  size_t TotalItems() const;

 private:
  struct Instance {
    sim::NodeId node;
    std::unique_ptr<sim::Device> service;   // memcached worker threads
    std::unique_ptr<sim::Device> proxy;     // twemproxy instances on the node
    mutable std::mutex mutex;
    bool enabled = true;
    std::unordered_map<std::string, std::string> items;
  };

  template <typename Fn>
  Status Rpc(sim::VirtualClock& clock, sim::NodeId client, Instance& inst,
             uint64_t req_bytes, uint64_t resp_bytes, Nanos proxy_cost,
             Fn&& apply);

  net::Fabric& fabric_;
  kv::HashRing ring_;
  std::vector<std::unique_ptr<Instance>> instances_;
};

}  // namespace diesel::memcache
