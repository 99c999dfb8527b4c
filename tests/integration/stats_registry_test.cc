// Name-table agreement: every per-instance stats field of TaskCache,
// PrefetchScheduler and GroupWindowReader equals the registry delta of the
// unlabeled series counting the same event. The expected (field, series)
// pairs are spelled out here, independently of the modules' own name
// tables, so a mis-paired or misspelled row fails this test.
//
// One workload moves every field (GroupReaderStats::peak_window_bytes is a
// per-reader max with no series): a capacity-bound cache under a prefetch
// scheduler with pins, an owner flap and corrupted fetches, a mid-epoch join
// that migrates chunks, a teardown into a shared tier, a second task that
// adopts from that tier and re-owns around a crash, and a shuffle epoch.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/task_cache.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "membership/membership.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "prefetch/scheduler.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"
#include "tenant/fabric.h"

namespace diesel {
namespace {

constexpr size_t kMembers = 4;

template <typename Stats>
struct Pair {
  uint64_t Stats::*field;
  const char* series;
  bool gauge = false;
};

const std::vector<Pair<cache::TaskCacheStats>>& CachePairs() {
  using S = cache::TaskCacheStats;
  static const std::vector<Pair<S>> pairs = {
      {&S::local_hits, "cache.local_hits"},
      {&S::peer_hits, "cache.peer_hits"},
      {&S::chunk_loads, "cache.chunk_loads"},
      {&S::evictions, "cache.evictions"},
      {&S::bytes_cached, "cache.bytes_cached", true},
      {&S::failovers, "cache.failovers"},
      {&S::breaker_opens, "cache.breaker_opens"},
      {&S::node_recoveries, "cache.node_recoveries"},
      {&S::corruptions_detected, "cache.corruptions_detected"},
      {&S::evicted_bytes, "cache.evicted_bytes"},
      {&S::pinned_chunks, "cache.pinned_chunks", true},
      {&S::prefetch_hits, "prefetch.hit"},
      {&S::prefetch_late, "prefetch.late"},
      {&S::prefetch_wasted, "prefetch.wasted"},
      {&S::migrated_chunks, "membership.migrated_chunks"},
      {&S::migrated_bytes, "membership.migrated_bytes"},
      {&S::reown_chunks, "membership.reown_chunks"},
      {&S::reown_skipped, "cache.reown_skipped"},
      {&S::adopted_chunks, "tenant.adopted_chunks"},
      {&S::adopted_bytes, "tenant.adopted_bytes"},
      {&S::demoted_chunks, "tenant.demoted_chunks"},
      {&S::demoted_bytes, "tenant.demoted_bytes"},
      {&S::discarded_bytes, "tenant.discarded_bytes"},
  };
  return pairs;
}

const std::vector<Pair<prefetch::PrefetchSchedulerStats>>& SchedulerPairs() {
  using S = prefetch::PrefetchSchedulerStats;
  static const std::vector<Pair<S>> pairs = {
      {&S::issued, "prefetch.issued"},
      {&S::completed, "prefetch.completed"},
      {&S::cancelled, "prefetch.cancelled"},
      {&S::skipped_resident, "prefetch.skipped_resident"},
      {&S::skipped_down, "prefetch.skipped_down"},
      {&S::rescales, "prefetch.rescales"},
      {&S::retargeted, "prefetch.retargeted"},
  };
  return pairs;
}

const std::vector<Pair<shuffle::GroupReaderStats>>& ReaderPairs() {
  using S = shuffle::GroupReaderStats;
  static const std::vector<Pair<S>> pairs = {
      {&S::files_read, "shuffle.files_read"},
      {&S::bytes_read, "shuffle.bytes_read"},
      {&S::chunk_fetches, "shuffle.chunk_fetches"},
      {&S::chunk_bytes_fetched, "shuffle.chunk_bytes"},
      {&S::groups_entered, "shuffle.groups_entered"},
  };
  return pairs;
}

/// Each field, summed over `instances`, must equal its series' delta;
/// series whose field is non-zero are added to `moved`.
template <typename Stats>
void ExpectBooksAgree(const std::vector<Stats>& instances,
                      const std::vector<Pair<Stats>>& pairs,
                      const obs::MetricsSnapshot& delta,
                      std::set<std::string>& moved) {
  for (const Pair<Stats>& p : pairs) {
    uint64_t sum = 0;
    for (const Stats& s : instances) sum += s.*p.field;
    if (p.gauge) {
      auto it = delta.gauges.find(p.series);
      const double series = it == delta.gauges.end() ? 0.0 : it->second;
      EXPECT_EQ(series, static_cast<double>(sum)) << p.series;
    } else {
      EXPECT_EQ(delta.SumCounters(p.series), sum) << p.series;
    }
    if (sum != 0) moved.insert(p.series);
  }
}

struct Task {
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  membership::MembershipTable table;
  std::unique_ptr<cache::TaskCache> cache;
};

/// A task over the first kMembers client nodes (one client each, I/O worker
/// `worker`) with its membership table bootstrapped and attached.
std::unique_ptr<Task> MakeTask(core::Deployment& dep, const std::string& ds,
                               uint32_t worker, cache::TaskCacheOptions opts) {
  auto t = std::make_unique<Task>();
  for (size_t n = 0; n < kMembers; ++n) {
    t->clients.push_back(dep.MakeClient(n, worker, ds));
    t->registry.Register(t->clients.back()->endpoint());
  }
  EXPECT_TRUE(t->clients[0]->FetchSnapshot().ok());
  t->cache = std::make_unique<cache::TaskCache>(
      dep.fabric(), dep.server(0), *t->clients[0]->snapshot(), t->registry,
      opts);
  t->cache->EstablishConnections();
  std::vector<sim::NodeId> initial(kMembers);
  for (size_t n = 0; n < kMembers; ++n) initial[n] = dep.client_node(n);
  t->table.Bootstrap(initial, 0);
  t->cache->AttachMembership(t->table);
  return t;
}

/// Odd chunks are never read again this epoch; even ones are next.
class OddChunksDead : public cache::EvictionOracle {
 public:
  uint64_t NextAccessAfter(size_t chunk_index, uint64_t cursor) const override {
    return chunk_index % 2 == 0 ? cursor + 1 : kNever;
  }
};

TEST(StatsRegistryTest, EveryStatsFieldEqualsItsSeriesDelta) {
  const obs::MetricsSnapshot start = obs::Metrics().Snapshot();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kMembers + 1;  // one spare node joins mid-epoch
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec;
  spec.name = "books";
  spec.num_classes = 2;
  spec.files_per_class = 64;
  spec.mean_file_bytes = 2048;
  spec.fixed_size = true;
  auto writer = dep.MakeClient(0, 9, spec.name, 8 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());
  dep.ResetDevices();
  tenant::CacheFabric shared(dep.fabric());

  // Task A: on-demand cache bound to 3/4 of each node's share of the data,
  // under a scheduler whose byte budget exceeds the partition, so pins can
  // saturate it and later fills are denied (cancelled); the lookahead keeps
  // fills pending, so the join retargets some. Node 1 flaps early on: node
  // 0's reads of its chunks fail over until the breaker opens, and a probe
  // after the cooldown recovers it.
  net::FaultPlan plan;
  plan.node_flaps.push_back({dep.client_node(1), Millis(1), Millis(30)});
  plan.corrupt_chunk_fetches = {0, 1};
  net::FaultInjector injector(plan);
  dep.fabric().set_fault_injector(&injector);
  cache::TaskCacheOptions a_opts;
  const uint64_t payload = spec.total_files() * spec.mean_file_bytes;
  a_opts.per_node_capacity_bytes = payload / kMembers * 3 / 4 + 4096;
  std::unique_ptr<Task> a = MakeTask(dep, spec.name, 0, a_opts);
  a->cache->AttachSharedTier(
      shared.RegisterTenant(spec.name, {.name = "a"}));
  const core::MetadataSnapshot& snap = *a->clients[0]->snapshot();
  prefetch::PrefetchOptions popts;
  popts.budget_bytes_per_node = 4 * a_opts.per_node_capacity_bytes;
  popts.lookahead_files = 48;
  prefetch::PrefetchScheduler sched(*a->cache, dep.fabric(), snap, popts);
  sched.AttachMembership(a->table);

  Rng rng(7);
  sim::VirtualClock w;
  for (int epoch = 0; epoch < 2; ++epoch) {
    shuffle::ShufflePlan order =
        shuffle::ChunkWiseShuffle(snap, {.group_size = 3}, rng);
    sched.StartEpoch(order, w.now());
    const size_t n = order.file_order.size();
    for (size_t pos = 0; pos < (epoch == 0 ? n : n / 2); ++pos) {
      if (epoch == 0 && pos == n / 4) {
        a->table.Join(dep.client_node(kMembers), w.now());
      }
      sched.Advance(pos, w.now());
      const core::FileMeta& fm = snap.files()[order.file_order[pos]];
      auto r = a->cache->GetFile(w, a->clients[0]->endpoint(), fm);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      w.Advance(Micros(400));
    }
  }
  dep.fabric().set_fault_injector(nullptr);

  // Mid-epoch checkpoint: fills are pinned and bytes resident.
  std::set<std::string> moved;
  {
    const obs::MetricsSnapshot delta = obs::Metrics().Snapshot().DeltaSince(
        start);
    ExpectBooksAgree<cache::TaskCacheStats>({a->cache->stats()}, CachePairs(),
                                            delta, moved);
    ExpectBooksAgree<prefetch::PrefetchSchedulerStats>(
        {sched.stats()}, SchedulerPairs(), delta, moved);
  }
  // Orderly end of task A mid-epoch: resident chunks demote into the shared
  // tier, and a fill nobody read yet dies wasted.
  sched.FinishEpoch();
  size_t cold = 0;
  while (cold < snap.chunks().size() && a->cache->ChunkResident(cold)) ++cold;
  ASSERT_LT(cold, snap.chunks().size());
  sim::VirtualClock stream(w.now());
  auto fill = a->cache->PrefetchChunk(stream, cold);
  ASSERT_TRUE(fill.ok() && fill->inserted);
  a->cache->Teardown(stream.now());

  // Task B: oneshot preload adopts A's demoted chunks; a crash under an
  // oracle that declares odd chunks dead re-owns only the even ones; its
  // teardown with the tier detached discards everything.
  cache::TaskCacheOptions b_opts;
  b_opts.policy = cache::CachePolicy::kOneshot;
  std::unique_ptr<Task> b = MakeTask(dep, spec.name, 1, b_opts);
  b->cache->AttachSharedTier(
      shared.RegisterTenant(spec.name, {.name = "b"}));
  ASSERT_TRUE(b->cache->Preload(0).ok());
  // The victim owns both a live (even) and a dead (odd) chunk.
  sim::NodeId victim = sim::kInvalidNode;
  for (size_t n = 0; n < kMembers && victim == sim::kInvalidNode; ++n) {
    bool even = false, odd = false;
    for (size_t ci = 0; ci < snap.chunks().size(); ++ci) {
      if (b->cache->OwnerNodeOfChunk(ci).value() == dep.client_node(n)) {
        (ci % 2 == 0 ? even : odd) = true;
      }
    }
    if (even && odd) victim = dep.client_node(n);
  }
  ASSERT_NE(victim, sim::kInvalidNode);
  OddChunksDead oracle;
  b->cache->InstallEvictionOracle(&oracle);
  b->cache->SetEpochCursor(0);
  b->table.Crash(victim, Millis(5));
  b->cache->InstallEvictionOracle(nullptr);
  b->cache->AttachSharedTier(nullptr);
  b->cache->Teardown(b->cache->last_transition_end());

  // A shuffle epoch through the group window.
  shuffle::GroupWindowReader reader(dep.server(0), snap, dep.client_node(0));
  reader.StartEpoch(shuffle::ChunkWiseShuffle(snap, {.group_size = 3}, rng));
  sim::VirtualClock rclock;
  while (!reader.Done()) ASSERT_TRUE(reader.Next(rclock).ok());

  const obs::MetricsSnapshot delta = obs::Metrics().Snapshot().DeltaSince(
      start);
  ExpectBooksAgree<cache::TaskCacheStats>(
      {a->cache->stats(), b->cache->stats()}, CachePairs(), delta, moved);
  ExpectBooksAgree<prefetch::PrefetchSchedulerStats>(
      {sched.stats()}, SchedulerPairs(), delta, moved);
  ExpectBooksAgree<shuffle::GroupReaderStats>({reader.stats()}, ReaderPairs(),
                                              delta, moved);

  // The workload really moved every field (a zero on both sides proves
  // nothing about the pairing).
  auto expect_moved = [&](const auto& pairs) {
    for (const auto& p : pairs) {
      EXPECT_EQ(moved.count(p.series), 1u) << p.series << " never moved";
    }
  };
  expect_moved(CachePairs());
  expect_moved(SchedulerPairs());
  expect_moved(ReaderPairs());
}

}  // namespace
}  // namespace diesel
