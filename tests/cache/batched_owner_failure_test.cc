// Batched reads (TaskCache::GetFiles) against an owner node that fails and
// later comes back. The equivalence suite keeps every owner reachable; this
// test drives the multi-get through the other half of the owner-fetch loop:
// the exchange fails, the owner's circuit breaker opens, every file of that
// owner degrades to a direct server read, and a half-open probe after the
// cooldown recovers the owner. Every returned file must still carry the
// dataset's bytes.
#include <gtest/gtest.h>

#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel::cache {
namespace {

constexpr sim::NodeId kFailedOwner = 1;

class BatchedOwnerFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions opts;
    opts.num_client_nodes = 4;
    deployment_ = std::make_unique<core::Deployment>(opts);

    spec_.name = "bof";
    spec_.num_classes = 2;
    spec_.files_per_class = 48;
    spec_.mean_file_bytes = 2048;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());

    for (uint32_t n = 0; n < 4; ++n) {
      for (uint32_t i = 0; i < 2; ++i) {
        clients_.push_back(deployment_->MakeClient(n, i, spec_.name));
        registry_.Register(clients_.back()->endpoint());
      }
    }
    ASSERT_TRUE(clients_[0]->FetchSnapshot().ok());
    snapshot_ = clients_[0]->snapshot();
  }

  /// Read dataset files [begin, end) as one GetFiles call from node 0,
  /// verify every returned file, and return how many of them the failed
  /// owner serves.
  size_t ReadGroup(TaskCache& cache, sim::VirtualClock& clock, size_t begin,
                   size_t end) {
    std::vector<core::FileMeta> metas;
    size_t owned = 0;
    for (size_t i = begin; i < end; ++i) {
      const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, i));
      EXPECT_NE(m, nullptr);
      metas.push_back(*m);
      if (cache.OwnerNodeOfChunk(snapshot_->ChunkIndex(m->chunk)).value() ==
          kFailedOwner) {
        ++owned;
      }
    }
    auto slices = cache.GetFiles(clock, clients_[0]->endpoint(), metas);
    EXPECT_TRUE(slices.ok()) << slices.status().ToString();
    if (!slices.ok()) return owned;
    EXPECT_EQ(slices->size(), metas.size());
    for (size_t j = 0; j < slices->size(); ++j) {
      EXPECT_TRUE(dlt::VerifyContent(spec_, begin + j, (*slices)[j].view()))
          << "file " << begin + j;
    }
    return owned;
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
  std::vector<std::unique_ptr<core::DieselClient>> clients_;
  TaskRegistry registry_;
  const core::MetadataSnapshot* snapshot_ = nullptr;
};

TEST_F(BatchedOwnerFailureTest, FailedOwnerOpensBreakerDegradesAndRecovers) {
  TaskCacheOptions opts;
  opts.policy = CachePolicy::kOneshot;
  TaskCache cache(deployment_->fabric(), deployment_->server(0), *snapshot_,
                  registry_, opts);
  ASSERT_TRUE(cache.Preload(0).ok());
  ASSERT_GE(opts.retry.max_attempts, opts.breaker.failure_threshold);

  const size_t total = spec_.total_files();
  const size_t third = total / 3;
  deployment_->cluster().FailNode(kFailedOwner);
  sim::VirtualClock clock;

  // Outage, breaker closed: the multi-get to the failed owner burns its
  // attempts, which opens the breaker; every one of the owner's files then
  // falls back to the per-file path and degrades to a server read.
  const size_t first = ReadGroup(cache, clock, 0, third);
  ASSERT_GE(first, 2u) << "the group must batch against the failed owner";
  TaskCacheStats s = cache.stats();
  EXPECT_GE(s.breaker_opens, 1u);
  EXPECT_EQ(s.failovers, first);
  EXPECT_EQ(s.node_recoveries, 0u);

  // Outage, breaker open: no exchange is attempted; the owner's files fail
  // over again, one failover each.
  const size_t second = ReadGroup(cache, clock, third, 2 * third);
  ASSERT_GE(second, 2u);
  s = cache.stats();
  EXPECT_GE(s.breaker_opens, 1u);
  EXPECT_EQ(s.failovers, first + second);
  EXPECT_EQ(s.node_recoveries, 0u);

  // The owner is back and the cooldown has passed: the next multi-get is
  // the half-open probe, it succeeds, and the owner counts as recovered.
  deployment_->cluster().RecoverNode(kFailedOwner);
  clock.Advance(opts.breaker.cooldown + Millis(1));
  const uint64_t peer_hits_before = s.peer_hits;
  const size_t third_group = ReadGroup(cache, clock, 2 * third, total);
  ASSERT_GE(third_group, 2u);
  s = cache.stats();
  EXPECT_GE(s.node_recoveries, 1u);
  EXPECT_EQ(s.failovers, first + second);
  EXPECT_GE(s.peer_hits - peer_hits_before, third_group);
}

}  // namespace
}  // namespace diesel::cache
