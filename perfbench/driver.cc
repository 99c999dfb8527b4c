// Repo benchmark driver: three named workloads against the simulated DIESEL
// stack, driven only through its public APIs, reporting every metric on
// both clocks (host time and modeled virtual time).
//
//   perfbench_driver --workload <train_warm|train_pressure|ingest_meta>
//                    --seed <n> --seconds <s> --trace <0|1>
//   perfbench_driver --list     (every workload and metric name with unit)
//
// All logical clients are virtual clocks advanced by this one host thread,
// closed loop: the client with the earliest clock issues its next request.
// A run is a series of identical trials: set the workload up, then run a
// fixed number of rounds (one epoch, or one ingest batch). Trials repeat
// until --seconds have passed (at least kMinTrials). Work per trial is fixed
// because host cost grows with the simulated history (device busy lists),
// so a time-bounded trial would measure different work on a faster
// program. Every virtual metric and per-layer count comes from trial 0, so
// one seed gives bit-identical values however fast the host is. Outputs
// are verified after each round, outside the timed region. See README.md
// for the workloads, the metric map and how host time is summarized.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/chunk_buffer.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/pipeline.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "prefetch/scheduler.h"
#include "shuffle/shuffle.h"
#include "stats.h"

namespace perfbench {
namespace {

using diesel::Micros;
using diesel::Millis;
using diesel::Nanos;
using diesel::Rng;
using diesel::Status;
namespace cache = diesel::cache;
namespace core = diesel::core;
namespace dlt = diesel::dlt;
namespace net = diesel::net;
namespace obs = diesel::obs;
namespace prefetch = diesel::prefetch;
namespace shuffle = diesel::shuffle;
namespace sim = diesel::sim;

/// A run is at least this many identical trials (set-up plus a fixed
/// number of rounds); it adds trials until --seconds have passed. Trial 0
/// warms the process up (first-touch page faults, allocator growth) and is
/// left out of the host statistics, which are medians over the rest.
constexpr size_t kMinTrials = 5;

int64_t HostNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- benchmark-side spans ---------------------------------------------------

/// Records one Span per call the benchmark makes into a layer, only while
/// enabled. Kept in memory; written out once when the run ends.
class Trace {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(Trace& trace, std::string_view name, Nanos virt_begin,
          uint64_t request = 0)
        : trace_(trace.enabled_ ? &trace : nullptr) {
      if (!trace_) return;
      index_ = trace_->spans_.size();
      Span s;
      s.name = name;
      s.virt_begin = static_cast<int64_t>(virt_begin);
      s.virt_end = s.virt_begin;
      if (!trace_->open_.empty()) {
        s.parent = trace_->open_.back();
        s.request = request ? request : trace_->spans_[s.parent].request;
      } else {
        s.request = request;
      }
      trace_->spans_.push_back(s);
      trace_->open_.push_back(index_);
      trace_->spans_[index_].host_begin = HostNow();
    }
    void End(Nanos virt_end) {
      if (!trace_) return;
      Span& s = trace_->spans_[index_];
      s.host_end = HostNow();
      s.virt_end = static_cast<int64_t>(virt_end);
      trace_->open_.pop_back();
      trace_ = nullptr;
    }
    ~Scope() {
      if (trace_) End(static_cast<Nanos>(trace_->spans_[index_].virt_begin));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    size_t index_ = 0;
  };

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// ---- per-run tallies --------------------------------------------------------

/// What the workloads count over one trial.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;       // operations that returned an error
  uint64_t wrong = 0;        // operations that returned wrong bytes/values
  std::vector<double> read_us, write_us, meta_us;
  // Layer inputs.
  uint64_t files_read = 0;
  uint64_t bytes_delivered = 0;
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;
  uint64_t meta_ops = 0;
  uint64_t epochs = 0;
  Nanos virt_elapsed = 0;
  uint64_t virt_ops = 0;
  Nanos dlt_fetch = 0, dlt_train = 0, dlt_shuffle = 0, dlt_total = 0;
  uint64_t chunk_target_bytes = 0;  // writers' chunk size (ingest only)
};

/// Host time of a round, cut into blocks of kBlockOps operations so that
/// the repeats of a trial can be compared block by block (see
/// FloorTrialSeconds). Verification runs after Finish, outside any block.
class HostBlocks {
 public:
  static constexpr uint64_t kBlockOps = 64;

  void Start() { last_ = HostNow(); }
  void Add(uint64_t ops) {
    ops_ += ops;
    if (ops_ >= kBlockOps) {
      ops_ = 0;
      Cut();
    }
  }
  void Finish() { Cut(); }
  const std::vector<double>& seconds() const { return seconds_; }
  double total() const {
    double t = 0;
    for (double s : seconds_) t += s;
    return t;
  }

 private:
  void Cut() {
    int64_t now = HostNow();
    seconds_.push_back(static_cast<double>(now - last_) / 1e9);
    last_ = now;
  }

  int64_t last_ = 0;
  uint64_t ops_ = 0;
  std::vector<double> seconds_;
};

struct RoundResult {
  HostBlocks host;  // host time of the timed calls (verification excluded)
  uint64_t ops = 0;
  Nanos virt = 0;   // virtual duration of the round
};

void Check(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
  std::exit(2);
}

/// Generation index of a file from its dlt::FilePath-shaped path.
size_t GenIndex(const dlt::DatasetSpec& spec, const std::string& path) {
  size_t cls = 0, i = 0;
  auto pos = path.rfind("/cls");
  if (pos == std::string::npos ||
      std::sscanf(path.c_str() + pos, "/cls%zu/img%zu.bin", &cls, &i) != 2) {
    std::fprintf(stderr, "perfbench: unexpected path %s\n", path.c_str());
    std::exit(2);
  }
  return i * spec.num_classes + cls;
}

/// One slice handed back by the cache, kept for verification after the
/// timed round.
struct Returned {
  size_t gen_index;
  core::FileSlice slice;
};

void VerifyReturned(const dlt::DatasetSpec& spec,
                    std::vector<Returned>& returned, Tally& tally) {
  for (const Returned& r : returned) {
    if (!dlt::VerifyContent(spec, r.gen_index, r.slice.view())) ++tally.wrong;
  }
  returned.clear();
}

/// Ingest every file of `spec` through one client and flush.
void Ingest(core::Deployment& dep, const dlt::DatasetSpec& spec,
            uint64_t chunk_bytes, std::vector<uint64_t>* sizes = nullptr) {
  auto writer = dep.MakeClient(0, 99, spec.name, chunk_bytes);
  Check(dlt::ForEachFile(spec,
                         [&](const dlt::GeneratedFile& f) {
                           if (sizes) sizes->push_back(f.content.size());
                           return writer->Put(f.path, f.content);
                         }),
        "ingest");
  Check(writer->Flush(), "ingest flush");
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the timed phase needs, replacing any earlier set-up.
  virtual void Setup(uint64_t seed, Trace& trace) = 0;
  /// One round of the timed phase.
  virtual RoundResult Round(size_t round, Trace& trace, Tally& tally) = 0;
};

// ---- train_warm -------------------------------------------------------------
//
// Cache-resident multi-epoch training reads: 8 client nodes x 4 loaders, a
// oneshot-preloaded TaskCache, each epoch a fresh ChunkWiseShuffle whose
// PartitionPlan shares the 32 loaders read in mini-batches via GetFiles.
// Every read is a local or one-hop peer hit: the hot read path and NIC
// scheduling do the work; backend, KV, prefetch and ostore stay idle.
class TrainWarm : public Workload {
 public:
  static constexpr size_t kNodes = 8;
  static constexpr size_t kLoadersPerNode = 4;
  static constexpr size_t kLoaders = kNodes * kLoadersPerNode;
  static constexpr size_t kBatch = 8;
  static constexpr size_t kGroupChunks = 2;
  static constexpr uint64_t kChunkBytes = 512 * 1024;

  void Setup(uint64_t seed, Trace& trace) override {
    env_.reset();
    env_ = std::make_unique<Env>();
    Env& e = *env_;
    e.spec.name = "warm";
    e.spec.num_classes = 64;
    e.spec.files_per_class = 320;  // 20480 files x ~8 KB
    e.spec.mean_file_bytes = 8 * 1024;
    e.spec.seed = seed;
    e.rng = Rng(seed ^ 0x5741524DULL);
    e.dep = std::make_unique<core::Deployment>(
        core::DeploymentOptions{.num_client_nodes = kNodes});
    Ingest(*e.dep, e.spec, kChunkBytes);
    e.dep->ResetDevices();
    for (size_t c = 0; c < kLoaders; ++c) {
      e.clients.push_back(e.dep->MakeClient(
          c % kNodes, static_cast<uint32_t>(c / kNodes), e.spec.name));
      e.registry.Register(e.clients.back()->endpoint());
    }
    {
      Trace::Scope span(trace, "FetchSnapshot", e.clients[0]->clock().now());
      Check(e.clients[0]->FetchSnapshot(), "FetchSnapshot");
      span.End(e.clients[0]->clock().now());
    }
    const core::MetadataSnapshot& snap = *e.clients[0]->snapshot();
    for (const core::FileMeta& fm : snap.files()) {
      e.gen_index.push_back(GenIndex(e.spec, fm.full_name));
    }
    cache::TaskCacheOptions copts;
    copts.policy = cache::CachePolicy::kOneshot;
    e.cache = std::make_unique<cache::TaskCache>(
        e.dep->fabric(), e.dep->server(0), snap, e.registry, copts);
    e.cache->EstablishConnections();
    Trace::Scope span(trace, "Preload", 0);
    auto end = e.cache->Preload(0);
    Check(end.status(), "Preload");
    span.End(*end);
    e.t = *end;
  }

  RoundResult Round(size_t, Trace& trace, Tally& tally) override {
    Env& e = *env_;
    const core::MetadataSnapshot& snap = *e.clients[0]->snapshot();
    std::vector<Returned> returned;
    returned.reserve(snap.num_files());
    RoundResult rr;
    const Nanos t0 = e.t;
    rr.host.Start();
    shuffle::ShufflePlan plan;
    {
      Trace::Scope span(trace, "ChunkWiseShuffle", t0);
      plan = shuffle::ChunkWiseShuffle(snap, {.group_size = kGroupChunks},
                                       e.rng);
    }
    std::vector<shuffle::ShufflePlan> shares;
    shares.reserve(kLoaders);
    for (size_t l = 0; l < kLoaders; ++l) {
      shares.push_back(shuffle::PartitionPlan(plan, l, kLoaders));
    }
    std::vector<sim::VirtualClock> clocks(kLoaders, sim::VirtualClock(t0));
    std::vector<size_t> cursor(kLoaders, 0);
    std::vector<core::FileMeta> metas;
    for (;;) {
      size_t next = kLoaders;
      for (size_t l = 0; l < kLoaders; ++l) {
        if (cursor[l] >= shares[l].file_order.size()) continue;
        if (next == kLoaders || clocks[l].now() < clocks[next].now()) next = l;
      }
      if (next == kLoaders) break;
      const auto& order = shares[next].file_order;
      size_t end = std::min(cursor[next] + kBatch, order.size());
      metas.clear();
      for (size_t i = cursor[next]; i < end; ++i) {
        metas.push_back(snap.files()[order[i]]);
      }
      sim::VirtualClock& clock = clocks[next];
      Nanos before = clock.now();
      Trace::Scope span(trace, "GetFiles", before, ++e.request);
      auto r = e.cache->GetFiles(clock, e.clients[next]->endpoint(), metas);
      span.End(clock.now());
      tally.attempted += metas.size();
      if (!r.ok()) {
        tally.failed += metas.size();
      } else {
        for (size_t k = 0; k < metas.size(); ++k) {
          returned.push_back({e.gen_index[order[cursor[next] + k]],
                              std::move((*r)[k])});
          tally.bytes_delivered += metas[k].length;
        }
      }
      tally.read_us.push_back(ToMicros(clock.now() - before));
      rr.ops += metas.size();
      rr.host.Add(metas.size());
      cursor[next] = end;
    }
    rr.host.Finish();
    Nanos t1 = t0;
    for (const auto& c : clocks) t1 = std::max(t1, c.now());
    e.t = t1;
    rr.virt = t1 - t0;
    tally.files_read += rr.ops;
    ++tally.epochs;
    VerifyReturned(e.spec, returned, tally);
    return rr;
  }

 private:
  static double ToMicros(Nanos ns) { return static_cast<double>(ns) / 1e3; }

  struct Env {
    dlt::DatasetSpec spec;
    Rng rng;
    // Declaration order = destruction order reversed: the cache references
    // the snapshot (clients[0]) and the deployment.
    std::unique_ptr<core::Deployment> dep;
    std::vector<std::unique_ptr<core::DieselClient>> clients;
    cache::TaskRegistry registry;
    std::unique_ptr<cache::TaskCache> cache;
    std::vector<size_t> gen_index;  // snapshot file index -> spec index
    Nanos t = 0;
    uint64_t request = 0;
  };
  std::unique_ptr<Env> env_;
};

// ---- train_pressure ---------------------------------------------------------
//
// Training through dlt::TrainingPipeline with an on-demand cache capped at
// half of each node's partition (256 KB chunks), the clairvoyant
// PrefetchScheduler with Belady eviction, a 20 us GPU step so fetch stall
// is a visible share (~1/4) of the epoch, and a seeded fault plan: ~1% RPC
// drops, one-shot payload corruption of a few chunk fetches and one flap of
// an owner node that hosts no reading client. Misses, evictions, backend chunk
// loads, parse/CRC, prefetch and the retry/breaker/degraded-read loop do the
// work; device queues stay shallow.
class TrainPressure : public Workload {
 public:
  static constexpr size_t kReaderNodes = 4;
  static constexpr size_t kClientsPerNode = 2;
  static constexpr size_t kReaders = kReaderNodes * kClientsPerNode;
  /// Owner node kReaderNodes caches a partition but reads nothing, so its
  /// flap exercises peer failover rather than a reader's own outage.
  static constexpr size_t kNodes = kReaderNodes + 1;
  static constexpr size_t kBatch = 4;
  static constexpr size_t kGroupChunks = 4;
  static constexpr uint64_t kChunkBytes = 256 * 1024;
  static constexpr Nanos kShuffleCost = Millis(1);
  static constexpr sim::ModelCompute kStep = {"step", Micros(20)};

  void Setup(uint64_t seed, Trace& trace) override {
    env_.reset();
    env_ = std::make_unique<Env>();
    Env& e = *env_;
    e.spec.name = "pressure";
    e.spec.num_classes = 32;
    e.spec.files_per_class = 128;  // 4096 files x ~8 KB
    e.spec.mean_file_bytes = 8 * 1024;
    e.spec.seed = seed;
    e.rng = Rng(seed ^ 0x50524553ULL);
    e.dep = std::make_unique<core::Deployment>(
        core::DeploymentOptions{.num_client_nodes = kNodes});
    Ingest(*e.dep, e.spec, kChunkBytes);
    e.dep->ResetDevices();
    for (size_t n = 0; n < kNodes; ++n) {
      for (size_t c = 0; c < kClientsPerNode; ++c) {
        e.clients.push_back(
            e.dep->MakeClient(n, static_cast<uint32_t>(c), e.spec.name));
        e.registry.Register(e.clients.back()->endpoint());
      }
    }
    {
      Trace::Scope span(trace, "FetchSnapshot", e.clients[0]->clock().now());
      Check(e.clients[0]->FetchSnapshot(), "FetchSnapshot");
      span.End(e.clients[0]->clock().now());
    }
    const core::MetadataSnapshot& snap = *e.clients[0]->snapshot();
    uint64_t payload = 0;
    for (const core::FileMeta& fm : snap.files()) {
      e.gen_index.push_back(GenIndex(e.spec, fm.full_name));
      payload += fm.length;
    }
    cache::TaskCacheOptions copts;
    copts.per_node_capacity_bytes = payload / kNodes / 2;
    // Retry headroom so 1% drops never exhaust a read's attempts.
    copts.retry.max_attempts = 10;
    copts.retry.initial_backoff = Micros(100);
    copts.breaker.cooldown = Millis(1);
    e.cache = std::make_unique<cache::TaskCache>(
        e.dep->fabric(), e.dep->server(0), snap, e.registry, copts);
    e.cache->EstablishConnections();
    e.sched = std::make_unique<prefetch::PrefetchScheduler>(
        *e.cache, e.dep->fabric(), snap,
        prefetch::PrefetchOptions{.belady_eviction = true});

    net::FaultPlan plan;
    plan.seed = seed;
    plan.rpc_drop_prob = 0.01;
    plan.fault_detect_timeout = Micros(200);
    // Epochs last ~28 virtual ms, so the flap lands in the second one.
    plan.node_flaps.push_back({.node = e.dep->client_node(kReaderNodes),
                               .down_at = Millis(40),
                               .up_at = Millis(60)});
    Rng pick(seed ^ 0x434F5252ULL);
    for (int i = 0; i < 3; ++i) {
      plan.corrupt_chunk_fetches.push_back(pick.Uniform(snap.chunks().size()));
    }
    e.faults = std::make_unique<net::FaultInjector>(plan);
    // Set-up runs clean; faults cover the training rounds only.
    e.dep->fabric().set_fault_injector(e.faults.get());
  }

  RoundResult Round(size_t, Trace& trace, Tally& tally) override {
    Env& e = *env_;
    const core::MetadataSnapshot& snap = *e.clients[0]->snapshot();
    std::vector<Returned> returned;
    returned.reserve(snap.num_files());
    RoundResult rr;
    const Nanos t0 = e.t;
    rr.host.Start();
    shuffle::ShufflePlan plan;
    {
      Trace::Scope span(trace, "ChunkWiseShuffle", t0);
      plan = shuffle::ChunkWiseShuffle(snap, {.group_size = kGroupChunks},
                                       e.rng);
    }
    dlt::PipelineOptions popts;
    popts.io_workers = kReaders;
    popts.model = kStep;
    popts.epoch_start_hook = [&](Nanos workers_start) {
      Trace::Scope span(trace, "StartEpoch", workers_start);
      e.sched->StartEpoch(plan, workers_start);
      return Status::Ok();
    };
    dlt::TrainingPipeline pipe(popts);
    const size_t files = plan.file_order.size();
    const size_t iters = (files + kBatch - 1) / kBatch;
    std::vector<core::FileMeta> metas;
    auto read_batch = [&](size_t iter, sim::VirtualClock& w) -> Status {
      const size_t begin = iter * kBatch;
      const size_t end = std::min(begin + kBatch, files);
      const uint64_t req = ++e.request;
      {
        Trace::Scope span(trace, "Advance", w.now(), req);
        e.sched->Advance(begin, w.now());
      }
      metas.clear();
      for (size_t i = begin; i < end; ++i) {
        metas.push_back(snap.files()[plan.file_order[i]]);
      }
      const Nanos before = w.now();
      Trace::Scope span(trace, "GetFiles", before, req);
      auto r = e.cache->GetFiles(w, e.clients[iter % kReaders]->endpoint(),
                                 metas);
      span.End(w.now());
      tally.attempted += metas.size();
      if (!r.ok()) {
        tally.failed += metas.size();
      } else {
        for (size_t k = 0; k < metas.size(); ++k) {
          returned.push_back(
              {e.gen_index[plan.file_order[begin + k]], std::move((*r)[k])});
          tally.bytes_delivered += metas[k].length;
        }
      }
      tally.read_us.push_back(static_cast<double>(w.now() - before) / 1e3);
      rr.host.Add(metas.size());
      // A failed read is counted, not propagated: the epoch carries on.
      return Status::Ok();
    };
    dlt::EpochResult res;
    {
      Trace::Scope span(trace, "RunEpoch", t0);
      auto r = pipe.RunEpoch(t0, iters, kShuffleCost, read_batch);
      Check(r.status(), "RunEpoch");
      res = std::move(*r);
      span.End(res.epoch_end);
    }
    e.sched->FinishEpoch();
    rr.host.Finish();
    rr.ops = files;
    rr.virt = res.epoch_end - t0;
    e.t = res.epoch_end;
    tally.files_read += files;
    ++tally.epochs;
    tally.dlt_fetch += res.phases.fetch;
    tally.dlt_train += res.phases.train;
    tally.dlt_shuffle += res.phases.shuffle;
    tally.dlt_total += res.phases.Total();
    VerifyReturned(e.spec, returned, tally);
    return rr;
  }

 private:
  struct Env {
    dlt::DatasetSpec spec;
    Rng rng;
    std::unique_ptr<core::Deployment> dep;
    std::vector<std::unique_ptr<core::DieselClient>> clients;
    cache::TaskRegistry registry;
    std::unique_ptr<cache::TaskCache> cache;
    std::unique_ptr<prefetch::PrefetchScheduler> sched;
    std::unique_ptr<net::FaultInjector> faults;
    std::vector<size_t> gen_index;
    Nanos t = 0;
    uint64_t request = 0;

    ~Env() {
      if (dep) dep->fabric().set_fault_injector(nullptr);
    }
  };
  std::unique_ptr<Env> env_;
};

// ---- ingest_meta ------------------------------------------------------------
//
// Writes beside metadata reads. Set-up ingests a base dataset. Each round,
// writers ingest a fresh dataset with Put (auto-flushing 256 KB chunks) and a
// final Flush while metadata clients, in the same closed loop, issue
// server-side Stat and List against the base dataset; the round ends with
// BuildSnapshot of the new dataset. The write path, the server service
// queue and the KV metadata plane do the work, and 16 metadata clients make
// writes and metadata reads contend there; cache, prefetch and shuffle
// stay idle.
class IngestMeta : public Workload {
 public:
  static constexpr size_t kWriters = 4;
  static constexpr size_t kMetaClients = 16;
  static constexpr size_t kFilesPerRound = 4096;  // ~4 KB each
  static constexpr size_t kMetaOpsPerRound = 4096;
  static constexpr size_t kListEvery = 16;  // one List per 16 metadata ops
  static constexpr uint64_t kChunkBytes = 256 * 1024;

  void Setup(uint64_t seed, Trace&) override {
    env_.reset();
    env_ = std::make_unique<Env>();
    Env& e = *env_;
    e.seed = seed;
    e.base.name = "base";
    e.base.num_classes = 64;
    e.base.files_per_class = 128;  // 8192 files x ~1 KB
    e.base.mean_file_bytes = 1024;
    e.base.seed = seed;
    e.rng = Rng(seed ^ 0x4D455441ULL);
    e.dep = std::make_unique<core::Deployment>(
        core::DeploymentOptions{.num_client_nodes = kWriters});
    Ingest(*e.dep, e.base, kChunkBytes, &e.base_sizes);
    e.dep->ResetDevices();
    for (size_t m = 0; m < kMetaClients; ++m) {
      // No snapshot loaded: Stat and List go to the server.
      e.meta.push_back(e.dep->MakeClient(
          m % kWriters, static_cast<uint32_t>(1 + m / kWriters), e.base.name));
    }
  }

  RoundResult Round(size_t round, Trace& trace, Tally& tally) override {
    Env& e = *env_;
    dlt::DatasetSpec spec;
    spec.name = "new" + std::to_string(round);
    spec.num_classes = 16;
    spec.files_per_class = kFilesPerRound / 16;
    spec.mean_file_bytes = 4 * 1024;
    spec.seed = e.seed * 1000003 + round;
    // Inputs are generated before the timed region.
    std::vector<dlt::GeneratedFile> files;
    files.reserve(spec.total_files());
    for (size_t i = 0; i < spec.total_files(); ++i) {
      files.push_back(dlt::MakeFile(spec, i));
    }
    struct MetaOp {
      bool list;
      size_t target;  // file index (Stat) or class (List)
    };
    std::vector<MetaOp> meta_ops(kMetaOpsPerRound);
    for (size_t i = 0; i < meta_ops.size(); ++i) {
      bool list = i % kListEvery == kListEvery - 1;
      meta_ops[i] = {list, list ? e.rng.Uniform(e.base.num_classes)
                                : e.rng.Uniform(e.base.total_files())};
    }
    std::vector<std::unique_ptr<core::DieselClient>> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.push_back(
          e.dep->MakeClient(w, static_cast<uint32_t>(10 + w), spec.name,
                            kChunkBytes));
    }
    // Closed loop over writers then metadata clients, all starting at t0.
    std::vector<sim::VirtualClock*> clocks;
    for (auto& w : writers) clocks.push_back(&w->clock());
    for (auto& m : e.meta) clocks.push_back(&m->clock());
    const Nanos t0 = e.t;
    for (sim::VirtualClock* c : clocks) c->AdvanceTo(t0);

    std::vector<size_t> next_file(kWriters);
    for (size_t w = 0; w < kWriters; ++w) next_file[w] = w;
    size_t next_meta = 0;
    struct StatResult {
      size_t target;
      bool list;
      uint64_t got;  // Stat: length; List: entry count
    };
    std::vector<StatResult> meta_results;
    meta_results.reserve(meta_ops.size());
    uint64_t written = 0;

    RoundResult rr;
    rr.host.Start();
    for (;;) {
      size_t next = clocks.size();
      for (size_t c = 0; c < clocks.size(); ++c) {
        bool live = c < kWriters ? next_file[c] < files.size()
                                 : next_meta < meta_ops.size();
        if (!live) continue;
        if (next == clocks.size() || clocks[c]->now() < clocks[next]->now()) {
          next = c;
        }
      }
      if (next == clocks.size()) break;
      sim::VirtualClock& clock = *clocks[next];
      const Nanos before = clock.now();
      ++tally.attempted;
      ++rr.ops;
      rr.host.Add(1);
      if (next < kWriters) {
        const dlt::GeneratedFile& f = files[next_file[next]];
        next_file[next] += kWriters;
        Trace::Scope span(trace, "Put", before, ++e.request);
        Status st = writers[next]->Put(f.path, f.content);
        span.End(clock.now());
        if (!st.ok()) {
          ++tally.failed;
        } else {
          ++written;
          tally.bytes_written += f.content.size();
        }
        tally.write_us.push_back(ToMicros(clock.now() - before));
        continue;
      }
      core::DieselClient& m = *e.meta[next - kWriters];
      const MetaOp op = meta_ops[next_meta++];
      if (op.list) {
        char dir[96];
        std::snprintf(dir, sizeof(dir), "/%s/train/cls%03zu",
                      e.base.name.c_str(), op.target);
        Trace::Scope span(trace, "List", before, ++e.request);
        auto r = m.List(dir);
        span.End(clock.now());
        if (!r.ok()) ++tally.failed;
        else meta_results.push_back({op.target, true, r->size()});
      } else {
        Trace::Scope span(trace, "Stat", before, ++e.request);
        auto r = m.Stat(dlt::FilePath(e.base, op.target));
        span.End(clock.now());
        if (!r.ok()) ++tally.failed;
        else meta_results.push_back({op.target, false, r->length});
      }
      tally.meta_us.push_back(ToMicros(clock.now() - before));
    }
    for (size_t w = 0; w < kWriters; ++w) {
      Trace::Scope span(trace, "Flush", writers[w]->clock().now(),
                        ++e.request);
      Check(writers[w]->Flush(), "Flush");
      span.End(writers[w]->clock().now());
    }
    Nanos t1 = t0;
    for (sim::VirtualClock* c : clocks) t1 = std::max(t1, c->now());
    sim::VirtualClock snap_clock(t1);
    std::optional<size_t> snapshot_files;
    {
      Trace::Scope span(trace, "BuildSnapshot", t1, ++e.request);
      auto snap = e.dep->server(0).BuildSnapshot(
          snap_clock, e.dep->client_node(0), spec.name);
      span.End(snap_clock.now());
      if (snap.ok()) snapshot_files = snap->num_files();
    }
    rr.host.Finish();
    rr.virt = snap_clock.now() - t0;
    e.t = snap_clock.now();
    tally.files_written += written;
    tally.meta_ops += meta_ops.size();
    tally.chunk_target_bytes = kChunkBytes;

    // Verification, outside the timed region.
    for (const StatResult& r : meta_results) {
      uint64_t want = r.list ? e.base.files_per_class : e.base_sizes[r.target];
      if (r.got != want) ++tally.wrong;
    }
    if (!snapshot_files || *snapshot_files != written) ++tally.wrong;
    // Drop the round's dataset so memory stays flat across rounds.
    writers.clear();
    sim::VirtualClock cleanup(e.t);
    Check(e.dep->server(0).DeleteDataset(cleanup, e.dep->client_node(0),
                                         spec.name),
          "DeleteDataset");
    // The next round starts once the clean-up left the devices.
    e.t = cleanup.now();
    return rr;
  }

 private:
  static double ToMicros(Nanos ns) { return static_cast<double>(ns) / 1e3; }

  struct Env {
    uint64_t seed = 0;
    dlt::DatasetSpec base;
    std::vector<uint64_t> base_sizes;
    Rng rng;
    std::unique_ptr<core::Deployment> dep;
    std::vector<std::unique_ptr<core::DieselClient>> meta;
    Nanos t = 0;
    uint64_t request = 0;
  };
  std::unique_ptr<Env> env_;
};


// ---- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/test_perfbench.py checks it).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
    {"virt_ops_per_s", "ops/s"},
    {"virt_read_p50_us", "us"},
    {"virt_read_p99_us", "us"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sim.serves_per_op", "count"},
    {"sim.queue_wait_p99_us", "us"},
    {"sim.max_device_util", "ratio"},
    {"sim.intervals_collapsed", "count"},
    {"net.rpcs_per_file", "count"},
    {"net.batch_size_mean", "count"},
    {"net.bytes_per_file", "B"},
    {"net.link_queue_wait_p99_us", "us"},
    {"net.drops", "count"},
    {"net.flap_rejects", "count"},
    {"cache.host_us_per_call", "us"},
    {"cache.local_hit_frac", "ratio"},
    {"cache.peer_hit_frac", "ratio"},
    {"cache.chunk_loads_per_epoch", "count"},
    {"cache.evictions_per_epoch", "count"},
    {"cache.crc_verified_frac", "ratio"},
    {"cache.retries", "count"},
    {"cache.failovers", "count"},
    {"cache.corruptions_detected", "count"},
    {"cache.preload_host_s", "s"},
    {"cache.path_local_frac", "ratio"},
    {"cache.path_owner_wait_frac", "ratio"},
    {"cache.path_rpc_frac", "ratio"},
    {"cache.path_device_frac", "ratio"},
    {"cache.path_parse_frac", "ratio"},
    {"cache.path_slice_frac", "ratio"},
    {"cache.path_backoff_frac", "ratio"},
    {"cache.path_degraded_frac", "ratio"},
    {"prefetch.host_us_per_epoch", "us"},
    {"prefetch.useful_frac", "ratio"},
    {"prefetch.late_frac", "ratio"},
    {"prefetch.wasted", "count"},
    {"prefetch.cancelled", "count"},
    {"shuffle.plan_host_ms", "ms"},
    {"dlt.fetch_s", "s"},
    {"dlt.train_s", "s"},
    {"dlt.shuffle_s", "s"},
    {"core.put_host_us", "us"},
    {"core.flush_host_us", "us"},
    {"core.stat_host_us", "us"},
    {"core.list_host_us", "us"},
    {"core.chunk_fill_frac", "ratio"},
    {"core.server_queue_wait_p99_us", "us"},
    {"core.snapshot_host_ms", "ms"},
    {"kv.ops_per_meta_op", "count"},
    {"kv.ops_per_file_written", "count"},
    {"kv.shard_queue_wait_p99_us", "us"},
    {"kv.retries", "count"},
    {"ostore.write_amp", "ratio"},
    {"ostore.read_amp", "ratio"},
    {"ostore.device_util", "ratio"},
    {"obs.bench_trace_overhead_frac", "ratio"},
    // Workload-specific end-to-end figures; 0 where a workload has no such
    // operation, which is why they are not end-to-end metrics here.
    {"virt_write_p50_us", "us"},
    {"virt_write_p99_us", "us"},
    {"virt_meta_p50_us", "us"},
    {"virt_meta_p99_us", "us"},
    {"fetch_stall_frac", "ratio"},
    {"failed_frac", "ratio"},
};

const std::vector<std::string> kWorkloads = {"train_warm", "train_pressure",
                                             "ingest_meta"};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Registry key `key` names metric `name` (bare, or with a label set).
bool KeyIs(const std::string& key, std::string_view name) {
  return key.size() >= name.size() && key.compare(0, name.size(), name) == 0 &&
         (key.size() == name.size() || key[name.size()] == '{');
}

std::string LabelsOf(const std::string& key) {
  auto brace = key.find('{');
  return brace == std::string::npos ? "" : key.substr(brace);
}

/// Value of label `label` within a registry key ("" when absent).
std::string Label(const std::string& key, const std::string& label) {
  auto pos = key.find(label + "=");
  if (pos == std::string::npos) return "";
  pos += label.size() + 1;
  auto end = key.find_first_of(",}", pos);
  return key.substr(pos, end - pos);
}

using KeyFilter = std::function<bool(const std::string&)>;

bool DeviceStartsWith(const std::string& key, std::string_view prefix) {
  return Label(key, "device").rfind(prefix, 0) == 0;
}

uint64_t Sum(const obs::MetricsSnapshot& d, std::string_view name,
             const KeyFilter& filter = nullptr) {
  uint64_t total = 0;
  for (const auto& [key, v] : d.counters) {
    if (KeyIs(key, name) && (!filter || filter(key))) total += v;
  }
  return total;
}

diesel::Histogram Merged(const obs::MetricsSnapshot& d, std::string_view name,
                         const KeyFilter& filter = nullptr) {
  diesel::Histogram h;
  for (const auto& [key, v] : d.histograms) {
    if (KeyIs(key, name) && (!filter || filter(key))) h.Merge(v);
  }
  return h;
}

double P99Us(const obs::MetricsSnapshot& d, std::string_view name,
             const KeyFilter& filter = nullptr) {
  return Merged(d, name, filter).P99() / 1e3;
}

/// Highest busy/(channels x elapsed) over the devices `filter` admits.
double MaxDeviceUtil(const obs::MetricsSnapshot& delta,
                     const obs::MetricsSnapshot& after, Nanos elapsed,
                     const KeyFilter& filter = nullptr) {
  double best = 0;
  for (const auto& [key, busy] : delta.counters) {
    if (!KeyIs(key, "sim.device.busy_ns") || (filter && !filter(key))) continue;
    auto ch = after.gauges.find("sim.device.channels" + LabelsOf(key));
    if (ch == after.gauges.end() || ch->second <= 0) continue;
    best = std::max(best, Ratio(static_cast<double>(busy),
                                ch->second * static_cast<double>(elapsed)));
  }
  return best;
}

/// Host-time statistics of the traced spans, by span name.
struct SpanStats {
  std::map<std::string_view, std::vector<double>> host_ns;
  std::map<std::string_view, double> self_ns, virt_ns;

  explicit SpanStats(const std::vector<Span>& spans) {
    std::vector<int64_t> self = HostSelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      host_ns[s.name].push_back(static_cast<double>(s.host_end - s.host_begin));
      self_ns[s.name] += static_cast<double>(self[i]);
      virt_ns[s.name] += static_cast<double>(s.virt_end - s.virt_begin);
    }
  }
  double MedianNs(std::string_view name) const {
    auto it = host_ns.find(name);
    return it == host_ns.end() ? 0.0 : Median(it->second);
  }
  double TotalNs(std::string_view name) const {
    auto it = host_ns.find(name);
    double t = 0;
    if (it != host_ns.end()) for (double v : it->second) t += v;
    return t;
  }
  size_t Count(std::string_view name) const {
    auto it = host_ns.find(name);
    return it == host_ns.end() ? 0 : it->second.size();
  }
};

using Values = std::map<std::string, double>;

Values PerLayer(const obs::MetricsSnapshot& d,
                const obs::MetricsSnapshot& after, const Tally& t,
                const SpanStats& spans, double trace_overhead) {
  Values v;
  const double files = static_cast<double>(t.files_read + t.files_written);
  const double ops = files + static_cast<double>(t.meta_ops);
  const double epochs = static_cast<double>(t.epochs);
  const Nanos T = t.virt_elapsed;

  v["sim.serves_per_op"] = Ratio(Sum(d, "sim.device.ops"), ops);
  v["sim.queue_wait_p99_us"] = P99Us(d, "sim.device.queue_wait_ns");
  v["sim.max_device_util"] = MaxDeviceUtil(d, after, T);
  v["sim.intervals_collapsed"] = Sum(d, "sim.device.intervals_collapsed");

  v["net.rpcs_per_file"] = Ratio(Sum(d, "net.rpc.calls"), ops);
  v["net.batch_size_mean"] =
      Ratio(Sum(d, "net.batch.subrequests"), Sum(d, "net.batch.calls"));
  v["net.bytes_per_file"] = Ratio(
      Sum(d, "net.rpc.req_bytes") + Sum(d, "net.rpc.resp_bytes"), ops);
  v["net.link_queue_wait_p99_us"] = P99Us(d, "net.link.queue_wait_ns");
  v["net.drops"] = Sum(d, "net.rpc.drops");
  v["net.flap_rejects"] = Sum(d, "net.rpc.flap_rejects");

  const double reads = static_cast<double>(t.files_read);
  v["cache.host_us_per_call"] = spans.MedianNs("GetFiles") / 1e3;
  v["cache.local_hit_frac"] = Ratio(Sum(d, "cache.local_hits"), reads);
  v["cache.peer_hit_frac"] = Ratio(Sum(d, "cache.peer_hits"), reads);
  v["cache.chunk_loads_per_epoch"] = Ratio(Sum(d, "cache.chunk_loads"), epochs);
  v["cache.evictions_per_epoch"] = Ratio(Sum(d, "cache.evictions"), epochs);
  const uint64_t crc_verified = Sum(d, "cache.slice.crc_verified");
  v["cache.crc_verified_frac"] = Ratio(
      crc_verified, crc_verified + Sum(d, "cache.slice.crc_skipped"));
  v["cache.retries"] = Sum(d, "read.path.retries");
  v["cache.failovers"] = Sum(d, "cache.failovers");
  v["cache.corruptions_detected"] = Sum(d, "cache.corruptions_detected");
  v["cache.preload_host_s"] = spans.MedianNs("Preload") / 1e9;
  // Shares of the attributed read-path virtual time. The batched path
  // records phases per owner batch but no per-file total, so the base is
  // the sum of the phases, not read.path.total_ns.
  const char* phases[] = {"local", "owner_wait", "rpc",     "device",
                          "parse", "slice",      "backoff", "degraded"};
  double path_total = 0;
  for (const char* phase : phases) {
    path_total += Merged(d, std::string("read.path.") + phase + "_ns").sum();
  }
  for (const char* phase : phases) {
    v[std::string("cache.path_") + phase + "_frac"] = Ratio(
        Merged(d, std::string("read.path.") + phase + "_ns").sum(), path_total);
  }

  const double issued = static_cast<double>(Sum(d, "prefetch.issued"));
  v["prefetch.host_us_per_epoch"] =
      Ratio(spans.TotalNs("StartEpoch") + spans.TotalNs("Advance"),
            static_cast<double>(spans.Count("StartEpoch"))) / 1e3;
  v["prefetch.useful_frac"] = Ratio(Sum(d, "prefetch.hit"), issued);
  v["prefetch.late_frac"] = Ratio(Sum(d, "prefetch.late"), issued);
  v["prefetch.wasted"] = Sum(d, "prefetch.wasted");
  v["prefetch.cancelled"] = Sum(d, "prefetch.cancelled");

  v["shuffle.plan_host_ms"] = spans.MedianNs("ChunkWiseShuffle") / 1e6;

  v["dlt.fetch_s"] = Ratio(diesel::ToSeconds(t.dlt_fetch), epochs);
  v["dlt.train_s"] = Ratio(diesel::ToSeconds(t.dlt_train), epochs);
  v["dlt.shuffle_s"] = Ratio(diesel::ToSeconds(t.dlt_shuffle), epochs);

  auto server = [](const std::string& k) {
    return DeviceStartsWith(k, "diesel-server");
  };
  auto kv_shard = [](const std::string& k) {
    return DeviceStartsWith(k, "kv-shard");
  };
  v["core.put_host_us"] = spans.MedianNs("Put") / 1e3;
  v["core.flush_host_us"] = spans.MedianNs("Flush") / 1e3;
  v["core.stat_host_us"] = spans.MedianNs("Stat") / 1e3;
  v["core.list_host_us"] = spans.MedianNs("List") / 1e3;
  v["core.chunk_fill_frac"] =
      Ratio(Sum(d, "core.chunk.ingest_bytes"),
            static_cast<double>(Sum(d, "core.chunk.ingests")) *
                static_cast<double>(t.chunk_target_bytes));
  v["core.server_queue_wait_p99_us"] =
      P99Us(d, "sim.device.queue_wait_ns", server);
  v["core.snapshot_host_ms"] = spans.MedianNs("BuildSnapshot") / 1e6;

  auto kv_read = [](const std::string& k) {
    std::string op = Label(k, "op");
    return op == "get" || op == "mget" || op == "pscan";
  };
  auto kv_write = [&](const std::string& k) { return !kv_read(k); };
  v["kv.ops_per_meta_op"] =
      Ratio(Sum(d, "kv.ops", kv_read), static_cast<double>(t.meta_ops));
  v["kv.ops_per_file_written"] = Ratio(Sum(d, "kv.ops", kv_write),
                                       static_cast<double>(t.files_written));
  v["kv.shard_queue_wait_p99_us"] =
      P99Us(d, "sim.device.queue_wait_ns", kv_shard);
  v["kv.retries"] = Sum(d, "kv.retries");

  auto store_write = [](const std::string& k) {
    return Label(k, "device") == "ssd-cluster-write";
  };
  auto store_read = [](const std::string& k) {
    return Label(k, "device") == "ssd-cluster";
  };
  auto store_any = [](const std::string& k) {
    return DeviceStartsWith(k, "ssd-cluster");
  };
  v["ostore.write_amp"] = Ratio(Sum(d, "sim.device.bytes", store_write),
                                static_cast<double>(t.bytes_written));
  v["ostore.read_amp"] = Ratio(Sum(d, "sim.device.bytes", store_read),
                               static_cast<double>(t.bytes_delivered));
  v["ostore.device_util"] = MaxDeviceUtil(d, after, T, store_any);

  v["obs.bench_trace_overhead_frac"] = trace_overhead;

  Summary w = Summarize(t.write_us), m = Summarize(t.meta_us);
  v["virt_write_p50_us"] = w.p50;
  v["virt_write_p99_us"] = w.p99;
  v["virt_meta_p50_us"] = m.p50;
  v["virt_meta_p99_us"] = m.p99;
  v["fetch_stall_frac"] = Ratio(static_cast<double>(t.dlt_fetch),
                                static_cast<double>(t.dlt_total));
  v["failed_frac"] = Ratio(static_cast<double>(t.failed + t.wrong),
                           static_cast<double>(t.attempted));
  return v;
}

// ---- run --------------------------------------------------------------------

/// Rounds per trial: enough that every latency distribution of a trial
/// holds >= 10^4 samples (so >= 10 lie beyond its p99).
size_t RoundsPerTrial(const std::string& workload) {
  if (workload == "train_warm") return 4;
  if (workload == "train_pressure") return 10;
  return 3;  // ingest_meta
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "train_warm") return std::make_unique<TrainWarm>();
  if (name == "train_pressure") return std::make_unique<TrainPressure>();
  if (name == "ingest_meta") return std::make_unique<IngestMeta>();
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool list = false;
  std::string trace_out;  // spans file (traced runs)
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return true;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::vector<int64_t> self = HostSelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%.*s\",\"parent\":%lld,"
                 "\"request\":%" PRIu64 ",\"host_begin_ns\":%" PRId64
                 ",\"host_end_ns\":%" PRId64 ",\"host_self_ns\":%" PRId64
                 ",\"virt_begin_ns\":%" PRId64 ",\"virt_end_ns\":%" PRId64
                 "}\n",
                 i, static_cast<int>(s.name.size()), s.name.data(),
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 s.request, s.host_begin, s.host_end, self[i], s.virt_begin,
                 s.virt_end);
  }
  std::fclose(f);
}

/// Host seconds of a trial made of each block's fastest repeat, given the
/// host-time blocks of identical trials. Other tenants of a shared host
/// only ever slow a block down, so the per-block minimum over the trials is
/// the steadiest estimate of the program's own cost; taking it block by
/// block keeps the work fixed.
double FloorTrialSeconds(const std::vector<std::vector<double>>& trials) {
  double total = 0;
  for (size_t b = 0; !trials.empty() && b < trials[0].size(); ++b) {
    double best = trials[0][b];
    for (const std::vector<double>& t : trials) {
      if (b < t.size()) best = std::min(best, t[b]);
    }
    total += best;
  }
  return total;
}

bool Optimized() {
  std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* o : {"-O1", "-O2", "-O3", "-Os", "-Ofast"}) {
    if (flags.find(o) != std::string::npos) return true;
  }
  return false;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const size_t rounds = RoundsPerTrial(args.workload);
  Tally first;  // trial 0: every virtual metric and per-layer count
  uint64_t attempted = 0, failed = 0, wrong = 0;
  obs::MetricsSnapshot before, after;
  Trace trace;
  // Over the timed trials (all but trial 0): set-up times, per-trial host
  // rates, and each trial's host-time blocks, kept apart for untraced and
  // traced trials.
  std::vector<double> setup_s, rate;
  std::vector<std::vector<double>> plain_blocks, traced_blocks;
  uint64_t ops_per_trial = 0;
  const int64_t start = HostNow();
  for (size_t trial = 0;; ++trial) {
    // Traced runs alternate untraced and traced trials, so the tracing
    // overhead is measured inside one run.
    const bool traced = args.trace && trial % 2 == 1;
    trace.set_enabled(traced);
    int64_t h0 = HostNow();
    wl->Setup(args.seed, trace);
    const double trial_setup_s = static_cast<double>(HostNow() - h0) / 1e9;

    Tally tally;
    if (trial == 0) before = obs::Metrics().Snapshot();
    double host_s = 0;
    uint64_t ops = 0;
    std::vector<double> blocks;
    for (size_t r = 0; r < rounds; ++r) {
      RoundResult rr = wl->Round(r, trace, tally);
      host_s += rr.host.total();
      blocks.insert(blocks.end(), rr.host.seconds().begin(),
                    rr.host.seconds().end());
      ops += rr.ops;
      tally.virt_elapsed += rr.virt;
      tally.virt_ops += rr.ops;
    }
    ops_per_trial = ops;
    if (trial == 0) {
      after = obs::Metrics().Snapshot();
    } else {
      setup_s.push_back(trial_setup_s);
      if (!traced) rate.push_back(Ratio(static_cast<double>(ops), host_s));
      (traced ? traced_blocks : plain_blocks).push_back(std::move(blocks));
    }
    std::printf("# trial %zu setup_s=%.4f host_s=%.4f ops=%" PRIu64
                " virt_s=%.6f%s\n",
                trial, trial_setup_s, host_s, ops,
                diesel::ToSeconds(tally.virt_elapsed),
                traced ? " traced" : "");
    attempted += tally.attempted;
    failed += tally.failed;
    wrong += tally.wrong;
    if (trial == 0) first = std::move(tally);
    double elapsed = static_cast<double>(HostNow() - start) / 1e9;
    if (trial + 1 >= kMinTrials && elapsed >= args.seconds) break;
  }
  trace.set_enabled(false);
  first.attempted = attempted;
  first.failed = failed;
  first.wrong = wrong;
  Tally& tally = first;
  obs::MetricsSnapshot delta = after.DeltaSince(before);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // The read latency: a GetFiles mini-batch on the train workloads, a
  // metadata read (Stat or List) on ingest_meta.
  Summary read =
      Summarize(tally.read_us.empty() ? tally.meta_us : tally.read_us);

  Values e2e;
  e2e["setup_s"] = Median(setup_s);
  const double plain_floor_s = FloorTrialSeconds(plain_blocks);
  e2e["host_ops_per_s"] =
      Ratio(static_cast<double>(ops_per_trial), plain_floor_s);
  e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  e2e["virt_ops_per_s"] = Ratio(static_cast<double>(tally.virt_ops),
                                diesel::ToSeconds(tally.virt_elapsed));
  e2e["virt_read_p50_us"] = read.p50;
  e2e["virt_read_p99_us"] = read.p99;

  // Human-readable report; the last line is the JSON result.
  std::printf("# workload %s seed %" PRIu64 " trace %d\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0);
  std::printf("# env nproc=%ld compiler=\"%s\" build_type=%s flags=\"%s\"%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              Optimized() ? ""
                          : " WARNING: unoptimized build; host numbers "
                            "measure a different program");
  std::printf("# repeats timed_trials=%zu rounds_per_trial=%zu "
              "setup_spread=%.4f host_rate_spread=%.4f (quartile spread over "
              "the median, between trials)\n",
              setup_s.size(), rounds, QuartileSpread(setup_s),
              QuartileSpread(rate));
  for (const auto& [label, samples] :
       {std::pair<const char*, const std::vector<double>*>{"read",
                                                           &tally.read_us},
        {"write", &tally.write_us},
        {"meta", &tally.meta_us}}) {
    if (samples->empty()) continue;
    Summary s = Summarize(*samples);
    std::printf("# virt_%s samples=%zu p50=%.3fus p99=%.3fus "
                "beyond_p99=%zu%s\n",
                label, s.count, s.p50, s.p99, SamplesBeyond(s.count, 0.99),
                s.p99_supported ? "" : " (p99 unsupported: <10 beyond)");
  }
  std::printf("# ops attempted=%" PRIu64 " failed=%" PRIu64
              " wrong=%" PRIu64 "\n",
              tally.attempted, tally.failed, tally.wrong);

  const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
  Values values = e2e;
  if (args.trace) {
    SpanStats spans(trace.spans());
    // Equal numbers of traced and untraced trials: a minimum over more
    // repeats reads lower.
    const size_t k = std::min(traced_blocks.size(), plain_blocks.size());
    traced_blocks.resize(k);
    plain_blocks.resize(k);
    double overhead = Ratio(FloorTrialSeconds(traced_blocks),
                            FloorTrialSeconds(plain_blocks)) - 1.0;
    values = PerLayer(delta, after, tally, spans, overhead);
    std::printf("# spans=%zu (self = span host time minus child spans)\n",
                trace.spans().size());
    for (const auto& [name, hs] : spans.host_ns) {
      double total = 0;
      for (double h : hs) total += h;
      std::printf("#   %-16.*s n=%-7zu host_ms=%10.3f self_ms=%10.3f "
                  "virt_ms=%12.3f\n",
                  static_cast<int>(name.size()), name.data(), hs.size(),
                  total / 1e6, spans.self_ns.at(name) / 1e6,
                  spans.virt_ns.at(name) / 1e6);
    }
    if (!args.trace_out.empty()) WriteSpans(args.trace_out, trace.spans());
  }

  std::string json = "{\"correct\": ";
  const bool correct = tally.failed == 0 && tally.wrong == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed + tally.wrong);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   defs[i].name);
      return 2;
    }
    std::printf("metric %-32s %.17g %s\n", defs[i].name, it->second,
                defs[i].unit);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  // Wrong bytes are a failed run, not only a failed metric.
  return tally.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args) ||
      (!args.list && args.workload.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--trace-out file] | --list\n");
    return 2;
  }
  if (args.list) {
    bool valid = true;
    for (const std::string& w : perfbench::kWorkloads) {
      std::printf("workload %s\n", w.c_str());
      valid = valid && perfbench::ValidName(w);
    }
    for (const auto& [kind, defs] :
         {std::pair{"end_to_end", &perfbench::kEndToEnd},
          std::pair{"per_layer", &perfbench::kPerLayer}}) {
      for (const auto& d : *defs) {
        std::printf("%s %s %s\n", kind, d.name, d.unit);
        valid = valid && perfbench::ValidName(d.name) &&
                perfbench::ValidUnit(d.unit);
      }
    }
    return valid ? 0 : 1;
  }
  return perfbench::Run(args);
}
