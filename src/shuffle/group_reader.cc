#include "shuffle/group_reader.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace diesel::shuffle {
namespace {

/// Epochs started, process-wide (no per-reader field repeats it).
obs::Counter& Epochs() {
  static obs::Counter& c = obs::Metrics().GetCounter("shuffle.epochs");
  return c;
}

}  // namespace

GroupWindowReader::GroupWindowReader(core::DieselServer& server,
                                     const core::MetadataSnapshot& snapshot,
                                     sim::NodeId node, size_t fetch_streams)
    : server_(server), snapshot_(snapshot), node_(node),
      fetch_streams_(std::max<size_t>(1, fetch_streams)) {}

void GroupWindowReader::StartEpoch(ShufflePlan plan) {
  Epochs().Inc();
  plan_ = std::move(plan);
  pos_ = 0;
  current_group_ = static_cast<size_t>(-1);
  prefetched_.clear();
  prefetch_group_ = static_cast<size_t>(-1);
  prefetch_done_ = 0;
  FreeWindow();
}

void GroupWindowReader::FreeWindow() {
  window_.clear();
  window_bytes_ = 0;
}

Result<Nanos> GroupWindowReader::FetchGroup(Nanos start, size_t group,
                                            Window& out) {
  // The whole group goes out as ONE coalesced multi-chunk RPC: the per-RPC
  // overhead is paid once per group instead of once per chunk, while the
  // server still pulls the blobs on `fetch_streams_` parallel store streams.
  const std::vector<uint32_t>& chunk_list = plan_.group_chunks.at(group);
  if (chunk_list.empty()) return start;
  std::vector<core::ChunkId> ids;
  ids.reserve(chunk_list.size());
  for (uint32_t ci : chunk_list) ids.push_back(snapshot_.chunks().at(ci));
  sim::VirtualClock clock(start);
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<Bytes> blobs,
      server_.ReadChunks(clock, node_, snapshot_.dataset(), ids,
                         fetch_streams_));
  for (size_t i = 0; i < chunk_list.size(); ++i) {
    Bytes& blob = blobs[i];
    DIESEL_ASSIGN_OR_RETURN(core::ChunkView view, core::ChunkView::Parse(blob));
    stats_.Add<&GroupReaderStats::chunk_fetches>();
    stats_.Add<&GroupReaderStats::chunk_bytes_fetched>(blob.size());
    out.emplace(chunk_list[i],
                WindowChunk{core::ChunkBuffer::Wrap(std::move(blob),
                                                    view.header_len())});
  }
  return clock.now();
}

Status GroupWindowReader::LoadGroup(sim::VirtualClock& clock, size_t group) {
  obs::ScopedSpan span(server_.fabric().tracer(), "shuffle.load_group", clock,
                       node_);
  span.Note("group=" + std::to_string(group) + " chunks=" +
            std::to_string(plan_.group_chunks.at(group).size()));
  FreeWindow();
  if (prefetch_next_ && group == prefetch_group_) {
    // The background fetch started when the previous group was entered;
    // entering this group only waits for its completion.
    window_ = std::move(prefetched_);
    prefetched_.clear();
    prefetch_group_ = static_cast<size_t>(-1);
    clock.AdvanceTo(prefetch_done_);
  } else {
    DIESEL_ASSIGN_OR_RETURN(Nanos done, FetchGroup(clock.now(), group,
                                                   window_));
    clock.AdvanceTo(done);
  }
  window_bytes_ = 0;
  for (const auto& [ci, wc] : window_) window_bytes_ += wc.buffer.size();

  // Kick off the next group's background fetch.
  if (prefetch_next_ && group + 1 < plan_.num_groups()) {
    prefetched_.clear();
    DIESEL_ASSIGN_OR_RETURN(prefetch_done_,
                            FetchGroup(clock.now(), group + 1, prefetched_));
    prefetch_group_ = group + 1;
    uint64_t prefetched_bytes = 0;
    for (const auto& [ci, wc] : prefetched_) {
      prefetched_bytes += wc.buffer.size();
    }
    peak_window_bytes_ =
        std::max(peak_window_bytes_, window_bytes_ + prefetched_bytes);
  }
  peak_window_bytes_ = std::max(peak_window_bytes_, window_bytes_);
  stats_.Add<&GroupReaderStats::groups_entered>();
  current_group_ = group;
  return Status::Ok();
}

Result<uint32_t> GroupWindowReader::PeekIndex() const {
  if (Done()) return Status::OutOfRange("epoch exhausted");
  return plan_.file_order[pos_];
}

Result<Bytes> GroupWindowReader::Next(sim::VirtualClock& clock) {
  DIESEL_ASSIGN_OR_RETURN(core::FileSlice slice, NextSlice(clock));
  return slice.ToBytes();
}

Result<core::FileSlice> GroupWindowReader::NextSlice(sim::VirtualClock& clock) {
  if (Done()) return Status::OutOfRange("epoch exhausted");
  size_t group = plan_.GroupOf(pos_);
  if (group != current_group_) {
    DIESEL_RETURN_IF_ERROR(LoadGroup(clock, group));
  }
  const core::FileMeta& meta = snapshot_.files()[plan_.file_order[pos_]];
  size_t ci = snapshot_.ChunkIndex(meta.chunk);
  auto it = window_.find(static_cast<uint32_t>(ci));
  if (it == window_.end())
    return Status::Internal("file's chunk missing from group window: " +
                            meta.full_name);
  const WindowChunk& wc = it->second;
  uint64_t begin = wc.buffer.header_len() + meta.offset;
  if (begin + meta.length > wc.buffer.size())
    return Status::Corruption("file range past chunk end: " + meta.full_name);
  ++pos_;
  stats_.Add<&GroupReaderStats::files_read>();
  stats_.Add<&GroupReaderStats::bytes_read>(meta.length);
  return core::FileSlice::FromBuffer(wc.buffer, begin, meta.length);
}

GroupReaderStats GroupWindowReader::stats() const {
  GroupReaderStats out;
  stats_.ReadInto(out);
  out.peak_window_bytes = peak_window_bytes_;
  return out;
}

}  // namespace diesel::shuffle
