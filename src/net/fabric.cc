#include "net/fabric.h"

#include "net/fault_injector.h"
#include "obs/flight_recorder.h"

namespace diesel::net {

bool ConnectionTable::Connect(EndpointId a, EndpointId b) {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.insert(Canonical(a, b)).second;
}

bool ConnectionTable::Disconnect(EndpointId a, EndpointId b) {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.erase(Canonical(a, b)) > 0;
}

bool ConnectionTable::Connected(EndpointId a, EndpointId b) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.count(Canonical(a, b)) > 0;
}

size_t ConnectionTable::TotalConnections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.size();
}

size_t ConnectionTable::ConnectionsOf(EndpointId e) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [a, b] : connections_) {
    if (a == e || b == e) ++n;
  }
  return n;
}

size_t ConnectionTable::DisconnectAll(EndpointId e) {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::erase_if(connections_, [e](const Pair& p) {
    return p.first == e || p.second == e;
  });
}

size_t ConnectionTable::DisconnectNode(sim::NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::erase_if(connections_, [node](const Pair& p) {
    return p.first.node == node || p.second.node == node;
  });
}

void ConnectionTable::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.clear();
}

bool Fabric::NodeAvailable(sim::NodeId node, Nanos now) const {
  if (!cluster_.node(node).up()) return false;
  if (injector_ != nullptr && injector_->NodeDown(node, now)) return false;
  return true;
}

Fabric::LinkMetrics& Fabric::LinkMetricsFor(sim::NodeId src, sim::NodeId dst) {
  uint64_t key = (static_cast<uint64_t>(src) << 32) | dst;
  std::lock_guard<std::mutex> lock(link_metrics_mutex_);
  auto it = link_metrics_.find(key);
  if (it == link_metrics_.end()) {
    obs::Labels link{{"link", "n" + std::to_string(src) + "->n" +
                                  std::to_string(dst)}};
    obs::MetricsRegistry& reg = obs::Metrics();
    LinkMetrics lm;
    lm.calls = &reg.GetCounter("net.rpc.calls", link);
    lm.sends = &reg.GetCounter("net.rpc.sends", link);
    lm.req_bytes = &reg.GetCounter("net.rpc.req_bytes", link);
    lm.resp_bytes = &reg.GetCounter("net.rpc.resp_bytes", link);
    lm.drops = &reg.GetCounter("net.rpc.drops", link);
    lm.flap_rejects = &reg.GetCounter("net.rpc.flap_rejects", link);
    lm.latency_ns = &reg.GetHistogram("net.rpc.latency_ns", link);
    lm.batch_calls = &reg.GetCounter("net.batch.calls", link);
    lm.batch_subrequests = &reg.GetCounter("net.batch.subrequests", link);
    lm.batch_size = &reg.GetHistogram("net.batch.size", link);
    obs::Labels scoped = link;
    scoped.emplace_back("node", "n" + std::to_string(src));
    lm.busy_ns = &reg.GetCounter("net.link.busy_ns", scoped);
    lm.queue_wait_ns = &reg.GetHistogram("net.link.queue_wait_ns", scoped);
    lm.channels = &reg.GetGauge("net.link.channels", scoped);
    lm.channels->Set(
        static_cast<double>(cluster_.node(src).nic().spec().channels +
                            cluster_.node(dst).nic().spec().channels));
    it = link_metrics_.emplace(key, lm).first;
  }
  return it->second;
}

std::string Fabric::SpanName(const char* kind, sim::NodeId src,
                             sim::NodeId dst) {
  return std::string(kind) + ":" + cluster_.node(src).name() + "->" +
         cluster_.node(dst).name();
}

obs::ScopedSpan Fabric::RpcSpan(const char* kind, sim::VirtualClock& clock,
                                sim::NodeId src, sim::NodeId dst) {
  // Guaranteed copy elision: both branches construct the span in place.
  if (tracer_ == nullptr) return obs::ScopedSpan();
  return obs::ScopedSpan(tracer_, SpanName(kind, src, dst), clock, src);
}

Status Fabric::ApplyInjectedFaults(sim::VirtualClock& clock, sim::NodeId src,
                                   sim::NodeId dst, Nanos* extra_latency,
                                   obs::ScopedSpan& span, LinkMetrics& link) {
  *extra_latency = 0;
  if (injector_ == nullptr) return Status::Ok();

  Nanos now = clock.now();
  injector_->FireFlaps(now, [this](sim::NodeId n) {
    connections_.DisconnectNode(n);
  });

  if (injector_->NodeDown(src, now) || injector_->NodeDown(dst, now)) {
    // Flapped endpoint: the caller pays the connect timeout discovering it.
    injector_->CountDownNodeRejection();
    link.flap_rejects->Inc();
    clock.Advance(injector_->plan().fault_detect_timeout);
    sim::NodeId down = injector_->NodeDown(src, now) ? src : dst;
    span.Note("fault.flap node=" + cluster_.node(down).name());
    obs::Flight().Record(obs::FlightEventKind::kFault, now,
                         "flap: node down: " + cluster_.node(down).name(),
                         span.id());
    return Status::Unavailable("injected flap: node down: " +
                               cluster_.node(down).name());
  }
  if (src != dst && injector_->ShouldDropRpc(src, dst, now)) {
    link.drops->Inc();
    clock.Advance(injector_->plan().fault_detect_timeout);
    span.Note("fault.drop");
    obs::Flight().Record(obs::FlightEventKind::kFault, now,
                         "rpc drop: " + cluster_.node(src).name() + " -> " +
                             cluster_.node(dst).name(),
                         span.id());
    return Status::Unavailable("injected rpc drop: " +
                               cluster_.node(src).name() + " -> " +
                               cluster_.node(dst).name());
  }
  *extra_latency = injector_->ExtraLatency(now);
  if (*extra_latency > 0) {
    span.Note("fault.latency_spike extra=" + std::to_string(*extra_latency) +
              "ns");
  }
  return Status::Ok();
}

Status Fabric::CallImpl(sim::VirtualClock& clock, sim::NodeId src,
                        sim::NodeId dst, size_t k, uint64_t req_bytes,
                        uint64_t resp_bytes,
                        const std::function<Nanos(Nanos)>& handler) {
  LinkMetrics& link = LinkMetricsFor(src, dst);
  obs::ScopedSpan span = RpcSpan(k > 1 ? "batch" : "rpc", clock, src, dst);
  if (k > 1) span.Note("batch k=" + std::to_string(k));
  if (!cluster_.node(src).up()) {
    span.Note("unavailable: source down");
    return Status::Unavailable("source node down: " + cluster_.node(src).name());
  }
  if (!cluster_.node(dst).up()) {
    span.Note("unavailable: target down");
    return Status::Unavailable("target node down: " + cluster_.node(dst).name());
  }
  Nanos spike = 0;
  DIESEL_RETURN_IF_ERROR(
      ApplyInjectedFaults(clock, src, dst, &spike, span, link));

  rpcs_.fetch_add(1, std::memory_order_relaxed);
  link.calls->Inc();
  link.req_bytes->Inc(req_bytes);
  link.resp_bytes->Inc(resp_bytes);
  if (k > 1) {
    link.batch_calls->Inc();
    link.batch_subrequests->Inc(k);
    link.batch_size->Observe(static_cast<double>(k));
  }
  const Nanos issued = clock.now();

  // The fixed per-RPC CPU overhead is paid once per endpoint traversal; each
  // extra coalesced sub-request only adds its marginal marshalling cost.
  const Nanos setup = sim::kRpcCpuOverhead +
                      static_cast<Nanos>(k - 1) * sim::kRpcBatchSubRequestCost;

  if (src == dst) {
    // Loopback: no NIC traversal, just serialization overhead + handler.
    Nanos arrival = clock.now() + setup;
    Nanos done = handler(arrival);
    clock.AdvanceTo(done + setup);
    link.latency_ns->Observe(static_cast<double>(clock.now() - issued));
    return Status::Ok();
  }

  sim::SimNode& s = cluster_.node(src);
  sim::SimNode& d = cluster_.node(dst);
  Nanos wire = wire_latency_ + spike;

  // A batched leg streams: the endpoint marshals and transmits sub-requests
  // one after another, so its NIC time is k chained small serves (totalling
  // `setup` + the transfer) rather than one monolithic slot. Identical cost
  // on an idle NIC, but the pieces can backfill short gaps in a busy
  // timeline where a contiguous (k-1)-subrequest slot would have to wait.
  // `subs`, when non-null, receives each sub-request's serve completion time.
  auto leg = [&](sim::SimNode& node, Nanos at, uint64_t bytes,
                 std::vector<Nanos>* subs = nullptr) -> Nanos {
    sim::ServeStats st;
    if (k == 1) {
      Nanos end = node.nic().Serve(at, bytes, setup, &st);
      link.busy_ns->Inc(static_cast<uint64_t>(st.service));
      link.queue_wait_ns->Observe(static_cast<double>(st.queue_wait));
      return end;
    }
    uint64_t per = bytes / k;
    Nanos t = node.nic().Serve(at, per + bytes % k, sim::kRpcCpuOverhead, &st);
    Nanos leg_busy = st.service;
    // The link queued only until the first sub-request started streaming;
    // later pieces chain off earlier completions by construction.
    link.queue_wait_ns->Observe(static_cast<double>(st.queue_wait));
    if (subs != nullptr) subs->push_back(t);
    for (size_t i = 1; i < k; ++i) {
      t = node.nic().Serve(t, per, sim::kRpcBatchSubRequestCost, &st);
      leg_busy += st.service;
      if (subs != nullptr) subs->push_back(t);
    }
    link.busy_ns->Inc(static_cast<uint64_t>(leg_busy));
    return t;
  };

  // When tracing a batch, the sender's request leg materializes each
  // coalesced sub-request as a child span under the batch span, so the trace
  // shows the streamed marshal windows rather than one opaque slot.
  std::vector<Nanos> sub_done;
  Nanos t = leg(s, clock.now(), req_bytes,
                span.active() && k > 1 ? &sub_done : nullptr);
  if (!sub_done.empty()) {
    Nanos prev = issued;
    for (size_t i = 0; i < sub_done.size(); ++i) {
      uint64_t child = tracer_->Begin("batch.sub", prev, src, span.id());
      tracer_->Note(child, prev,
                    "sub=" + std::to_string(i) + "/" + std::to_string(k));
      tracer_->End(child, sub_done[i]);
      prev = sub_done[i];
    }
  }
  t += wire;
  t = leg(d, t, req_bytes);
  Nanos done = handler(t);
  t = leg(d, done, resp_bytes);
  t += wire;
  t = leg(s, t, resp_bytes);
  clock.AdvanceTo(t);
  link.latency_ns->Observe(static_cast<double>(clock.now() - issued));
  return Status::Ok();
}

Status Fabric::Call(sim::VirtualClock& clock, sim::NodeId src, sim::NodeId dst,
                    uint64_t req_bytes, uint64_t resp_bytes,
                    const std::function<Nanos(Nanos)>& handler) {
  return CallImpl(clock, src, dst, /*k=*/1, req_bytes, resp_bytes, handler);
}

Status Fabric::CallBatch(sim::VirtualClock& clock, sim::NodeId src,
                         sim::NodeId dst, size_t k, uint64_t req_bytes,
                         uint64_t resp_bytes,
                         const std::function<Nanos(Nanos)>& handler) {
  if (k == 0) return Status::InvalidArgument("CallBatch: empty batch");
  return CallImpl(clock, src, dst, k, req_bytes, resp_bytes, handler);
}

Status Fabric::Send(sim::VirtualClock& clock, sim::NodeId src, sim::NodeId dst,
                    uint64_t bytes, const std::function<void(Nanos)>& deliver) {
  LinkMetrics& link = LinkMetricsFor(src, dst);
  obs::ScopedSpan span = RpcSpan("send", clock, src, dst);
  if (!cluster_.node(src).up()) {
    span.Note("unavailable: source down");
    return Status::Unavailable("source node down");
  }
  if (!cluster_.node(dst).up()) {
    span.Note("unavailable: target down");
    return Status::Unavailable("target node down");
  }
  Nanos spike = 0;
  DIESEL_RETURN_IF_ERROR(
      ApplyInjectedFaults(clock, src, dst, &spike, span, link));

  rpcs_.fetch_add(1, std::memory_order_relaxed);
  link.sends->Inc();
  link.req_bytes->Inc(bytes);

  if (src == dst) {
    deliver(clock.now() + sim::kRpcCpuOverhead);
    clock.Advance(sim::kRpcCpuOverhead);
    return Status::Ok();
  }

  sim::SimNode& s = cluster_.node(src);
  sim::SimNode& d = cluster_.node(dst);
  sim::ServeStats st;
  Nanos t = s.nic().Serve(clock.now(), bytes, sim::kRpcCpuOverhead, &st);
  link.busy_ns->Inc(static_cast<uint64_t>(st.service));
  link.queue_wait_ns->Observe(static_cast<double>(st.queue_wait));
  clock.AdvanceTo(t);  // sender is free once bytes are on the wire
  t += wire_latency_ + spike;
  t = d.nic().Serve(t, bytes, sim::kRpcCpuOverhead, &st);
  link.busy_ns->Inc(static_cast<uint64_t>(st.service));
  deliver(t);
  return Status::Ok();
}

}  // namespace diesel::net
