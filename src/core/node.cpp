#include "core/node.hpp"

#include <algorithm>

#include "dir/record.hpp"
#include "orb/resilience.hpp"
#include "session/session.hpp"
#include "util/log.hpp"

namespace clc::core {

namespace {

/// Well-known object key of a node's NodeService servant: peers construct
/// references to it from the NodeId alone (CORBA "corbaloc" analogue).
Uuid node_service_key(NodeId id) {
  return Uuid{0xC0DEC0DE00000001ULL, id.value};
}

/// Remote calls that are safe to retry: reads, get-or-create acquisition,
/// and cohesion protocol messages (which the protocol already dedupes).
constexpr orb::InvokeOptions kIdempotent{.idempotent = true};

/// Orb-facing adapter over the node's AdmissionController. Classifies
/// clc::* internal interfaces (NodeService cohesion/failover traffic, the
/// directory, zone routing) as control-plane -- shed strictly after
/// application calls -- and everything else as application traffic.
class NodeAdmissionGate final : public orb::AdmissionGate {
 public:
  NodeAdmissionGate(AdmissionController& ctrl, const Clock& clock)
      : ctrl_(ctrl), clock_(clock) {}

  Result<void> admit(const std::string& interface_name,
                     const std::string& operation) override {
    const auto cls = interface_name.rfind("clc::", 0) == 0
                         ? CallClass::control
                         : CallClass::application;
    // Learned per-op cost: 0 (not warmed) falls back to the static
    // per-class default inside the controller.
    return ctrl_.admit(cls, clock_.now(),
                       ctrl_.learned_cost(interface_name + "." + operation));
  }
  std::uint32_t credit_hint() override {
    return ctrl_.credit_window(clock_.now());
  }
  std::uint64_t queue_delay_us() override {
    return static_cast<std::uint64_t>(ctrl_.queue_delay(clock_.now()));
  }
  void record_service_time(const std::string& interface_name,
                           const std::string& operation,
                           std::uint64_t service_us) override {
    ctrl_.record_service_time(interface_name + "." + operation, service_us);
  }

 private:
  AdmissionController& ctrl_;
  const Clock& clock_;
};

constexpr const char* kNodeIdl = R"(
module clc {
  typedef sequence<octet> Blob;
  interface NodeService {
    // Component Acceptor (Fig. 1): accept a package for local installation.
    void accept_package(in Blob package);
    // Reflection: descriptor XML and IDL of an installed component.
    string describe_component(in string component, in string version);
    string get_component_idl(in string component, in string version);
    // Network-as-repository: ship a package to the requesting platform.
    Blob fetch_package(in string component, in string version,
                       in string arch, in string os, in string orb_name,
                       in string device);
    // Instance acquisition (get-or-create) and assembly wiring.
    string acquire_instance(in string component, in string constraint,
                            out Object primary);
    void connect_instance(in string token, in string port, in Object target);
    Object instance_port(in string token, in string port);
    // Migration: restore a captured instance here.
    string receive_instance(in string component, in string version,
                            in Blob state, out Object primary);
    // Event channels across nodes.
    void subscribe_events(in string event_type, in Object consumer);
    // Aggregation (data-parallel) chunk execution.
    Blob process_chunk(in string component, in string constraint,
                       in Blob chunk);
    // Failover: hold a peer instance's checkpoint (fenced by incarnation).
    void store_checkpoint(in Blob record);
    // Network Cohesion transport: protocol messages ride oneway calls.
    oneway void deliver(in Blob message);
  };
};
)";

/// Per-node client-side partition gate. The shared FaultyTransport is
/// destination-addressed and knows nothing about who is sending, so
/// directed link cuts need a decorator that does: one per node, carrying
/// the node's own id, consulting the LocalNetwork's cut table before
/// handing the frame on. Blocked traffic fails with Errc::unreachable --
/// retryable, exactly like a detached endpoint -- and counts in the
/// sender's `orb.partitioned` metric.
class PartitionedTransport final : public orb::Transport {
 public:
  PartitionedTransport(NodeId self, LocalNetwork& net,
                       std::shared_ptr<orb::Transport> inner,
                       obs::MetricsRegistry* metrics)
      : self_(self),
        net_(net),
        inner_(std::move(inner)),
        partitioned_(&metrics->counter("orb.partitioned")) {}

  void submit(const std::string& endpoint, BytesView frame,
              orb::ReplyCallback cb,
              orb::Delivery delivery = orb::Delivery::request_reply) override {
    if (auto blocked = gate(endpoint)) {
      cb(*blocked);
      return;
    }
    inner_->submit(endpoint, frame, std::move(cb), delivery);
  }

 private:
  std::optional<Error> gate(const std::string& endpoint) const {
    if (!net_.link_blocked_to(self_, endpoint)) return std::nullopt;
    partitioned_->inc();
    return Error{Errc::unreachable,
                 "link cut " + self_.to_string() + " -> " + endpoint};
  }

  NodeId self_;
  LocalNetwork& net_;
  std::shared_ptr<orb::Transport> inner_;
  obs::Counter* partitioned_;
};

}  // namespace

// ---------------------------------------------------------------------------
// LocalNetwork

LocalNetwork::LocalNetwork(CohesionConfig cohesion_defaults,
                           FailoverConfig failover_defaults)
    : transport_(std::make_shared<orb::LoopbackNetwork>()),
      faulty_(std::make_shared<fault::FaultyTransport>(transport_)),
      collector_(std::make_shared<obs::TraceCollector>()),
      cohesion_defaults_(cohesion_defaults),
      failover_defaults_(failover_defaults) {
  // Injected delays and modelled latency advance the shared virtual clock
  // instead of sleeping, so chaos runs stay deterministic and fast under
  // `ctest -j`.
  faulty_->set_sleep_fn([this](Duration d) { clock_.advance(d); });
  transport_->set_sleep_fn([this](Duration d) { clock_.advance(d); });
}

Node& LocalNetwork::add_node(NodeProfile profile, bool auto_join) {
  return add_node(std::move(profile), cohesion_defaults_, auto_join);
}

Node& LocalNetwork::add_node(NodeProfile profile,
                             CohesionConfig cohesion_config, bool auto_join) {
  const NodeId id{next_id_++};
  owned_.push_back(std::make_unique<Node>(id, std::move(profile), *this,
                                          cohesion_config,
                                          failover_defaults_));
  Node& node = *owned_.back();
  if (auto_join) {
    if (owned_.size() == 1) {
      node.start_network(now());
    } else {
      node.join(owned_.front()->id(), now());
    }
  }
  return node;
}

void LocalNetwork::register_node(Node& node, const std::string& endpoint) {
  directory_[node.id()] = {endpoint, &node};
  // Old endpoints of restarted nodes stay mapped: they are permanently
  // detached, so the partition gate never needs to un-learn them.
  endpoint_owner_[endpoint] = node.id();
}

void LocalNetwork::partition(const std::vector<NodeId>& side_a,
                             const std::vector<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      cut_links_.insert({a, b});
      cut_links_.insert({b, a});
    }
  }
}

bool LocalNetwork::link_blocked_to(NodeId from,
                                   const std::string& endpoint) const {
  auto it = endpoint_owner_.find(endpoint);
  return it != endpoint_owner_.end() && link_blocked(from, it->second);
}

void LocalNetwork::set_partition_schedule(
    const fault::PartitionSchedule& schedule) {
  for (const fault::PartitionEvent& ev : schedule.events) {
    for (const fault::LinkCut& cut : ev.cuts) {
      partition_actions_.emplace(ev.at, std::make_pair(true, cut));
      if (ev.heal_after > 0)
        partition_actions_.emplace(ev.at + ev.heal_after,
                                   std::make_pair(false, cut));
    }
  }
  apply_due_partition_actions();  // events at or before "now" apply at once
}

void LocalNetwork::apply_due_partition_actions() {
  while (!partition_actions_.empty() &&
         partition_actions_.begin()->first <= clock_.now()) {
    const auto [install, link] = partition_actions_.begin()->second;
    if (install) {
      cut_links_.insert(link);
    } else {
      cut_links_.erase(link);
    }
    partition_actions_.erase(partition_actions_.begin());
  }
}

Result<std::string> LocalNetwork::endpoint_of(NodeId id) const {
  auto it = directory_.find(id);
  if (it == directory_.end())
    return Error{Errc::not_found, "unknown node " + id.to_string()};
  return it->second.first;
}

Node* LocalNetwork::node(NodeId id) const {
  auto it = directory_.find(id);
  return it == directory_.end() ? nullptr : it->second.second;
}

std::vector<Node*> LocalNetwork::nodes() const {
  std::vector<Node*> out;
  for (const auto& [id, entry] : directory_) {
    if (crashed_.count(id) == 0) out.push_back(entry.second);
  }
  return out;
}

void LocalNetwork::advance(Duration duration, Duration step) {
  const TimePoint deadline = clock_.now() + duration;
  while (clock_.now() < deadline) {
    clock_.advance(std::min(step, deadline - clock_.now()));
    apply_due_partition_actions();
    for (const auto& [id, entry] : directory_) {
      if (crashed_.count(id) == 0) entry.second->tick(clock_.now());
    }
  }
}

void LocalNetwork::settle() { advance(cohesion_defaults_.heartbeat * 8); }

void LocalNetwork::crash(NodeId id) {
  auto it = directory_.find(id);
  if (it == directory_.end() || crashed_.count(id) != 0) return;
  it->second.second->crash_local();
  transport_->detach(it->second.first);
  crashed_.insert(id);
}

void LocalNetwork::restart(NodeId id) {
  auto it = directory_.find(id);
  if (it == directory_.end() || crashed_.count(id) == 0) return;
  crashed_.erase(id);
  // Re-join through the lowest-id live peer (the well-known bootstrap
  // analogue); a lone survivor re-founds the network instead.
  NodeId bootstrap{};
  for (const auto& [nid, entry] : directory_) {
    if (nid != id && crashed_.count(nid) == 0) {
      bootstrap = nid;
      break;
    }
  }
  it->second.second->restart_local(bootstrap, now());
}

// ---------------------------------------------------------------------------
// Node

Node::Node(NodeId id, NodeProfile profile, LocalNetwork& network,
           CohesionConfig cohesion_config, FailoverConfig failover_config)
    : id_(id),
      network_(network),
      tracer_(id, network.trace_collector(),
              [this] { return network_.now(); }),
      admission_(metrics_),
      types_(std::make_shared<idl::InterfaceRepository>()),
      orb_(std::make_unique<orb::Orb>(id, types_, &metrics_)),
      resources_(profile, &metrics_),
      repository_(profile, types_),
      registry_(id, repository_, resources_),
      events_(*orb_),
      container_(
          Container::Services{
              orb_.get(), &repository_, &resources_, &events_, &registry_,
              [this](const std::string& component,
                     const VersionConstraint& c) -> Result<orb::ObjectRef> {
                auto bound = resolve(component, c);
                if (!bound) return bound.error();
                return bound->primary;
              }},
          id.value),
      cohesion_(id, cohesion_config,
                [this](NodeId to, const ProtoMessage& m) {
                  auto service = node_service_ref(to);
                  if (!service) return;  // unknown peer: message lost
                  (void)orb_->send(*service, "deliver",
                                   {orb::Value(m.encode())}, kIdempotent);
                },
                &metrics_),
      failover_(failover_config),
      retry_rng_(0xFA11BACCULL ^ (id.value * 0x9E3779B97F4A7C15ULL)),
      directory_(&metrics_) {
  install_node_idl();
  orb_->add_client_interceptor(
      std::make_shared<obs::TraceClientInterceptor>(tracer_));
  orb_->add_server_interceptor(
      std::make_shared<obs::TraceServerInterceptor>(tracer_));
  auto* orb_raw = orb_.get();
  const std::string endpoint = network_.transport().register_endpoint(
      [orb_raw](BytesView frame) { return orb_raw->handle_frame(frame); });
  orb_->set_endpoint(endpoint);
  // Client traffic crosses the per-node partition gate, then the shared
  // fault decorator (a pass-through until a chaos test arms a plan); time
  // and backoff run on the shared virtual clock so no test ever sleeps or
  // reads wall time.
  orb_->add_transport("loop", std::make_shared<PartitionedTransport>(
                                  id, network_,
                                  network_.faulty_transport_ptr(),
                                  &metrics_));
  orb_->set_clock(&network_.clock());
  orb_->set_sleep_fn([this](Duration d) { network_.clock().advance(d); });
  orb_->set_admission_gate(
      std::make_shared<NodeAdmissionGate>(admission_, network_.clock()));
  orb::InvocationPolicies policies;
  policies.deadline = seconds(5);
  policies.retry.max_attempts = 4;
  policies.retry.initial_backoff = milliseconds(2);
  policies.breaker.enabled = true;
  policies.breaker.failure_threshold = 6;
  policies.breaker.open_duration = cohesion_config.heartbeat * 2;
  orb_->set_invocation_policies(policies);
  make_node_servant();
  install_directory();
  network_.register_node(*this, endpoint);
  cohesion_.set_digest_provider([this] { return registry_.digest(); });
  cohesion_.set_node_dead_handler(
      [this](NodeId dead, std::uint64_t dead_incarnation,
             std::vector<NodeId> alive) {
        on_peer_dead(dead, dead_incarnation, alive);
      });
  cohesion_.set_node_revived_handler(
      [this](NodeId origin, std::uint64_t origin_inc) {
        on_peer_revived(origin, origin_inc);
      });
  cohesion_.set_failover_claim_handler(
      [this](const FailoverClaim& claim) { on_failover_claim(claim); });
  // Protocol transitions ("suspected:<id>", "promoted", ...) surface as
  // zero-length spans in the shared collector, so a partition's timeline
  // reads straight out of the cross-node trace.
  cohesion_.set_transition_hook([this](const std::string& what) {
    obs::ScopedSpan span(tracer_, "cohesion:" + what);
  });
  if (cohesion_config.zone != 0) {
    // Zoned deployment: the router links this zone's root into the
    // roots-of-roots layer. It rides the same oneway "deliver" channel as
    // cohesion traffic (the servant splits inbound frames by kind).
    ZoneConfig zc;
    zc.zone = cohesion_config.zone;
    zc.hello_interval = cohesion_config.heartbeat;
    zc.publish_interval = cohesion_config.heartbeat * 2;
    zc.suspect_after = cohesion_config.suspect_after;
    zc.resolve_timeout = cohesion_config.query_timeout;
    zone_router_ = std::make_unique<ZoneRouter>(
        id, zc, cohesion_,
        [this](NodeId to, const ProtoMessage& m) {
          auto service = node_service_ref(to);
          if (!service) return;  // unknown peer: message lost
          (void)orb_->send(*service, "deliver", {orb::Value(m.encode())},
                           kIdempotent);
        },
        &metrics_);
  }
}

Node::~Node() = default;

void Node::install_node_idl() {
  auto r = types_->register_idl(kNodeIdl);
  if (!r.ok())
    CLC_LOG(error, "node") << "node IDL failed to register: "
                           << r.error().to_string();
}

Result<orb::ObjectRef> Node::node_service_ref(NodeId peer) const {
  auto endpoint = network_.endpoint_of(peer);
  if (!endpoint) return endpoint.error();
  orb::ObjectRef ref;
  ref.node = peer;
  ref.key = node_service_key(peer);
  ref.interface_name = "clc::NodeService";
  ref.endpoint = *endpoint;
  return ref;
}

// ---------------------------------------------------------------------------
// Replicated service directory (DESIGN.md §14)

void Node::install_directory() {
  auto r = types_->register_idl(dir::directory_idl());
  if (!r.ok())
    CLC_LOG(error, "node") << "directory IDL failed to register: "
                           << r.error().to_string();
  // Change notifications ride oneway CLCP sends: best effort, never
  // blocking the publish path on a slow or dead subscriber.
  directory_.set_notify_fn(
      [this](const orb::ObjectRef& subscriber, const dir::DirNotification& n) {
        (void)orb_->send(subscriber, "notify", {orb::Value(n.encode())},
                         kIdempotent);
      });
  auto servant = std::make_shared<orb::DynamicServant>("clc::Directory");
  servant->on("publish", [this](orb::ServerRequest& req) -> Result<void> {
    auto rec = dir::ServiceRecord::decode(req.arg(0).as<Bytes>());
    if (!rec) return rec.error();
    directory_.apply(*rec);
    return {};
  });
  servant->on("lookup", [this](orb::ServerRequest& req) -> Result<void> {
    auto rec = directory_.lookup(req.arg(0).as<std::string>());
    if (!rec) return rec.error();
    req.set_result(orb::Value(rec->encode()));
    return {};
  });
  servant->on("lookup_group", [this](orb::ServerRequest& req) -> Result<void> {
    req.set_result(orb::Value(dir::encode_records(
        directory_.lookup_group(req.arg(0).as<std::string>()))));
    return {};
  });
  servant->on("exchange_table",
              [this](orb::ServerRequest& req) -> Result<void> {
    // Merge the caller's table, answer with ours: one roundtrip carries
    // both directions of the anti-entropy exchange.
    auto merged = directory_.merge_table(req.arg(0).as<Bytes>());
    if (!merged) return merged.error();
    req.set_result(orb::Value(directory_.encode_table()));
    return {};
  });
  servant->on("subscribe", [this](orb::ServerRequest& req) -> Result<void> {
    directory_.subscribe(req.arg(0).as<orb::ObjectRef>());
    return {};
  });
  servant->on("unsubscribe", [this](orb::ServerRequest& req) -> Result<void> {
    directory_.unsubscribe(req.arg(0).as<orb::ObjectRef>());
    return {};
  });
  (void)orb_->activate_with_key(std::move(servant),
                                dir::directory_service_key(id_));
}

Result<orb::ObjectRef> Node::directory_ref(NodeId replica) const {
  auto endpoint = network_.endpoint_of(replica);
  if (!endpoint) return endpoint.error();
  orb::ObjectRef ref;
  ref.node = replica;
  ref.key = dir::directory_service_key(replica);
  ref.interface_name = "clc::Directory";
  ref.endpoint = *endpoint;
  return ref;
}

std::vector<NodeId> Node::directory_replicas() const {
  // Same lowest-id election as checkpoint holders, but including self:
  // the directory wants R well-known replicas total, wherever they run.
  // network_.nodes() is id-ordered, so every node derives the same set.
  std::vector<NodeId> replicas;
  const int want = std::max(1, failover_.replicas);
  for (Node* p : network_.nodes()) {
    replicas.push_back(p->id());
    if (static_cast<int>(replicas.size()) >= want) break;
  }
  return replicas;
}

void Node::publish_service(const std::string& service,
                           const orb::ObjectRef& ref) {
  dir::ServiceRecord rec;
  rec.service = service;
  rec.ref = ref;
  rec.host = id_;
  rec.incarnation = incarnation_;
  rec.epoch = cohesion_.epoch();
  rec.stamp = static_cast<std::uint64_t>(network_.now());
  // Ship the component's IDL inside the record (libqi-style complete
  // service info): a session that learns this binding can register the
  // types into its own Orb and invoke immediately, with no node-level
  // IDL fetch -- which is what keeps name-based calls working across a
  // failover, where the original host is gone.
  if (auto active = container_.find_active(service, VersionConstraint{});
      active.ok())
    if (auto desc = container_.description_of(*active); desc.ok())
      if (auto idl = repository_.idl_of(service, (*desc)->version); idl.ok())
        rec.idl = *idl;
  publish_record(rec);
}

void Node::publish_record(const dir::ServiceRecord& record) {
  // Always into the local table first: if every replica is unreachable
  // (mid-partition restore), anti-entropy carries the record over after
  // the heal -- that round-trip bounds directory convergence.
  directory_.apply(record);
  const Bytes blob = record.encode();
  for (NodeId replica : directory_replicas()) {
    if (replica == id_) continue;
    auto service = directory_ref(replica);
    if (!service) continue;
    (void)orb_->call(*service, "publish", {orb::Value(blob)}, kIdempotent);
  }
  metrics_.counter("dir.publishes").inc();
}

void Node::gossip_directory() {
  std::vector<NodeId> targets;
  for (NodeId replica : directory_replicas())
    if (replica != id_) targets.push_back(replica);
  if (targets.empty()) return;
  const NodeId target = targets[dir_gossip_rotor_++ % targets.size()];
  auto service = directory_ref(target);
  if (!service) return;
  auto theirs = orb_->call(*service, "exchange_table",
                           {orb::Value(directory_.encode_table())},
                           kIdempotent);
  if (!theirs) return;
  (void)directory_.merge_table(theirs->as<Bytes>());
  metrics_.counter("dir.gossip_rounds").inc();
}

void Node::start_network(TimePoint now) { cohesion_.start_as_first(now); }

void Node::join(NodeId bootstrap, TimePoint now) {
  cohesion_.start_joining(bootstrap, now);
}

void Node::tick(TimePoint now) {
  cohesion_.on_tick(now);
  if (zone_router_) zone_router_->on_tick(now);
  if (failover_.checkpoint_interval > 0 && cohesion_.joined()) {
    if (last_checkpoint_ == 0) {
      last_checkpoint_ = now;  // first joined tick starts the timer
    } else if (now - last_checkpoint_ >= failover_.checkpoint_interval) {
      last_checkpoint_ = now;
      run_checkpoints();
    }
  }
  // Directory anti-entropy rides the same cadence as the registry's
  // (every anti_entropy_every heartbeats). EVERY joined node trades with
  // one replica per round -- not just replica-to-replica -- so a record
  // published while the replicas were unreachable (e.g. a mid-partition
  // failover restore) still flows back into the replica set after a heal.
  const Duration gossip_every =
      cohesion_.config().heartbeat *
      std::max(1, cohesion_.config().anti_entropy_every);
  if (cohesion_.joined() && directory_.size() > 0) {
    if (last_dir_gossip_ == 0) {
      last_dir_gossip_ = now;
    } else if (now - last_dir_gossip_ >= gossip_every) {
      last_dir_gossip_ = now;
      gossip_directory();
    }
  }
}

Result<void> Node::install(const Bytes& package_bytes) {
  if (auto r = repository_.install(package_bytes); !r.ok()) return r;
  cohesion_.broadcast_update(network_.now());  // strong-mode hook (no-op otherwise)
  return {};
}

Result<std::vector<QueryHit>> Node::query_network(const ComponentQuery& q) {
  auto r = query_network_detailed(q);
  if (!r) return r.error();
  return std::move(r->hits);
}

Result<QueryResult> Node::query_network_detailed(const ComponentQuery& q) {
  obs::ScopedSpan span(tracer_, "query:" + q.name_pattern);
  auto r = query_network_impl(q);
  if (!r.ok()) span.fail();
  return r;
}

Result<QueryResult> Node::query_network_impl(const ComponentQuery& q) {
  // Query messages are idempotent protocol traffic, so a lost broadcast is
  // safely re-asked. The attempt budget, total deadline and backoff come
  // from the ORB's InvocationPolicies, so the one knob that tunes ordinary
  // invocation retry tunes distributed-query retry too.
  const orb::InvocationPolicies policies = orb_->invocation_policies();
  const int max_attempts = std::max(1, policies.retry.max_attempts);
  const TimePoint budget_end =
      policies.deadline > 0 ? network_.now() + policies.deadline : TimePoint{0};
  for (int attempt = 1;; ++attempt) {
    std::optional<QueryResult> result;
    cohesion_.query_ex(q, network_.now(), [&result](QueryResult qr) {
      result = std::move(qr);
    });
    // Loopback delivery is synchronous, so most queries complete before
    // query_ex() returns; the rest (unreachable peers) end at the timeout.
    const TimePoint deadline =
        network_.now() + cohesion_.config().query_timeout +
        cohesion_.config().heartbeat;
    while (!result.has_value() && network_.now() < deadline) {
      network_.advance(cohesion_.config().heartbeat / 2);
    }
    if (result.has_value()) {
      if (result->degraded) metrics_.counter("node.degraded_queries").inc();
      return std::move(*result);
    }
    if (attempt >= max_attempts ||
        (budget_end != 0 && network_.now() >= budget_end))
      return Error{Errc::timeout, "distributed query never completed"};
    metrics_.counter("node.query_retries").inc();
    network_.advance(orb::backoff_delay(policies.retry, attempt, retry_rng_));
  }
}

Result<std::string> Node::remote_idl(NodeId peer, const std::string& component,
                                     const Version& version) {
  auto service = node_service_ref(peer);
  if (!service) return service.error();
  auto idl_text = orb_->call(*service, "get_component_idl",
                             {orb::Value(component),
                              orb::Value(version.to_string())},
                             kIdempotent);
  if (!idl_text) return idl_text.error();
  return idl_text->as<std::string>();
}

Result<BoundComponent> Node::acquire_local(const std::string& component,
                                           const VersionConstraint& constraint) {
  InstanceId id;
  bool created_new = false;
  if (auto existing = container_.find_active(component, constraint);
      existing.ok()) {
    id = *existing;
  } else {
    auto created = container_.create(component, constraint);
    if (!created) return created.error();
    id = *created;
    instance_epochs_[id] = cohesion_.epoch();
    created_new = true;
  }
  auto primary = primary_port(id);
  if (!primary) return primary.error();
  // A fresh instance is a directory event (service appeared here);
  // re-acquiring an existing one is not.
  if (created_new) publish_service(component, *primary);
  BoundComponent bound;
  bound.primary = *primary;
  bound.host = id_;
  bound.instance_token = id.to_string();
  return bound;
}

Result<orb::ObjectRef> Node::primary_port(InstanceId id) const {
  auto d = container_.description_of(id);
  if (!d) return d.error();
  const auto provides = (*d)->ports_of(pkg::PortKind::provides);
  if (provides.empty())
    return Error{Errc::bad_state,
                 (*d)->name + " declares no provides-port to bind to"};
  return container_.provided_port(id, provides.front().name);
}

Result<BoundComponent> Node::resolve(const std::string& component,
                                     const VersionConstraint& constraint,
                                     Binding binding) {
  obs::ScopedSpan span(tracer_, "resolve:" + component);
  auto r = resolve_impl(component, constraint, binding);
  if (!r.ok()) span.fail();
  return r;
}

Result<BoundComponent> Node::resolve_impl(const std::string& component,
                                          const VersionConstraint& constraint,
                                          Binding binding) {
  // 1. Local repository first (zero network cost).
  if (binding != Binding::remote && repository_.has(component, constraint))
    return acquire_local(component, constraint);

  // 1b. An attached session's notification-maintained cache answers next:
  // retried resolves used to re-run the whole distributed query from the
  // hierarchy root every attempt, when the directory already knows where
  // the component runs.
  if (session_ != nullptr && binding != Binding::fetch_local) {
    if (auto cached = session_->resolve(component); cached.ok()) {
      metrics_.counter("node.query_cache_hits").inc();
      BoundComponent bound;
      bound.primary = *cached;
      bound.host = cached->node;
      return bound;
    }
  }

  // 2. Distributed query.
  ComponentQuery q;
  q.name_pattern = component;
  q.constraint = constraint;
  q.require_mobile = binding == Binding::fetch_local;
  auto hits = query_network(q);
  if (!hits) return hits.error();
  if (hits->empty())
    return Error{Errc::not_found,
                 "no node in the network offers " + component + " " +
                     constraint.to_string()};

  // Prefetch every mobile candidate's description in parallel (AMI
  // fan-out): the describe_component calls pipeline over the pooled
  // connections instead of serializing one roundtrip per candidate, and
  // the loop below consumes each reply as it reaches that candidate.
  std::map<std::string, orb::PendingInvocation> descriptions;
  if (binding == Binding::auto_decide && resources_.profile().can_install()) {
    for (const QueryHit& hit : *hits) {
      if (!hit.mobile) continue;
      auto service = node_service_ref(hit.node);
      if (!service) continue;
      const std::string key = hit.node.to_string() + "|" + hit.component +
                              "|" + hit.version.to_string();
      if (descriptions.count(key) != 0) continue;
      descriptions.emplace(
          key, orb_->invoke_async(*service, "describe_component",
                                  {orb::Value(hit.component),
                                   orb::Value(hit.version.to_string())},
                                  kIdempotent));
    }
  }

  for (const QueryHit& hit : *hits) {
    // 3. Decide fetch-vs-remote for this candidate.
    bool fetch = binding == Binding::fetch_local;
    if (binding == Binding::auto_decide && hit.mobile &&
        resources_.profile().can_install()) {
      const std::string key = hit.node.to_string() + "|" + hit.component +
                              "|" + hit.version.to_string();
      auto pending = descriptions.find(key);
      if (pending != descriptions.end()) {
        const auto& outcome = pending->second.outcome();
        if (outcome.ok() && !outcome->exception.has_value()) {
          auto d = pkg::ComponentDescription::from_xml(
              outcome->result.as<std::string>());
          // Bandwidth-sensitive components (the paper's MPEG-decoder case)
          // are worth fetching; others bind remotely.
          if (d.ok() && d->qos.min_bandwidth_kbps > 0) fetch = true;
        }
      }
    }

    if (fetch) {
      auto fetched = fetch_component(hit.node, hit.component, hit.version);
      if (fetched.ok()) {
        auto bound = acquire_local(component, constraint);
        if (bound.ok()) {
          bound->fetched = true;
          return bound;
        }
      }
      if (binding == Binding::fetch_local) continue;  // try next candidate
    }

    // 4. Remote bind: import the component's types, then acquire.
    auto idl_text = remote_idl(hit.node, hit.component, hit.version);
    if (idl_text.ok() && !idl_text->empty())
      (void)types_->register_idl(*idl_text);
    auto service = node_service_ref(hit.node);
    if (!service) continue;
    std::vector<orb::Value> args = {orb::Value(component),
                                    orb::Value(constraint.to_string()),
                                    orb::Value()};
    auto outcome = orb_->invoke(*service, "acquire_instance", args,
                                kIdempotent);
    if (!outcome || outcome->exception.has_value()) continue;
    BoundComponent bound;
    bound.instance_token = outcome->result.as<std::string>();
    bound.primary = args[2].as<orb::ObjectRef>();
    bound.host = hit.node;
    return bound;
  }
  return Error{Errc::unreachable,
               "every candidate for " + component + " failed to bind"};
}

Result<void> Node::fetch_component(NodeId from, const std::string& component,
                                   const Version& version) {
  auto service = node_service_ref(from);
  if (!service) return service.error();
  const NodeProfile& p = resources_.profile();
  auto package = orb_->call(
      *service, "fetch_package",
      {orb::Value(component), orb::Value(version.to_string()),
       orb::Value(p.arch), orb::Value(p.os), orb::Value(p.orb),
       orb::Value(std::string(device_class_name(p.device)))},
      kIdempotent);
  if (!package) return package.error();
  auto installed = install(package->as<Bytes>());
  if (!installed.ok() && installed.error().code != Errc::already_exists)
    return installed;
  return {};
}

Result<BoundComponent> Node::migrate_instance(InstanceId id, NodeId target) {
  obs::ScopedSpan span(tracer_, "migrate:" + id.to_string());
  auto r = migrate_instance_impl(id, target);
  if (!r.ok()) span.fail();
  return r;
}

Result<BoundComponent> Node::migrate_instance_impl(InstanceId id,
                                                   NodeId target) {
  auto snapshot = container_.capture(id);
  if (!snapshot) return snapshot.error();
  auto service = node_service_ref(target);
  if (!service) {
    (void)container_.activate(id);  // abort: resume locally
    return service.error();
  }

  auto try_receive = [&]() -> Result<BoundComponent> {
    std::vector<orb::Value> args = {
        orb::Value(snapshot->component),
        orb::Value(snapshot->version.to_string()),
        orb::Value(snapshot->state), orb::Value()};
    auto outcome = orb_->invoke(*service, "receive_instance", args);
    if (!outcome) return outcome.error();
    if (outcome->exception.has_value())
      return Error{Errc::remote_exception, outcome->exception->type_name};
    BoundComponent bound;
    bound.instance_token = outcome->result.as<std::string>();
    bound.primary = args[3].as<orb::ObjectRef>();
    bound.host = target;
    return bound;
  };

  auto received = try_receive();
  if (!received.ok()) {
    // Likely not installed there: ship the package (in its binary form, as
    // §2.2 describes) and retry once.
    auto raw = repository_.export_package(
        snapshot->component, snapshot->version,
        network_.node(target) != nullptr
            ? network_.node(target)->resources().profile()
            : resources_.profile());
    if (raw.ok()) {
      (void)orb_->call(*service, "accept_package", {orb::Value(*raw)});
      received = try_receive();
    }
  }
  if (!received.ok()) {
    (void)container_.activate(id);  // abort: resume locally
    return received.error();
  }

  // Re-establish the instance's outgoing connections on the target: one
  // pipelined invocation per port, all in flight at once (they address
  // distinct ports, so order is immaterial), collected before the local
  // original is destroyed.
  std::vector<orb::PendingInvocation> wiring;
  wiring.reserve(snapshot->connections.size());
  for (const auto& [port, ref] : snapshot->connections) {
    wiring.push_back(orb_->invoke_async(
        *service, "connect_instance",
        {orb::Value(received->instance_token), orb::Value(port),
         orb::Value(ref)}));
  }
  for (auto& pending : wiring) pending.wait();
  (void)container_.destroy(id);
  return received;
}

Result<BoundComponent> Node::replicate_instance(InstanceId id, NodeId target) {
  auto description = container_.description_of(id);
  if (!description) return description.error();
  if (!(*description)->replicable)
    return Error{Errc::refused,
                 (*description)->name + " is not declared replicable"};
  auto snapshot = container_.capture(id);
  if (!snapshot) return snapshot.error();
  // The original resumes immediately; the snapshot travels to the replica.
  (void)container_.activate(id);

  auto service = node_service_ref(target);
  if (!service) return service.error();
  auto try_receive = [&]() -> Result<BoundComponent> {
    std::vector<orb::Value> args = {
        orb::Value(snapshot->component),
        orb::Value(snapshot->version.to_string()),
        orb::Value(snapshot->state), orb::Value()};
    auto outcome = orb_->invoke(*service, "receive_instance", args);
    if (!outcome) return outcome.error();
    if (outcome->exception.has_value())
      return Error{Errc::remote_exception, outcome->exception->type_name};
    BoundComponent bound;
    bound.instance_token = outcome->result.as<std::string>();
    bound.primary = args[3].as<orb::ObjectRef>();
    bound.host = target;
    return bound;
  };
  auto replica = try_receive();
  if (!replica.ok()) {
    auto raw = repository_.export_package(
        snapshot->component, snapshot->version,
        network_.node(target) != nullptr
            ? network_.node(target)->resources().profile()
            : resources_.profile());
    if (raw.ok()) {
      (void)orb_->call(*service, "accept_package", {orb::Value(*raw)});
      replica = try_receive();
    }
  }
  if (!replica.ok()) return replica.error();
  // Same parallel wiring fan-out as migration.
  std::vector<orb::PendingInvocation> wiring;
  wiring.reserve(snapshot->connections.size());
  for (const auto& [port, ref] : snapshot->connections) {
    wiring.push_back(orb_->invoke_async(
        *service, "connect_instance",
        {orb::Value(replica->instance_token), orb::Value(port),
         orb::Value(ref)}));
  }
  for (auto& pending : wiring) pending.wait();
  return replica;
}

Result<void> Node::connect_remote(const BoundComponent& from,
                                  const std::string& port,
                                  const orb::ObjectRef& target) {
  if (from.host == id_) {
    const InstanceId id{
        static_cast<std::uint64_t>(std::stoull(from.instance_token))};
    return container_.connect(id, port, target);
  }
  auto service = node_service_ref(from.host);
  if (!service) return service.error();
  auto r = orb_->call(*service, "connect_instance",
                      {orb::Value(from.instance_token), orb::Value(port),
                       orb::Value(target)});
  if (!r) return r.error();
  return {};
}

Result<orb::ObjectRef> Node::instance_port(const BoundComponent& of,
                                           const std::string& port) {
  if (of.host == id_) {
    const InstanceId id{
        static_cast<std::uint64_t>(std::stoull(of.instance_token))};
    return container_.provided_port(id, port);
  }
  auto service = node_service_ref(of.host);
  if (!service) return service.error();
  auto r = orb_->call(*service, "instance_port",
                      {orb::Value(of.instance_token), orb::Value(port)},
                      kIdempotent);
  if (!r) return r.error();
  return r->as<orb::ObjectRef>();
}

Result<void> Node::subscribe_on(NodeId peer, const std::string& event_type,
                                const orb::ObjectRef& consumer) {
  auto service = node_service_ref(peer);
  if (!service) return service.error();
  auto r = orb_->call(*service, "subscribe_events",
                      {orb::Value(event_type), orb::Value(consumer)});
  if (!r) return r.error();
  return {};
}

Result<Bytes> Node::process_chunk_on(NodeId peer, const std::string& component,
                                     const VersionConstraint& constraint,
                                     BytesView chunk) {
  auto service = node_service_ref(peer);
  if (!service) return service.error();
  auto r = orb_->call(*service, "process_chunk",
                      {orb::Value(component), orb::Value(constraint.to_string()),
                       orb::Value(Bytes(chunk.begin(), chunk.end()))},
                      kIdempotent);
  if (!r) return r.error();
  return r->as<Bytes>();
}

// ---------------------------------------------------------------------------
// Crash fault model: crash / restart / checkpointing / failover

void Node::crash_local() {
  // Snapshot the "disk" (raw installed package images), then lose every bit
  // of RAM: instances, registry records, held checkpoints, protocol state.
  disk_image_ = repository_.raw_package_images();
  container_.destroy_all();
  repository_.clear();
  held_checkpoints_.clear();
  checkpoint_seq_.clear();
  package_shipped_.clear();
  restored_.clear();
  instance_epochs_.clear();
  last_checkpoint_ = 0;
  directory_.clear();  // RAM state: repopulated by post-restart gossip
  last_dir_gossip_ = 0;
  dir_gossip_rotor_ = 0;
  metrics_.counter("node.crashes").inc();
  recovery_log_.push_back("crash inc=" + std::to_string(incarnation_));
}

void Node::restart_local(NodeId bootstrap, TimePoint now) {
  ++incarnation_;
  cohesion_.set_incarnation(incarnation_);
  cohesion_.restart(now);
  orb_->set_incarnation(incarnation_);
  // Register a *fresh* endpoint: references minted before the crash point
  // at the old, permanently detached one, so stale refs fail with
  // Errc::unreachable -- retryable, and a re-resolve finds the new home.
  auto* orb_raw = orb_.get();
  const std::string endpoint = network_.transport().register_endpoint(
      [orb_raw](BytesView frame) { return orb_raw->handle_frame(frame); });
  orb_->set_endpoint(endpoint);
  network_.register_node(*this, endpoint);
  // Reload the disk image; the NodeService servant survived in the (still
  // live) object adapter, so the well-known key answers on the new endpoint.
  for (const Bytes& image : disk_image_) (void)repository_.install(image);
  disk_image_.clear();
  metrics_.counter("node.restarts").inc();
  recovery_log_.push_back("restart inc=" + std::to_string(incarnation_));
  if (bootstrap.value != 0 && bootstrap != id_) {
    join(bootstrap, now);
  } else {
    start_network(now);  // lone survivor: re-found the network
  }
}

void Node::run_checkpoints() {
  if (failover_.replicas <= 0) return;
  // Holder set: the R lowest-id live peers, except that peers the phi
  // detector currently marks *slow* (gray, not dead -- DESIGN.md §17) are
  // deprioritized: they hold checkpoints only when there are not enough
  // healthy peers to fill R. Safe to decide locally: the chosen set ships
  // inside every CheckpointRecord (rec.holders), and the restore-side
  // election runs over that carried list, never over a recomputation.
  std::vector<NodeId> holders;
  std::vector<NodeId> slow;
  for (Node* p : network_.nodes()) {
    if (p->id() == id_) continue;
    if (cohesion_.is_slow(p->id())) {
      slow.push_back(p->id());
      continue;
    }
    holders.push_back(p->id());
    if (static_cast<int>(holders.size()) >= failover_.replicas) break;
  }
  for (NodeId s : slow) {
    if (static_cast<int>(holders.size()) >= failover_.replicas) break;
    holders.push_back(s);
  }
  if (holders.empty()) return;
  for (InstanceId iid : container_.instance_ids()) {
    auto snap = container_.checkpoint(iid);
    if (!snap.ok()) continue;  // not checkpointable (immobile, not active)
    CheckpointRecord rec;
    rec.origin = id_;
    rec.origin_incarnation = incarnation_;
    rec.instance = iid;
    rec.component = snap->component;
    rec.version = snap->version;
    rec.seq = ++checkpoint_seq_[iid];
    rec.epoch = cohesion_.epoch();
    rec.state = snap->state;
    rec.connections = snap->connections;
    rec.holders = holders;
    const std::string pkg_key =
        snap->component + "@" + snap->version.to_string();
    for (NodeId h : holders) {
      auto service = node_service_ref(h);
      if (!service) continue;
      CheckpointRecord out = rec;
      // Ship the package bytes with the first checkpoint to each holder
      // only; later ones carry state alone.
      const auto ship_key = std::make_pair(h.value, pkg_key);
      const bool ship_package = package_shipped_.count(ship_key) == 0;
      if (ship_package) {
        Node* holder = network_.node(h);
        auto raw = repository_.export_package(
            snap->component, snap->version,
            holder != nullptr ? holder->resources().profile()
                              : resources_.profile());
        if (raw.ok()) out.package = std::move(*raw);
      }
      auto sent = orb_->call(*service, "store_checkpoint",
                             {orb::Value(out.encode())}, kIdempotent);
      if (sent) {
        if (ship_package && !out.package.empty())
          package_shipped_.insert(ship_key);
        metrics_.counter("failover.checkpoints_sent").inc();
      }
    }
    recovery_log_.push_back("ckpt " + snap->component + "#" + iid.to_string() +
                            " seq=" + std::to_string(rec.seq));
  }
}

void Node::on_peer_dead(NodeId dead, std::uint64_t dead_incarnation,
                        const std::vector<NodeId>& alive) {
  // Checkpoints from earlier lives of the node are unrestorable garbage: a
  // restart already revived those instances on the origin itself.
  held_checkpoints_.purge_origin_below(dead, dead_incarnation);
  for (const CheckpointRecord* rec : held_checkpoints_.records_for(dead)) {
    const std::string key = dead.to_string() + ":" +
                            std::to_string(rec->origin_incarnation) + ":" +
                            rec->instance.to_string();
    if (restored_.count(key) != 0) continue;  // duplicate death verdict
    // Deterministic coordination-free election: rec->holders is id-ordered,
    // so the first holder still believed alive is the unique winner -- every
    // holder computes the same answer from the same death verdict.
    NodeId winner{};
    for (NodeId h : rec->holders) {
      if (h == id_ || std::find(alive.begin(), alive.end(), h) != alive.end()) {
        winner = h;
        break;
      }
    }
    if (winner != id_) continue;
    restored_[key] = RestoredCopy{dead, rec->origin_incarnation,
                                  rec->instance.value, InstanceId{}};
    obs::ScopedSpan span(tracer_, "failover:" + rec->component);
    VersionConstraint exact;
    exact.op = VersionConstraint::Op::eq;
    exact.bound = rec->version;
    if (!repository_.has(rec->component, exact) && !rec->package.empty())
      (void)install(rec->package);
    Container::Snapshot snapshot;
    snapshot.component = rec->component;
    snapshot.version = rec->version;
    snapshot.state = rec->state;
    snapshot.connections = rec->connections;
    auto restored = container_.restore(snapshot);
    if (!restored) {
      span.fail();
      metrics_.counter("failover.restore_failures").inc();
      recovery_log_.push_back("restore-failed " + rec->component + " from " +
                              dead.to_string());
      continue;
    }
    restored_[key].local = *restored;
    instance_epochs_[*restored] = cohesion_.epoch();
    // Failover win: advertise the restored copy. The record carries the
    // post-verdict epoch, so it outranks anything the dead (or cut-off)
    // origin published -- and if every replica is on the wrong side of a
    // partition right now, the publish degrades to the local table and
    // anti-entropy delivers it after the heal.
    if (auto primary = primary_port(*restored); primary.ok())
      publish_service(rec->component, *primary);
    // Publish the restore as a failover claim: it gossips through the
    // anti-entropy tables, so after a heal the (possibly still alive)
    // origin learns a second primary exists and the loser yields.
    FailoverClaim claim;
    claim.origin = dead;
    claim.origin_inc = rec->origin_incarnation;
    claim.instance = rec->instance.value;
    claim.epoch = cohesion_.epoch();
    claim.host = id_;
    cohesion_.add_failover_claim(claim);
    metrics_.counter("failover.instances_restored").inc();
    recovery_log_.push_back("restore " + rec->component + " from " +
                            dead.to_string() + " seq=" +
                            std::to_string(rec->seq) + " ep=" +
                            std::to_string(claim.epoch));
    cohesion_.broadcast_update(network_.now());  // strong-mode hook
  }
}

std::uint64_t Node::instance_epoch(InstanceId id) const {
  auto it = instance_epochs_.find(id);
  return it == instance_epochs_.end() ? 1 : it->second;
}

void Node::retire_instance(InstanceId id, const std::string& why) {
  std::string service;
  orb::ObjectRef primary;
  if (auto d = container_.description_of(id); d.ok()) {
    service = (*d)->name;
    for (const auto& port : (*d)->ports_of(pkg::PortKind::provides)) {
      if (auto ref = container_.provided_port(id, port.name); ref.ok()) {
        if (primary.is_nil()) primary = *ref;
        orb_->retire_object(ref->key);
      }
    }
  }
  // Tombstone the binding under the *instance's* establishment epoch, not
  // the current (post-heal, merged-up) one: the tombstone then kills
  // exactly the binding generation it names, and can never outrank the
  // dual-primary winner's record, which rode a later epoch -- in either
  // arrival order, since every table keeps a pure max over newer_than()'s
  // total order (see ServiceDirectory::apply).
  const std::uint64_t establishment_epoch = instance_epoch(id);
  (void)container_.destroy(id);
  instance_epochs_.erase(id);
  if (!service.empty()) {
    dir::ServiceRecord rec;
    rec.service = service;
    rec.ref = primary;
    rec.host = id_;
    rec.incarnation = incarnation_;
    rec.epoch = establishment_epoch;
    rec.stamp = static_cast<std::uint64_t>(network_.now());
    rec.retired = true;
    publish_record(rec);
  }
  metrics_.counter("failover.dual_primary_resolved").inc();
  recovery_log_.push_back(why);
}

void Node::on_failover_claim(const FailoverClaim& claim) {
  // Only the named origin arbitrates its own live instance; claims about
  // an earlier incarnation are fenced (that life's instances are gone).
  if (claim.origin != id_ || claim.host == id_) return;
  if (claim.origin_inc != incarnation_) return;
  const InstanceId iid{claim.instance};
  const auto ids = container_.instance_ids();
  if (std::find(ids.begin(), ids.end(), iid) == ids.end()) return;
  // Deterministic total order on primaries: higher epoch wins (the restore
  // rode a quorum death verdict, which bumped it past anything the cut-off
  // side established), then lower host id. Equal-epoch claims cannot carry
  // a higher incarnation than ours here -- on_peer_dead fences those.
  const std::uint64_t local_epoch = instance_epoch(iid);
  const bool claim_wins = claim.epoch != local_epoch
                              ? claim.epoch > local_epoch
                              : claim.host.value < id_.value;
  if (!claim_wins) return;  // keep ours; the holder revokes on our revival
  obs::ScopedSpan span(tracer_, "dual_primary:yield:" + iid.to_string());
  retire_instance(iid, "dual-primary yield inst=" + iid.to_string() + " to=" +
                           claim.host.to_string() + " ep=" +
                           std::to_string(claim.epoch));
}

void Node::on_peer_revived(NodeId origin, std::uint64_t origin_inc) {
  // The origin was never dead (equal-incarnation revival): every restored
  // copy of its instances hosted here is half of a dual primary. Keep the
  // copy only while our claim is the dominant one for that instance -- the
  // origin then yields via on_failover_claim; otherwise the copy dies now.
  for (auto it = restored_.begin(); it != restored_.end();) {
    const RestoredCopy& copy = it->second;
    if (copy.origin != origin || copy.origin_inc != origin_inc ||
        copy.local.value == 0) {
      ++it;
      continue;
    }
    bool dominant = false;
    for (const FailoverClaim& c : cohesion_.failover_claims()) {
      if (c.origin == origin && c.instance == copy.instance) {
        dominant = c.host == id_;
        break;
      }
    }
    if (dominant) {
      ++it;
      continue;
    }
    obs::ScopedSpan span(tracer_,
                         "dual_primary:revoke:" + copy.local.to_string());
    retire_instance(copy.local,
                    "dual-primary revoke inst=" + copy.local.to_string() +
                        " origin=" + origin.to_string());
    it = restored_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// NodeService servant

void Node::make_node_servant() {
  auto servant = std::make_shared<orb::DynamicServant>("clc::NodeService");

  servant->on("accept_package", [this](orb::ServerRequest& req) -> Result<void> {
    auto r = install(req.arg(0).as<Bytes>());
    if (!r.ok() && r.error().code != Errc::already_exists) return r;
    return {};
  });

  servant->on("describe_component",
              [this](orb::ServerRequest& req) -> Result<void> {
    auto version = Version::parse(req.arg(1).as<std::string>());
    if (!version) return version.error();
    auto ic = repository_.find_exact(req.arg(0).as<std::string>(), *version);
    if (!ic) return ic.error();
    req.set_result(orb::Value((*ic)->description.to_xml()));
    return {};
  });

  servant->on("get_component_idl",
              [this](orb::ServerRequest& req) -> Result<void> {
    auto version = Version::parse(req.arg(1).as<std::string>());
    if (!version) return version.error();
    auto idl_text = repository_.idl_of(req.arg(0).as<std::string>(), *version);
    if (!idl_text) return idl_text.error();
    req.set_result(orb::Value(std::move(*idl_text)));
    return {};
  });

  servant->on("fetch_package", [this](orb::ServerRequest& req) -> Result<void> {
    auto version = Version::parse(req.arg(1).as<std::string>());
    if (!version) return version.error();
    NodeProfile target;
    target.arch = req.arg(2).as<std::string>();
    target.os = req.arg(3).as<std::string>();
    target.orb = req.arg(4).as<std::string>();
    target.device = req.arg(5).as<std::string>() == "pda"
                        ? DeviceClass::pda
                        : DeviceClass::workstation;
    auto raw = repository_.export_package(req.arg(0).as<std::string>(),
                                          *version, target);
    if (!raw) return raw.error();
    req.set_result(orb::Value(std::move(*raw)));
    return {};
  });

  servant->on("acquire_instance",
              [this](orb::ServerRequest& req) -> Result<void> {
    auto constraint = VersionConstraint::parse(req.arg(1).as<std::string>());
    if (!constraint) return constraint.error();
    auto bound = acquire_local(req.arg(0).as<std::string>(), *constraint);
    if (!bound) return bound.error();
    req.set_result(orb::Value(bound->instance_token));
    req.args()[2] = orb::Value(bound->primary);
    return {};
  });

  servant->on("connect_instance",
              [this](orb::ServerRequest& req) -> Result<void> {
    const InstanceId id{
        static_cast<std::uint64_t>(std::stoull(req.arg(0).as<std::string>()))};
    return container_.connect(id, req.arg(1).as<std::string>(),
                              req.arg(2).as<orb::ObjectRef>());
  });

  servant->on("instance_port", [this](orb::ServerRequest& req) -> Result<void> {
    const InstanceId id{
        static_cast<std::uint64_t>(std::stoull(req.arg(0).as<std::string>()))};
    auto ref = container_.provided_port(id, req.arg(1).as<std::string>());
    if (!ref) return ref.error();
    req.set_result(orb::Value(*ref));
    return {};
  });

  servant->on("receive_instance",
              [this](orb::ServerRequest& req) -> Result<void> {
    auto version = Version::parse(req.arg(1).as<std::string>());
    if (!version) return version.error();
    Container::Snapshot snapshot;
    snapshot.component = req.arg(0).as<std::string>();
    snapshot.version = *version;
    snapshot.state = req.arg(2).as<Bytes>();
    auto id = container_.restore(snapshot);
    if (!id) return id.error();
    instance_epochs_[*id] = cohesion_.epoch();
    auto primary = primary_port(*id);
    if (!primary) return primary.error();
    // Migration landed here: the directory's later-stamp record supersedes
    // the source's and subscribed sessions rebind on the `moved` push.
    publish_service(snapshot.component, *primary);
    req.set_result(orb::Value(id->to_string()));
    req.args()[3] = orb::Value(*primary);
    return {};
  });

  servant->on("subscribe_events",
              [this](orb::ServerRequest& req) -> Result<void> {
    return events_.subscribe_remote(req.arg(0).as<std::string>(),
                                    req.arg(1).as<orb::ObjectRef>());
  });

  servant->on("process_chunk", [this](orb::ServerRequest& req) -> Result<void> {
    const std::string component = req.arg(0).as<std::string>();
    auto constraint = VersionConstraint::parse(req.arg(1).as<std::string>());
    if (!constraint) return constraint.error();
    InstanceId id;
    if (auto existing = container_.find_active(component, *constraint);
        existing.ok()) {
      id = *existing;
    } else {
      // Volunteer nodes fetch the aggregatable component on first use
      // (the network acts as the repository, §2.4.3).
      auto bound = resolve(component, *constraint, Binding::fetch_local);
      if (!bound) return bound.error();
      id = InstanceId{
          static_cast<std::uint64_t>(std::stoull(bound->instance_token))};
    }
    auto impl = container_.implementation(id);
    if (!impl) return impl.error();
    auto result = (*impl)->process_chunk(req.arg(2).as<Bytes>());
    if (!result) return result.error();
    req.set_result(orb::Value(std::move(*result)));
    return {};
  });

  servant->on("store_checkpoint",
              [this](orb::ServerRequest& req) -> Result<void> {
    auto rec = CheckpointRecord::decode(req.arg(0).as<Bytes>());
    if (!rec) return rec.error();
    if (held_checkpoints_.store(std::move(*rec))) {
      metrics_.counter("failover.checkpoints_stored").inc();
    } else {
      metrics_.counter("failover.checkpoints_fenced").inc();
    }
    return {};
  });

  servant->on("deliver", [this](orb::ServerRequest& req) -> Result<void> {
    auto m = ProtoMessage::decode(req.arg(0).as<Bytes>());
    if (!m.ok()) return {};
    if (zone_router_ && ZoneRouter::handles(*m))
      zone_router_->on_message(*m, network_.now());
    else
      cohesion_.on_message(*m, network_.now());
    return {};
  });

  node_service_ = orb_->activate_with_key(servant, node_service_key(id_));
}

}  // namespace clc::core
