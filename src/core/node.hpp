// The Node service: the logical internal node structure of Fig. 1.
//
// Each participating host runs one Node, which owns:
//   - an Orb (object adapter + dynamic invocation) and its endpoint,
//   - the Component Repository (installed packages) and its external view,
//     the Component Registry,
//   - the Resource Manager (static profile + dynamic load + QoS admission),
//   - the Component Acceptor (accept packages at run time),
//   - a Container for its instances,
//   - the Network Cohesion endpoint (CohesionNode), whose messages travel
//     as oneway ORB invocations between Node services,
//   - an event channel hub.
//
// Node::resolve implements the §2.4.3 flow end to end: local repository →
// distributed query → rank candidates → decide "fetch the component and run
// it locally" vs "use it remotely" → bind.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/cohesion.hpp"
#include "core/container.hpp"
#include "core/failover.hpp"
#include "dir/directory.hpp"
#include "fault/faulty_transport.hpp"
#include "fault/plan.hpp"
#include "core/events.hpp"
#include "core/registry.hpp"
#include "core/zone.hpp"
#include "core/repository.hpp"
#include "core/resource.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "orb/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace clc::session {
class Session;
}  // namespace clc::session

namespace clc::core {

class LocalNetwork;

/// How resolve() binds a dependency.
enum class Binding {
  auto_decide,  // fetch locally when the component is bandwidth-sensitive
                // and mobile; use remotely otherwise
  remote,       // always bind to a remote instance
  fetch_local,  // always fetch, install and instantiate locally
};

/// A resolved component dependency.
struct BoundComponent {
  orb::ObjectRef primary;     // the component's primary provided port
  NodeId host;                // where the instance runs
  std::string instance_token; // instance id on the hosting node
  bool fetched = false;       // true if the package moved to this node
};

class Node {
 public:
  Node(NodeId id, NodeProfile profile, LocalNetwork& network,
       CohesionConfig cohesion_config = {},
       FailoverConfig failover_config = {});
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ------------------------------------------------------------ identity
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return orb_->endpoint();
  }
  [[nodiscard]] orb::Orb& orb() noexcept { return *orb_; }
  [[nodiscard]] ComponentRepository& repository() noexcept {
    return repository_;
  }
  [[nodiscard]] ComponentRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] ResourceManager& resources() noexcept { return resources_; }
  [[nodiscard]] Container& container() noexcept { return container_; }
  [[nodiscard]] EventChannelHub& events() noexcept { return events_; }
  [[nodiscard]] CohesionNode& cohesion() noexcept { return cohesion_; }
  /// Zone routing layer; present only in zoned deployments (nonzero
  /// CohesionConfig.zone), null otherwise.
  [[nodiscard]] ZoneRouter* zone_router() noexcept { return zone_router_.get(); }
  /// The node's unified metrics registry ("orb.*", "cohesion.*", ...).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  /// Per-node admission controller gating every dispatched request
  /// (disabled by default; overload tiers enable and configure it).
  [[nodiscard]] AdmissionController& admission() noexcept {
    return admission_;
  }

  // ------------------------------------------------------------ lifecycle
  /// Found a new logical network (first node).
  void start_network(TimePoint now);
  /// Join via any existing node.
  void join(NodeId bootstrap, TimePoint now);
  /// Drive protocol timers; LocalNetwork::advance calls this.
  void tick(TimePoint now);

  // ------------------------------------------------------ crash fault model
  /// This node's incarnation: 1 at first boot, +1 per restart. Carried in
  /// cohesion messages, registry digests and minted object references.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Checkpoints this node holds on behalf of peers.
  [[nodiscard]] const CheckpointStore& held_checkpoints() const noexcept {
    return held_checkpoints_;
  }
  /// Deterministic, append-only record of this node's recovery actions
  /// (checkpoints shipped, instances restored, restarts); chaos tests
  /// compare it across same-seed runs.
  [[nodiscard]] const std::vector<std::string>& recovery_log() const noexcept {
    return recovery_log_;
  }
  [[nodiscard]] const FailoverConfig& failover_config() const noexcept {
    return failover_;
  }
  /// Force an immediate checkpoint round (tests/benches).
  void checkpoint_now() { run_checkpoints(); }

  // ------------------------------------------------------------- directory
  /// This node's directory replica table (every node keeps one; the R
  /// lowest-id live nodes are the well-known lookup points).
  [[nodiscard]] dir::ServiceDirectory& directory() noexcept {
    return directory_;
  }
  /// Reference to a peer's Directory servant (well-known key, like the
  /// NodeService); sessions use these as their replica set.
  Result<orb::ObjectRef> directory_ref(NodeId replica) const;
  /// The R lowest-id live nodes (including this one), same election as
  /// checkpoint holders -- every node derives the same set.
  [[nodiscard]] std::vector<NodeId> directory_replicas() const;
  /// Publish `service -> ref` (hosted here, current incarnation + epoch)
  /// to the local table and every directory replica. Lifecycle transitions
  /// (install, migrate, failover win, retirement) call this themselves.
  void publish_service(const std::string& service, const orb::ObjectRef& ref);
  /// Force an immediate anti-entropy exchange with one replica
  /// (tests/benches; tick() drives this on the anti-entropy cadence).
  void gossip_directory_now() { gossip_directory(); }

  /// Attach a client session: Node::resolve short-circuits through its
  /// notification-maintained cache before falling back to a distributed
  /// query (`node.query_cache_hits`). The session must outlive the
  /// attachment; pass nullptr to detach.
  void attach_session(session::Session* session) noexcept {
    session_ = session;
  }

  // ------------------------------------------------------------ acceptor
  /// Component Acceptor: install a package at run time (requirement 5).
  Result<void> install(const Bytes& package_bytes);

  // ------------------------------------------------------------ resolution
  /// Resolve a component network-wide and bind to an instance of it.
  Result<BoundComponent> resolve(const std::string& component,
                                 const VersionConstraint& constraint,
                                 Binding binding = Binding::auto_decide);

  /// Raw distributed query (no binding); synchronous over the network.
  Result<std::vector<QueryHit>> query_network(const ComponentQuery& q);

  /// Same, with the degraded-coverage marker: during a partition the
  /// reachable side answers with partial hits tagged `degraded` instead of
  /// erroring (minority-side availability, DESIGN.md §13).
  Result<QueryResult> query_network_detailed(const ComponentQuery& q);

  /// Fetch a package from a peer's repository into ours.
  Result<void> fetch_component(NodeId from, const std::string& component,
                               const Version& version);

  // ------------------------------------------------------------ instances
  /// Get-or-create a local instance and return its primary port.
  Result<BoundComponent> acquire_local(const std::string& component,
                                       const VersionConstraint& constraint);

  /// Move a running instance to another node: capture state, ship the
  /// package if needed, restore remotely, destroy locally. Returns the new
  /// binding on the target node.
  Result<BoundComponent> migrate_instance(InstanceId id, NodeId target);

  /// Replicate a running instance onto another node (§2.1.1 replication):
  /// same mechanics as migration but the original keeps running. Only
  /// components declared `replicable` may be replicated; stateful replicas
  /// start from a snapshot of the original's state.
  Result<BoundComponent> replicate_instance(InstanceId id, NodeId target);

  /// Connect a used port of a bound instance (local or remote) to a target
  /// object -- the assembly-wiring primitive Application::deploy uses.
  Result<void> connect_remote(const BoundComponent& from,
                              const std::string& port,
                              const orb::ObjectRef& target);

  /// A named provided port of a bound instance (local or remote).
  Result<orb::ObjectRef> instance_port(const BoundComponent& of,
                                       const std::string& port);

  /// Subscribe a consumer to an event type on a remote node's hub.
  Result<void> subscribe_on(NodeId peer, const std::string& event_type,
                            const orb::ObjectRef& consumer);

  /// Ask a peer to run one aggregation chunk of a component (grid mode).
  Result<Bytes> process_chunk_on(NodeId peer, const std::string& component,
                                 const VersionConstraint& constraint,
                                 BytesView chunk);

 private:
  friend class LocalNetwork;

  /// Crash: snapshot the "disk" (installed packages), then lose every bit
  /// of RAM state -- instances, registry records, held checkpoints,
  /// membership. LocalNetwork::crash calls this before detaching the
  /// endpoint.
  void crash_local();
  /// Restart after a crash: bump the incarnation, register a *fresh*
  /// endpoint (stale refs now fail retryably), re-install packages from
  /// the disk image and re-join through `bootstrap`.
  void restart_local(NodeId bootstrap, TimePoint now);

  /// Checkpoint every checkpointable instance to the R lowest-id peers.
  void run_checkpoints();
  /// Cohesion-confirmed death of `dead`: restore the checkpoints we hold
  /// for it if we win the deterministic holder election.
  void on_peer_dead(NodeId dead, std::uint64_t dead_incarnation,
                    const std::vector<NodeId>& alive);
  /// A gossiped failover claim names one of this node's own live instances:
  /// a holder restored it behind a partition. Resolve the dual primary
  /// deterministically on (epoch, incarnation, host id); the loser here is
  /// this node's original, which is destroyed and its ports retired.
  void on_failover_claim(const FailoverClaim& claim);
  /// A tombstoned peer turned out alive at the *same* incarnation (false
  /// death verdict): any restored copy of its instances hosted here whose
  /// claim lost the comparison dies now; a winning claim keeps the copy and
  /// the origin yields via on_failover_claim instead.
  void on_peer_revived(NodeId origin, std::uint64_t origin_inc);
  /// Destroy a local instance and retire its provided-port object keys, so
  /// references to the losing primary fail with retryable Errc::unreachable
  /// and clients re-resolve to the surviving one.
  void retire_instance(InstanceId id, const std::string& why);
  /// Epoch under which the instance's authority was established (creation
  /// or restore time); deliberately never advanced afterwards, so post-heal
  /// claim comparisons are immune to checkpoint-timing races.
  [[nodiscard]] std::uint64_t instance_epoch(InstanceId id) const;

  void install_node_idl();
  void make_node_servant();
  /// Register the directory IDL + servant and hook change notification
  /// delivery to oneway `notify` sends.
  void install_directory();
  /// Apply a record locally, then push it to every live replica.
  void publish_record(const dir::ServiceRecord& record);
  /// One anti-entropy round: trade whole tables with one replica
  /// (round-robin over the replica set, skipping self).
  void gossip_directory();
  Result<BoundComponent> resolve_impl(const std::string& component,
                                      const VersionConstraint& constraint,
                                      Binding binding);
  Result<QueryResult> query_network_impl(const ComponentQuery& q);
  Result<BoundComponent> migrate_instance_impl(InstanceId id, NodeId target);
  Result<orb::ObjectRef> node_service_ref(NodeId peer) const;
  /// The primary provided port of an instance (first provides-port in the
  /// description, by convention the component's main facet).
  Result<orb::ObjectRef> primary_port(InstanceId id) const;
  Result<std::string> remote_idl(NodeId peer, const std::string& component,
                                 const Version& version);

  NodeId id_;
  LocalNetwork& network_;
  obs::MetricsRegistry metrics_;  // before orb_/cohesion_: they cache into it
  obs::Tracer tracer_;
  // Before orb_: the orb's admission gate adapter points at it, and the orb
  // (destroyed first) must not outlive the controller.
  AdmissionController admission_;
  std::shared_ptr<idl::InterfaceRepository> types_;
  std::unique_ptr<orb::Orb> orb_;
  ResourceManager resources_;
  ComponentRepository repository_;
  ComponentRegistry registry_;
  EventChannelHub events_;
  Container container_;
  CohesionNode cohesion_;
  std::unique_ptr<ZoneRouter> zone_router_;  // zoned deployments only
  orb::ObjectRef node_service_;

  // Crash fault tolerance state.
  FailoverConfig failover_;
  std::uint64_t incarnation_ = 1;
  TimePoint last_checkpoint_ = 0;
  std::map<InstanceId, std::uint64_t> checkpoint_seq_;
  /// (holder, component@version) pairs whose package bytes already went out
  /// -- later checkpoints to that holder ship state only.
  std::set<std::pair<std::uint64_t, std::string>> package_shipped_;
  CheckpointStore held_checkpoints_;
  /// A peer instance restored here after a death verdict; kept so a healed
  /// partition can revoke the copy if its claim loses the dual-primary
  /// comparison. `local.value == 0` marks a failed restore (still recorded,
  /// so a re-broadcast verdict can't retry into a duplicate).
  struct RestoredCopy {
    NodeId origin;
    std::uint64_t origin_inc = 1;
    std::uint64_t instance = 0;  // InstanceId.value on the origin
    InstanceId local;            // the copy running on this node
  };
  /// Keyed "origin:incarnation:instance" (the death-verdict dedupe key).
  std::map<std::string, RestoredCopy> restored_;
  /// See instance_epoch(); absent entries read as epoch 1.
  std::map<InstanceId, std::uint64_t> instance_epochs_;
  std::vector<std::string> recovery_log_;
  std::vector<Bytes> disk_image_;  // packages, snapshotted at crash time
  Rng retry_rng_;                  // backoff jitter for distributed queries

  // Replicated service directory state.
  dir::ServiceDirectory directory_;
  session::Session* session_ = nullptr;   // attached client session, if any
  TimePoint last_dir_gossip_ = 0;
  std::size_t dir_gossip_rotor_ = 0;      // round-robin over the replicas
};

/// The in-process world: a set of Nodes over one loopback transport, a
/// shared manual clock, and the NodeId -> endpoint directory (the naming-
/// service analogue; see DESIGN.md). Drives ticks deterministically.
class LocalNetwork {
 public:
  explicit LocalNetwork(CohesionConfig cohesion_defaults = {},
                        FailoverConfig failover_defaults = {});

  /// Create a node; the first created node founds the logical network and
  /// later ones join through it automatically (pass `auto_join = false` to
  /// manage joining manually).
  Node& add_node(NodeProfile profile = {}, bool auto_join = true);
  /// Same, with a per-node cohesion config override (multi-zone tests:
  /// nodes of different zones run separate trees, so no auto-join).
  Node& add_node(NodeProfile profile, CohesionConfig cohesion_config,
                 bool auto_join = false);

  /// Advance the shared clock, ticking every node each `step`.
  void advance(Duration duration, Duration step = milliseconds(500));

  /// Let protocol state converge: advance by several heartbeats.
  void settle();

  [[nodiscard]] TimePoint now() const { return clock_.now(); }
  [[nodiscard]] ManualClock& clock() noexcept { return clock_; }
  [[nodiscard]] orb::LoopbackNetwork& transport() noexcept {
    return *transport_;
  }
  [[nodiscard]] std::shared_ptr<orb::LoopbackNetwork> transport_ptr() {
    return transport_;
  }
  /// The fault-injection decorator every node's client traffic crosses.
  /// Disarmed (pure pass-through) unless a chaos test arms a plan.
  [[nodiscard]] fault::FaultyTransport& faults() noexcept { return *faulty_; }
  [[nodiscard]] std::shared_ptr<fault::FaultyTransport> faulty_transport_ptr() {
    return faulty_;
  }
  /// Shared span sink: every node's tracer records here, so cross-node
  /// traces stitch into one causal tree.
  [[nodiscard]] const std::shared_ptr<obs::TraceCollector>& trace_collector()
      const noexcept {
    return collector_;
  }

  [[nodiscard]] Result<std::string> endpoint_of(NodeId id) const;
  [[nodiscard]] Node* node(NodeId id) const;
  [[nodiscard]] std::vector<Node*> nodes() const;

  /// Simulate a host crash: the node loses all RAM state (instances,
  /// registry, held checkpoints, membership), keeps its "disk" (installed
  /// packages), its endpoint detaches and it stops ticking.
  void crash(NodeId id);

  /// Restart a crashed node: it comes back under a higher incarnation with
  /// a fresh endpoint, re-installs its packages from the disk image and
  /// re-joins through the lowest-id live node. No-op unless crashed.
  void restart(NodeId id);

  [[nodiscard]] bool is_crashed(NodeId id) const {
    return crashed_.count(id) != 0;
  }

  // ------------------------------------------------------------- partitions
  /// Cut one direction of one link: frames from -> to fail retryably
  /// (Errc::unreachable) at the sender; the reverse direction still works,
  /// which is what makes asymmetric partitions expressible.
  void cut_link(NodeId from, NodeId to) { cut_links_.insert({from, to}); }
  void restore_link(NodeId from, NodeId to) { cut_links_.erase({from, to}); }
  /// Cut every link between the two sides, both directions (symmetric split).
  void partition(const std::vector<NodeId>& side_a,
                 const std::vector<NodeId>& side_b);
  /// Restore every cut link (scheduled future events still fire).
  void heal_partition() { cut_links_.clear(); }
  [[nodiscard]] bool link_blocked(NodeId from, NodeId to) const {
    return cut_links_.count({from, to}) != 0;
  }
  /// Is the directed path from `from` to the node owning `endpoint` cut?
  /// Unknown endpoints are never blocked (they fail in the transport).
  [[nodiscard]] bool link_blocked_to(NodeId from,
                                     const std::string& endpoint) const;
  /// Arm a seeded PartitionSchedule: its cuts and heals fire at their
  /// virtual times as advance() crosses them, so a chaos run replays
  /// identically from the seed alone.
  void set_partition_schedule(const fault::PartitionSchedule& schedule);

  [[nodiscard]] const CohesionConfig& cohesion_defaults() const {
    return cohesion_defaults_;
  }
  [[nodiscard]] const FailoverConfig& failover_defaults() const {
    return failover_defaults_;
  }

 private:
  friend class Node;
  void register_node(Node& node, const std::string& endpoint);
  /// Apply every scheduled cut/restore whose virtual time has arrived.
  void apply_due_partition_actions();

  ManualClock clock_;
  std::shared_ptr<orb::LoopbackNetwork> transport_;
  std::shared_ptr<fault::FaultyTransport> faulty_;
  std::shared_ptr<obs::TraceCollector> collector_;
  CohesionConfig cohesion_defaults_;
  FailoverConfig failover_defaults_;
  std::vector<std::unique_ptr<Node>> owned_;
  std::map<NodeId, std::pair<std::string, Node*>> directory_;
  std::set<NodeId> crashed_;
  std::set<fault::LinkCut> cut_links_;          // directed cuts in force
  std::map<std::string, NodeId> endpoint_owner_;  // reverse directory
  /// Scheduled (time, cut?, link) actions, drained by advance(). true
  /// installs the cut, false removes it.
  std::multimap<TimePoint, std::pair<bool, fault::LinkCut>> partition_actions_;
  std::uint64_t next_id_ = 1;
};

}  // namespace clc::core
