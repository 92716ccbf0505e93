// Multi-level MRM hierarchy: zone routing above the per-zone cohesion tree.
//
// A mega-cluster is divided into *zones*. Each zone runs the full Network
// Cohesion protocol (cohesion.hpp) among its own members only -- its MRM
// tree, quorum death verdicts and replica promotion are all scoped to the
// zone. The ZoneRouter is the level above: zone roots gossip `z_hello`
// beacons to each other, forming a roots-of-roots layer in which
//
//  * each zone is identified by (zone id, zone epoch, current root). The
//    zone epoch *is* the zone root's cohesion partition epoch, so the PR 5
//    fencing story layers: a replica promotion inside a zone bumps the
//    epoch, and the promoted root's hellos displace the old root from every
//    peer's zone table. Hellos from a deposed root (lower epoch, or equal
//    epoch + higher id) are dropped (zone.stale_zone_fenced).
//
//  * the *super root* (root of roots) is the lowest-id non-suspect zone's
//    root. It owns nothing durable -- it is only the rendezvous for
//    non-shardable (glob) queries, so its failover is just "the next zone
//    id takes over", with no state to rebuild.
//
//  * the Distributed Registry is sharded across zones by consistent
//    hashing (shard.hpp): every zone root periodically publishes its
//    zone's aggregate "name@version" labels to the owner zone of each
//    name (`z_publish`), and an exact-name resolve routes member -> own
//    zone root -> (locality fast path: answered on the spot when the name
//    lives in this zone) -> one ring hop to the owner root (`z_fwd`) ->
//    reply. No single root ever holds the full directory, and a resolve
//    costs O(1) messages regardless of cluster size.
//
// Like CohesionNode, the router is a pure message-driven state machine
// (injected Sender, time through on_tick), so it runs unchanged under the
// discrete-event simulator and the threaded Node runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cohesion.hpp"
#include "core/proto.hpp"
#include "core/shard.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/version.hpp"

namespace clc::core {

struct ZoneConfig {
  std::uint32_t zone = 0;           // this node's zone id (0 = unzoned)
  Duration hello_interval = seconds(2);
  Duration publish_interval = seconds(4);
  int suspect_after = 3;            // missed hellos until a zone is suspect
  Duration resolve_timeout = seconds(2);
  int ring_vnodes = 128;
  std::uint32_t max_results = 8;
  /// Shard entries not refreshed by a publish within this window expire
  /// (their zone stopped publishing: dead or partitioned away).
  Duration entry_ttl = seconds(12);
};

/// One match from the sharded registry: which zone (and its root, the
/// contact point for that zone) advertises `name` at `version`.
struct ZoneHit {
  std::string name;
  Version version;
  std::uint32_t zone = 0;
  NodeId root;

  bool operator==(const ZoneHit&) const = default;
};

/// `degraded` = some zone was suspect while answering: coverage is partial
/// (mirrors cohesion's QueryResult marker one level up).
struct ZoneResolveResult {
  std::vector<ZoneHit> hits;
  bool degraded = false;
};

class ZoneRouter {
 public:
  using Sender = CohesionNode::Sender;
  using ResolveCallback = std::function<void(ZoneResolveResult)>;

  /// The router wraps an existing CohesionNode (whose config().zone must
  /// match cfg.zone) and installs itself as its role hook.
  ZoneRouter(NodeId id, ZoneConfig cfg, CohesionNode& cohesion, Sender send,
             obs::MetricsRegistry* metrics = nullptr);

  /// Static cluster config (felis-style): the founding member of every
  /// zone, so any node -- in particular a freshly promoted replacement
  /// root -- can reach the other zones without discovery.
  void set_zone_bootstraps(std::vector<std::pair<std::uint32_t, NodeId>> b);
  /// Seed the zone table from the bootstraps and start duty cycles.
  void attach(TimePoint now);

  /// True for frames the router owns ("z_*" kinds).
  [[nodiscard]] static bool handles(const ProtoMessage& m) {
    return m.kind.size() > 2 && m.kind[0] == 'z' && m.kind[1] == '_';
  }
  void on_message(const ProtoMessage& m, TimePoint now);
  /// Drive timers; call at least every hello_interval/2.
  void on_tick(TimePoint now);

  /// Resolve `pattern` through the sharded registry. Exact names route
  /// member -> zone root -> owner; glob patterns escalate to the super
  /// root which fans out to every zone root. The callback fires exactly
  /// once (empty + degraded on timeout).
  void resolve(const std::string& pattern, TimePoint now, ResolveCallback cb);

  // ------------------------------------------------------------ introspection
  [[nodiscard]] std::uint32_t zone() const noexcept { return cfg_.zone; }
  [[nodiscard]] bool is_zone_root() const noexcept { return cohesion_.is_root(); }
  /// The zone epoch this zone currently announces.
  [[nodiscard]] std::uint64_t zone_epoch() const noexcept {
    return cohesion_.epoch();
  }
  /// (zone, root) of the current super root (roots-of-roots rendezvous).
  [[nodiscard]] std::pair<std::uint32_t, NodeId> super_root(TimePoint now) const;
  [[nodiscard]] bool is_super_root(TimePoint now) const {
    return super_root(now).second == id_;
  }
  /// Which zone owns `name` on the current ring (0 = empty ring).
  [[nodiscard]] std::uint32_t owner_zone(const std::string& name,
                                         TimePoint now) const;

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }

  // Wire codecs for the zone-layer blobs (public so the golden wire tests
  // can pin their byte layout; the encodings are frozen interop surface).
  static Bytes encode_labels(const std::set<std::string>& labels);
  static std::vector<std::string> decode_labels(BytesView data);
  static Bytes encode_zone_hits(const std::vector<ZoneHit>& hits);
  static std::vector<ZoneHit> decode_zone_hits(BytesView data);

 private:
  struct PeerState {
    NodeId root;
    std::uint64_t epoch = 1;
    TimePoint last_heard = 0;
    bool heard = false;  // bootstrap-only entries get a grace period
  };
  struct ShardEntry {
    std::uint32_t zone = 0;
    NodeId root;
    Version version;
    std::uint64_t epoch = 1;
    TimePoint stamp = 0;
  };
  struct Pending {  // origin side of a resolve
    ResolveCallback cb;
    TimePoint deadline = 0;
  };
  struct Relay {  // root / super-root side
    NodeId reply_to;           // member (or self) awaiting the answer
    std::uint64_t reply_qid = 0;
    TimePoint deadline = 0;
    std::vector<ZoneHit> hits;
    int awaiting = 0;
    bool degraded = false;
  };

  [[nodiscard]] ProtoMessage make(const std::string& kind) const;
  void send(NodeId to, const ProtoMessage& m) const;
  [[nodiscard]] bool zone_suspect(const PeerState& p, TimePoint now) const;
  /// Best-known root of `z` (own zone: cohesion's view; else zone table,
  /// falling back to the static bootstrap).
  [[nodiscard]] NodeId root_of(std::uint32_t z) const;
  /// Non-suspect zones (own zone always included), the ring's holder set.
  [[nodiscard]] std::set<std::uint32_t> alive_zones(TimePoint now) const;
  void rebuild_ring(TimePoint now) const;
  /// Update the zone table from an inbound root announcement (hello or
  /// publish). Returns false when the sender is a fenced stale root.
  bool note_zone_root(std::uint32_t z, NodeId root, std::uint64_t epoch,
                      TimePoint now);
  void send_hellos(TimePoint now);
  void send_publishes(TimePoint now);
  /// Entry point shared by resolve()-at-root and inbound z_resolve.
  void root_resolve(std::uint64_t reply_qid, NodeId reply_to,
                    const std::string& pattern, TimePoint now);
  /// Local-zone matches for `pattern` out of cohesion's aggregate names.
  [[nodiscard]] std::vector<ZoneHit> local_hits(
      const std::string& pattern) const;
  [[nodiscard]] std::vector<ZoneHit> store_hits(const std::string& name) const;
  void finish_relay(std::uint64_t qid, TimePoint now);
  void complete_pending(std::uint64_t qid, ZoneResolveResult r);
  void deliver_hits(NodeId to, std::uint64_t qid,
                    const std::vector<ZoneHit>& hits, bool degraded,
                    TimePoint now);

  NodeId id_;
  ZoneConfig cfg_;
  CohesionNode& cohesion_;
  Sender send_;

  std::vector<std::pair<std::uint32_t, NodeId>> bootstraps_;
  std::map<std::uint32_t, PeerState> zones_;  // other zones only
  std::map<std::string, std::vector<ShardEntry>> store_;
  mutable ShardMap ring_;
  mutable std::set<std::uint32_t> ring_zones_;  // holder set ring_ reflects

  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, Relay> relays_;
  std::uint64_t next_qid_ = 1;

  TimePoint last_hello_ = 0;
  TimePoint last_publish_ = 0;
  bool announce_pending_ = false;  // role gained: hello+publish on next tick
  bool attached_ = false;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* hellos_sent_;
  obs::Counter* publishes_sent_;
  obs::Counter* resolves_;
  obs::Counter* local_fast_path_;
  obs::Counter* ring_hops_;
  obs::Counter* glob_fanouts_;
  obs::Counter* stale_zone_fenced_;
  obs::Counter* forwards_;
};

}  // namespace clc::core
