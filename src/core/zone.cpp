#include "core/zone.hpp"

#include <algorithm>
#include <tuple>

#include "util/strings.hpp"

namespace clc::core {

ZoneRouter::ZoneRouter(NodeId id, ZoneConfig cfg, CohesionNode& cohesion,
                       Sender send, obs::MetricsRegistry* metrics)
    : id_(id),
      cfg_(cfg),
      cohesion_(cohesion),
      send_(std::move(send)),
      ring_(cfg.ring_vnodes),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      hellos_sent_(&metrics_->counter("zone.hellos_sent")),
      publishes_sent_(&metrics_->counter("zone.publishes_sent")),
      resolves_(&metrics_->counter("zone.resolves")),
      local_fast_path_(&metrics_->counter("zone.local_fast_path")),
      ring_hops_(&metrics_->counter("zone.ring_hops")),
      glob_fanouts_(&metrics_->counter("zone.glob_fanouts")),
      stale_zone_fenced_(&metrics_->counter("zone.stale_zone_fenced")),
      forwards_(&metrics_->counter("zone.forwards")) {
  // Gaining the root role makes this node the zone's face to the other
  // zones: announce (hello + publish) on the next tick. Losing it orphans
  // the shard store -- the replacement root repopulates its own from the
  // next publish round, and peers' z_fwd traffic follows the new root via
  // the hello fencing, so keeping stale entries here only risks serving
  // them to a misrouted query.
  cohesion_.set_role_hook([this](bool is_root) {
    if (is_root) {
      announce_pending_ = true;
    } else {
      store_.clear();
    }
  });
}

void ZoneRouter::set_zone_bootstraps(
    std::vector<std::pair<std::uint32_t, NodeId>> b) {
  bootstraps_ = std::move(b);
}

void ZoneRouter::attach(TimePoint now) {
  attached_ = true;
  last_hello_ = now;
  last_publish_ = now;
  for (const auto& [z, n] : bootstraps_) {
    if (z == cfg_.zone || z == 0) continue;
    auto [it, inserted] = zones_.emplace(z, PeerState{});
    if (inserted) {
      it->second.root = n;
      it->second.last_heard = now;  // grace until the first real hello
    }
  }
  if (cohesion_.is_root()) announce_pending_ = true;
}

ProtoMessage ZoneRouter::make(const std::string& kind) const {
  ProtoMessage m;
  m.kind = kind;
  m.sender = id_;
  return m;
}

void ZoneRouter::send(NodeId to, const ProtoMessage& m) const {
  if (to == id_ || !to.valid()) return;
  send_(to, m);
}

bool ZoneRouter::zone_suspect(const PeerState& p, TimePoint now) const {
  return now - p.last_heard > cfg_.suspect_after * cfg_.hello_interval;
}

NodeId ZoneRouter::root_of(std::uint32_t z) const {
  if (z == cfg_.zone)
    return cohesion_.is_root() ? id_ : cohesion_.current_root();
  if (auto it = zones_.find(z); it != zones_.end() && it->second.root.valid())
    return it->second.root;
  for (const auto& [bz, n] : bootstraps_)
    if (bz == z) return n;
  return NodeId{};
}

std::set<std::uint32_t> ZoneRouter::alive_zones(TimePoint now) const {
  std::set<std::uint32_t> out{cfg_.zone};
  for (const auto& [z, p] : zones_)
    if (!zone_suspect(p, now)) out.insert(z);
  return out;
}

void ZoneRouter::rebuild_ring(TimePoint now) const {
  const std::set<std::uint32_t> az = alive_zones(now);
  if (az == ring_zones_) return;
  ring_ = ShardMap(cfg_.ring_vnodes);
  for (std::uint32_t z : az) ring_.add_holder(z);
  ring_zones_ = az;
}

std::uint32_t ZoneRouter::owner_zone(const std::string& name,
                                     TimePoint now) const {
  rebuild_ring(now);
  return ring_.owner_of(name);
}

std::pair<std::uint32_t, NodeId> ZoneRouter::super_root(TimePoint now) const {
  const auto az = alive_zones(now);
  const std::uint32_t z = *az.begin();  // lowest alive zone id
  return {z, root_of(z)};
}

bool ZoneRouter::note_zone_root(std::uint32_t z, NodeId root,
                                std::uint64_t epoch, TimePoint now) {
  if (z == 0 || z == cfg_.zone) return false;
  auto [it, inserted] = zones_.emplace(z, PeerState{});
  PeerState& p = it->second;
  if (inserted || !p.heard) {
    p.root = root;
    p.epoch = epoch;
    p.last_heard = now;
    p.heard = true;
    return true;
  }
  if (root == p.root) {
    if (epoch > p.epoch) p.epoch = epoch;
    p.last_heard = now;
    return true;
  }
  // A different node claims the zone's root role: the zone epoch decides,
  // exactly like the in-zone split-brain tie-break (higher epoch wins,
  // lower id breaks ties). A deposed root's announcements die here.
  const bool wins = epoch != p.epoch ? epoch > p.epoch : root.value < p.root.value;
  if (!wins) {
    stale_zone_fenced_->inc();
    return false;
  }
  p.root = root;
  p.epoch = epoch;
  p.last_heard = now;
  return true;
}

// ---------------------------------------------------------------------------
// Duty cycles (zone roots only)

void ZoneRouter::send_hellos(TimePoint now) {
  (void)now;
  ProtoMessage m = make("z_hello");
  m.set_int("zn", static_cast<std::int64_t>(cfg_.zone));
  m.set_int("zep", static_cast<std::int64_t>(cohesion_.epoch()));
  std::set<std::uint32_t> targets;
  for (const auto& [z, p] : zones_) targets.insert(z);
  for (const auto& [z, n] : bootstraps_) targets.insert(z);
  for (std::uint32_t z : targets) {
    if (z == cfg_.zone || z == 0) continue;
    const NodeId to = root_of(z);
    if (!to.valid()) continue;
    hellos_sent_->inc();
    send(to, m);
  }
}

void ZoneRouter::send_publishes(TimePoint now) {
  rebuild_ring(now);
  std::map<std::uint32_t, std::set<std::string>> batches;
  for (const auto& label : cohesion_.aggregate_names()) {
    const auto [name, version] = split_label(label);
    (void)version;
    const std::uint32_t owner = ring_.owner_of(name);
    if (owner != 0) batches[owner].insert(label);
  }
  // Own-zone batch applies locally (and an *empty* own batch still clears
  // entries for components this zone no longer hosts).
  batches[cfg_.zone];
  for (const auto& [owner, labels] : batches) {
    if (owner == cfg_.zone) {
      for (auto it = store_.begin(); it != store_.end();) {
        auto& entries = it->second;
        entries.erase(std::remove_if(entries.begin(), entries.end(),
                                     [&](const ShardEntry& e) {
                                       return e.zone == cfg_.zone;
                                     }),
                      entries.end());
        it = entries.empty() ? store_.erase(it) : std::next(it);
      }
      for (const auto& label : labels) {
        const auto [name, version] = split_label(label);
        store_[name].push_back(
            {cfg_.zone, id_, version, cohesion_.epoch(), now});
      }
      continue;
    }
    const NodeId to = root_of(owner);
    if (!to.valid()) continue;
    ProtoMessage m = make("z_publish");
    m.set_int("zn", static_cast<std::int64_t>(cfg_.zone));
    m.set_int("zep", static_cast<std::int64_t>(cohesion_.epoch()));
    m.blob = encode_labels(labels);
    publishes_sent_->inc();
    send(to, m);
  }
}

void ZoneRouter::on_tick(TimePoint now) {
  if (!attached_) attach(now);
  // Expire shard entries whose zone stopped publishing (dead or cut off).
  for (auto it = store_.begin(); it != store_.end();) {
    auto& entries = it->second;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const ShardEntry& e) {
                                   return now - e.stamp > cfg_.entry_ttl;
                                 }),
                  entries.end());
    it = entries.empty() ? store_.erase(it) : std::next(it);
  }
  if (cohesion_.is_root()) {
    if (announce_pending_ || now - last_hello_ >= cfg_.hello_interval) {
      send_hellos(now);
      last_hello_ = now;
    }
    if (announce_pending_ || now - last_publish_ >= cfg_.publish_interval) {
      send_publishes(now);
      last_publish_ = now;
    }
    announce_pending_ = false;
  }
  // Resolve timeouts: answer with what we have (degraded) rather than
  // leaving callers hanging.
  std::vector<std::uint64_t> expired;
  for (const auto& [qid, r] : relays_)
    if (now >= r.deadline) expired.push_back(qid);
  for (std::uint64_t qid : expired) {
    relays_[qid].degraded = true;
    finish_relay(qid, now);
  }
  expired.clear();
  for (const auto& [qid, p] : pending_)
    if (now >= p.deadline) expired.push_back(qid);
  for (std::uint64_t qid : expired)
    complete_pending(qid, {{}, /*degraded=*/true});
}

// ---------------------------------------------------------------------------
// Resolve path

std::vector<ZoneHit> ZoneRouter::local_hits(const std::string& pattern) const {
  std::vector<ZoneHit> hits;
  const NodeId zone_root =
      cohesion_.is_root() ? id_ : cohesion_.current_root();
  for (const auto& label : cohesion_.aggregate_names()) {
    auto [name, version] = split_label(label);
    if (!glob_match(pattern, name)) continue;
    hits.push_back({std::move(name), version, cfg_.zone, zone_root});
  }
  return hits;
}

std::vector<ZoneHit> ZoneRouter::store_hits(const std::string& name) const {
  std::vector<ZoneHit> hits;
  if (auto it = store_.find(name); it != store_.end()) {
    for (const auto& e : it->second)
      hits.push_back({name, e.version, e.zone, e.root});
  }
  return hits;
}

void ZoneRouter::resolve(const std::string& pattern, TimePoint now,
                         ResolveCallback cb) {
  const std::uint64_t qid = (id_.value << 20) | next_qid_++;
  // Members wait out one extra relay deadline so a root's partial
  // (degraded) answer still beats the local timeout.
  pending_[qid] = {std::move(cb), now + 2 * cfg_.resolve_timeout};
  if (cohesion_.is_root()) {
    root_resolve(qid, id_, pattern, now);
    return;
  }
  const NodeId root = cohesion_.current_root();
  if (!root.valid()) {
    complete_pending(qid, {{}, /*degraded=*/true});
    return;
  }
  ProtoMessage m = make("z_resolve");
  m.set_int("qid", static_cast<std::int64_t>(qid));
  m.set("pat", pattern);
  send(root, m);
}

void ZoneRouter::root_resolve(std::uint64_t reply_qid, NodeId reply_to,
                              const std::string& pattern, TimePoint now) {
  resolves_->inc();
  rebuild_ring(now);
  bool degraded = false;
  for (const auto& [z, p] : zones_)
    if (zone_suspect(p, now)) degraded = true;

  std::vector<ZoneHit> local = local_hits(pattern);
  const bool exact = pattern.find_first_of("*?") == std::string::npos;
  if (exact) {
    // Locality fast path: a name hosted in the caller's own zone never
    // leaves the zone, whatever the ring says.
    if (!local.empty()) {
      local_fast_path_->inc();
      deliver_hits(reply_to, reply_qid, local, degraded, now);
      return;
    }
    const std::uint32_t owner = ring_.owner_of(pattern);
    if (owner == cfg_.zone || owner == 0) {
      deliver_hits(reply_to, reply_qid, store_hits(pattern),
                   degraded || owner == 0, now);
      return;
    }
    ring_hops_->inc();
    const std::uint64_t qid = (id_.value << 20) | next_qid_++;
    relays_[qid] = {reply_to, reply_qid, now + cfg_.resolve_timeout,
                    {}, 1, degraded};
    ProtoMessage m = make("z_fwd");
    m.set_int("qid", static_cast<std::int64_t>(qid));
    m.set("pat", pattern);
    send(root_of(owner), m);
    return;
  }

  // Glob: escalate to the super root (roots-of-roots), which fans out to
  // every zone root. When we *are* the super root, fan out directly.
  glob_fanouts_->inc();
  const auto [super_zone, super] = super_root(now);
  const std::uint64_t qid = (id_.value << 20) | next_qid_++;
  Relay r{reply_to, reply_qid, now + cfg_.resolve_timeout, std::move(local),
          0, degraded};
  if (super == id_) {
    ProtoMessage m = make("z_scan");
    m.set_int("qid", static_cast<std::int64_t>(qid));
    m.set("pat", pattern);
    for (std::uint32_t z : alive_zones(now)) {
      if (z == cfg_.zone) continue;
      const NodeId to = root_of(z);
      if (!to.valid()) continue;
      ++r.awaiting;
      send(to, m);
    }
  } else {
    ProtoMessage m = make("z_glob");
    m.set_int("qid", static_cast<std::int64_t>(qid));
    m.set("pat", pattern);
    m.set_int("zn", static_cast<std::int64_t>(cfg_.zone));
    r.awaiting = 1;
    send(super, m);
  }
  if (r.awaiting == 0) {
    deliver_hits(reply_to, reply_qid, r.hits, r.degraded, now);
    return;
  }
  relays_[qid] = std::move(r);
}

void ZoneRouter::finish_relay(std::uint64_t qid, TimePoint now) {
  auto it = relays_.find(qid);
  if (it == relays_.end()) return;
  Relay r = std::move(it->second);
  relays_.erase(it);
  deliver_hits(r.reply_to, r.reply_qid, r.hits, r.degraded, now);
}

void ZoneRouter::deliver_hits(NodeId to, std::uint64_t qid,
                              const std::vector<ZoneHit>& hits, bool degraded,
                              TimePoint now) {
  (void)now;
  if (to == id_) {
    complete_pending(qid, {hits, degraded});
    return;
  }
  ProtoMessage m = make("z_hits");
  m.set_int("qid", static_cast<std::int64_t>(qid));
  if (degraded) m.set_int("deg", 1);
  m.blob = encode_zone_hits(hits);
  send(to, m);
}

void ZoneRouter::complete_pending(std::uint64_t qid, ZoneResolveResult r) {
  auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  ResolveCallback cb = std::move(it->second.cb);
  pending_.erase(it);
  std::sort(r.hits.begin(), r.hits.end(),
            [](const ZoneHit& a, const ZoneHit& b) {
              return std::tie(a.name, a.version, a.zone, a.root.value) <
                     std::tie(b.name, b.version, b.zone, b.root.value);
            });
  r.hits.erase(std::unique(r.hits.begin(), r.hits.end()), r.hits.end());
  if (r.hits.size() > cfg_.max_results) r.hits.resize(cfg_.max_results);
  if (cb) cb(std::move(r));
}

// ---------------------------------------------------------------------------
// Inbound

void ZoneRouter::on_message(const ProtoMessage& m, TimePoint now) {
  if (!handles(m)) return;
  if (!attached_) attach(now);
  const std::string& k = m.kind;

  // Replies are addressed to a specific waiter; everything else is root
  // business. A frame that lands on a non-root (stale zone table after a
  // failover, or a bootstrap member fronting its zone) is forwarded one
  // hop to the zone's current root -- once, to keep misconfigured tables
  // from looping frames forever.
  if (k == "z_hits") {
    auto hits = decode_zone_hits(m.blob);
    const auto qid = static_cast<std::uint64_t>(m.field_int("qid"));
    const bool deg = m.field_int("deg", 0) != 0;
    if (auto it = relays_.find(qid); it != relays_.end()) {
      Relay& r = it->second;
      r.hits.insert(r.hits.end(), hits.begin(), hits.end());
      r.degraded = r.degraded || deg;
      if (--r.awaiting <= 0) finish_relay(qid, now);
      return;
    }
    complete_pending(qid, {std::move(hits), deg});
    return;
  }

  if (!cohesion_.is_root()) {
    if (m.field_int("fw", 0) != 0) return;  // already forwarded once
    const NodeId root = cohesion_.current_root();
    if (root.valid() && root != id_ && root != m.sender) {
      ProtoMessage fwd = m;
      fwd.set_int("fw", 1);
      forwards_->inc();
      send(root, fwd);
    } else if (k == "z_resolve" || k == "z_fwd" || k == "z_glob" ||
               k == "z_scan") {
      // No root to forward to: fail the query fast instead of silently.
      deliver_hits(m.sender, static_cast<std::uint64_t>(m.field_int("qid")),
                   {}, /*degraded=*/true, now);
    }
    return;
  }

  if (k == "z_hello") {
    const auto z = static_cast<std::uint32_t>(m.field_int("zn"));
    const auto ep = static_cast<std::uint64_t>(m.field_int("zep", 1));
    const NodeId prev = root_of(z);
    if (note_zone_root(z, m.sender, ep, now) && prev != m.sender) {
      // A root we did not know (first contact, or a replacement after
      // failover): introduce ourselves so the discovery is mutual.
      ProtoMessage reply = make("z_hello");
      reply.set_int("zn", static_cast<std::int64_t>(cfg_.zone));
      reply.set_int("zep", static_cast<std::int64_t>(cohesion_.epoch()));
      hellos_sent_->inc();
      send(m.sender, reply);
    }
    return;
  }

  if (k == "z_publish") {
    const auto z = static_cast<std::uint32_t>(m.field_int("zn"));
    const auto ep = static_cast<std::uint64_t>(m.field_int("zep", 1));
    if (!note_zone_root(z, m.sender, ep, now)) return;  // fenced stale root
    // The batch is the publishing zone's complete current name set hashed
    // to us: replace wholesale so uninstalled components disappear.
    for (auto it = store_.begin(); it != store_.end();) {
      auto& entries = it->second;
      entries.erase(std::remove_if(
                        entries.begin(), entries.end(),
                        [&](const ShardEntry& e) { return e.zone == z; }),
                    entries.end());
      it = entries.empty() ? store_.erase(it) : std::next(it);
    }
    for (const auto& label : decode_labels(m.blob)) {
      const auto [name, version] = split_label(label);
      store_[name].push_back({z, m.sender, version, ep, now});
    }
    return;
  }

  if (k == "z_resolve") {
    root_resolve(static_cast<std::uint64_t>(m.field_int("qid")), m.sender,
                 m.field("pat"), now);
    return;
  }

  if (k == "z_fwd") {
    // We own this name's shard: answer from the store, stateless.
    const std::string name = m.field("pat");
    bool degraded = false;
    for (const auto& [z, p] : zones_)
      if (zone_suspect(p, now)) degraded = true;
    deliver_hits(m.sender, static_cast<std::uint64_t>(m.field_int("qid")),
                 store_hits(name), degraded, now);
    return;
  }

  if (k == "z_glob") {
    // Super-root duty: fan the scan to every alive zone root except the
    // origin (whose local hits are already in its relay) and ourselves.
    const auto origin_zone = static_cast<std::uint32_t>(m.field_int("zn"));
    const std::uint64_t qid = (id_.value << 20) | next_qid_++;
    Relay r{m.sender, static_cast<std::uint64_t>(m.field_int("qid")),
            now + cfg_.resolve_timeout, local_hits(m.field("pat")), 0, false};
    for (const auto& [z, p] : zones_)
      if (zone_suspect(p, now)) r.degraded = true;
    ProtoMessage scan = make("z_scan");
    scan.set_int("qid", static_cast<std::int64_t>(qid));
    scan.set("pat", m.field("pat"));
    for (std::uint32_t z : alive_zones(now)) {
      if (z == cfg_.zone || z == origin_zone) continue;
      const NodeId to = root_of(z);
      if (!to.valid() || to == m.sender) continue;
      ++r.awaiting;
      send(to, scan);
    }
    if (r.awaiting == 0) {
      deliver_hits(m.sender, r.reply_qid, r.hits, r.degraded, now);
      return;
    }
    relays_[qid] = std::move(r);
    return;
  }

  if (k == "z_scan") {
    deliver_hits(m.sender, static_cast<std::uint64_t>(m.field_int("qid")),
                 local_hits(m.field("pat")), /*degraded=*/false, now);
    return;
  }
}

// ---------------------------------------------------------------------------
// Wire helpers

Bytes ZoneRouter::encode_labels(const std::set<std::string>& labels) {
  orb::CdrWriter w;
  w.begin_encapsulation();
  w.write_ulong(static_cast<std::uint32_t>(labels.size()));
  for (const auto& l : labels) w.write_string(l);
  return w.take();
}

std::vector<std::string> ZoneRouter::decode_labels(BytesView data) {
  std::vector<std::string> out;
  orb::CdrReader r(data);
  if (auto enc = r.begin_encapsulation(); !enc.ok()) return out;
  auto count = r.read_ulong();
  if (!count) return out;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto s = r.read_string();
    if (!s) return out;
    out.push_back(std::move(*s));
  }
  return out;
}

Bytes ZoneRouter::encode_zone_hits(const std::vector<ZoneHit>& hits) {
  orb::CdrWriter w;
  w.begin_encapsulation();
  w.write_ulong(static_cast<std::uint32_t>(hits.size()));
  for (const auto& h : hits) {
    w.write_string(h.name);
    w.write_string(h.version.to_string());
    w.write_ulong(h.zone);
    w.write_ulonglong(h.root.value);
  }
  return w.take();
}

std::vector<ZoneHit> ZoneRouter::decode_zone_hits(BytesView data) {
  std::vector<ZoneHit> out;
  orb::CdrReader r(data);
  if (auto enc = r.begin_encapsulation(); !enc.ok()) return out;
  auto count = r.read_ulong();
  if (!count) return out;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto name = r.read_string();
    auto ver = r.read_string();
    auto zone = r.read_ulong();
    auto root = r.read_ulonglong();
    if (!name || !ver || !zone || !root) return out;
    ZoneHit h;
    h.name = std::move(*name);
    if (auto v = Version::parse(*ver); v.ok()) h.version = *v;
    h.zone = *zone;
    h.root = NodeId{*root};
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace clc::core
