#include "core/registry.hpp"

namespace clc::core {

const char* instance_state_name(InstanceState s) noexcept {
  switch (s) {
    case InstanceState::created: return "created";
    case InstanceState::active: return "active";
    case InstanceState::passive: return "passive";
    case InstanceState::migrating: return "migrating";
    case InstanceState::destroyed: return "destroyed";
  }
  return "?";
}

void ComponentRegistry::record_instance(const InstanceRecord& record) {
  instances_[record.id] = record;
}

void ComponentRegistry::update_state(InstanceId id, InstanceState state) {
  auto it = instances_.find(id);
  if (it != instances_.end()) it->second.state = state;
}

void ComponentRegistry::record_provided_port(InstanceId id,
                                             const std::string& port,
                                             const orb::ObjectRef& ref) {
  auto it = instances_.find(id);
  if (it != instances_.end()) it->second.provided_ports[port] = ref;
}

void ComponentRegistry::record_connection(InstanceId id,
                                          const std::string& port,
                                          const orb::ObjectRef& target) {
  auto it = instances_.find(id);
  if (it != instances_.end()) it->second.used_ports[port] = target;
}

void ComponentRegistry::remove_instance(InstanceId id) {
  instances_.erase(id);
}

const InstanceRecord* ComponentRegistry::instance(InstanceId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

std::vector<const InstanceRecord*> ComponentRegistry::instances() const {
  std::vector<const InstanceRecord*> out;
  out.reserve(instances_.size());
  for (const auto& [id, rec] : instances_) out.push_back(&rec);
  return out;
}

std::vector<const InstanceRecord*> ComponentRegistry::instances_of(
    const std::string& component) const {
  std::vector<const InstanceRecord*> out;
  for (const auto& [id, rec] : instances_) {
    if (rec.component == component) out.push_back(&rec);
  }
  return out;
}

std::vector<ConnectionRecord> ComponentRegistry::assembly() const {
  std::vector<ConnectionRecord> out;
  for (const auto& [id, rec] : instances_) {
    for (const auto& [port, target] : rec.used_ports)
      out.push_back(ConnectionRecord{id, port, target});
  }
  return out;
}

RegistryDigest ComponentRegistry::digest() const {
  RegistryDigest d;
  d.node = node_;
  for (const auto* ic : repository_.list()) {
    ComponentSummary s;
    s.name = ic->description.name;
    s.version = ic->description.version;
    s.mobile = ic->description.mobile;
    s.cost_per_use = ic->description.license.cost_per_use;
    d.components.push_back(std::move(s));
  }
  const NodeLoad load = resources_.load();
  d.cpu_load = load.cpu_load;
  d.memory_free_kb = resources_.memory_free_kb();
  d.device = resources_.profile().device;
  d.revision = repository_.revision();
  return d;
}

}  // namespace clc::core
