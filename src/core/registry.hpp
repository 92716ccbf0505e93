// Component Registry: the external view of one node's component state
// (Fig. 1: "reflects the internal Component Repository and helps in
// performing distributed component queries").
//
// Per §2.4.2 it tracks (a) installed components (reflecting the
// repository), (b) running instances and their properties, and (c) how
// instances are connected via ports (assemblies). Its digest() is the
// summary heartbeats carry to the MRM, and visual builders / tests read its
// tables directly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/query.hpp"
#include "core/repository.hpp"
#include "core/resource.hpp"
#include "orb/object_ref.hpp"

namespace clc::core {

enum class InstanceState { created, active, passive, migrating, destroyed };

const char* instance_state_name(InstanceState s) noexcept;

/// Registry row for one running instance.
struct InstanceRecord {
  InstanceId id;
  std::string component;
  Version version;
  InstanceState state = InstanceState::created;
  std::map<std::string, orb::ObjectRef> provided_ports;
  std::map<std::string, orb::ObjectRef> used_ports;  // current connections
};

/// One port-to-port connection (an assembly edge).
struct ConnectionRecord {
  InstanceId from;
  std::string from_port;
  orb::ObjectRef to;
};

class ComponentRegistry {
 public:
  ComponentRegistry(NodeId node, const ComponentRepository& repository,
                    const ResourceManager& resources)
      : node_(node), repository_(repository), resources_(resources) {}

  // ---- instance bookkeeping (driven by the Container)
  void record_instance(const InstanceRecord& record);
  void update_state(InstanceId id, InstanceState state);
  void record_provided_port(InstanceId id, const std::string& port,
                            const orb::ObjectRef& ref);
  void record_connection(InstanceId id, const std::string& port,
                         const orb::ObjectRef& target);
  void remove_instance(InstanceId id);

  [[nodiscard]] const InstanceRecord* instance(InstanceId id) const;
  [[nodiscard]] std::vector<const InstanceRecord*> instances() const;
  [[nodiscard]] std::vector<const InstanceRecord*> instances_of(
      const std::string& component) const;
  [[nodiscard]] std::vector<ConnectionRecord> assembly() const;

  /// The digest advertised in heartbeats (installed components + load).
  [[nodiscard]] RegistryDigest digest() const;

 private:
  NodeId node_;
  const ComponentRepository& repository_;
  const ResourceManager& resources_;
  std::map<InstanceId, InstanceRecord> instances_;
};

}  // namespace clc::core
