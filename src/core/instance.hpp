// Component instances and the executor registry.
//
// Instances are "run-time incarnations of the behavior stored in a
// component" (§2.1.2). A component binary names an entry symbol; at load
// time the node resolves that symbol to an InstanceFactory through the
// process-wide ExecutorRegistry -- the in-process equivalent of
// dlopen()/dlsym() on the DLL shipped in the package (see DESIGN.md
// substitutions; lifecycle and failure modes are preserved: missing symbol,
// platform mismatch, load/unload accounting).
//
// The container/instance contract ("agreed local interfaces", §2.2) is the
// InstanceContext the container hands to the instance plus the virtual
// hooks the instance implements: activation, passivation and state
// externalization for migration/replication, and split/gather for
// aggregation-capable components.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "orb/orb.hpp"
#include "pkg/descriptor.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace clc::core {

class InstanceContext;

/// Base class for all component implementations.
class ComponentInstance {
 public:
  virtual ~ComponentInstance() = default;

  /// Wire up ports: call ctx.provide_port / ctx.on_event; invoked once,
  /// before activation.
  virtual Result<void> initialize(InstanceContext& ctx) = 0;

  /// Lifecycle notifications from the container.
  virtual void activate() {}
  virtual void passivate() {}

  /// Migration/replication support: serialize internal state. Stateless
  /// components keep the default (empty state).
  virtual Result<Bytes> externalize_state() { return Bytes{}; }
  virtual Result<void> internalize_state(BytesView /*state*/) { return {}; }

  /// Aggregation (data-parallel) components override these (§2.1.1):
  /// split the pending work into `parts` chunks...
  virtual Result<std::vector<Bytes>> split_work(std::size_t /*parts*/) {
    return Error{Errc::unsupported, "component is not aggregatable"};
  }
  /// ...process one chunk (possibly on another node)...
  virtual Result<Bytes> process_chunk(BytesView /*chunk*/) {
    return Error{Errc::unsupported, "component is not aggregatable"};
  }
  /// ...and gather partial results into the final one.
  virtual Result<Bytes> gather(const std::vector<Bytes>& /*partials*/) {
    return Error{Errc::unsupported, "component is not aggregatable"};
  }
};

/// Creates instances of one component implementation.
using InstanceFactory = std::function<std::unique_ptr<ComponentInstance>()>;

/// Process-wide symbol table: entry symbol -> factory. Stands in for the
/// dynamic linker resolving the factory entry point of a shipped DLL.
class ExecutorRegistry {
 public:
  static ExecutorRegistry& global();

  Result<void> register_symbol(const std::string& entry_symbol,
                               InstanceFactory factory);
  [[nodiscard]] Result<InstanceFactory> resolve(
      const std::string& entry_symbol) const;
  [[nodiscard]] bool has(const std::string& entry_symbol) const;

 private:
  std::map<std::string, InstanceFactory> symbols_;
};

/// View of the container the instance programs against.
class InstanceContext {
 public:
  virtual ~InstanceContext() = default;

  [[nodiscard]] virtual InstanceId id() const = 0;
  [[nodiscard]] virtual const pkg::ComponentDescription& description()
      const = 0;

  /// Expose a provided port: the container activates the servant and
  /// records the reference in the registry (visible to assemblies).
  virtual Result<orb::ObjectRef> provide_port(
      const std::string& port_name, std::shared_ptr<orb::Servant> servant) = 0;

  /// Current connection of a used port (nil if unconnected).
  [[nodiscard]] virtual orb::ObjectRef used_port(
      const std::string& port_name) const = 0;

  /// Invoke an operation through a used port (dependency injection done by
  /// the container per requirement 6).
  virtual Result<orb::Value> call_port(const std::string& port_name,
                                       const std::string& operation,
                                       std::vector<orb::Value> args) = 0;

  /// Publish an event on an emits-port (push channel, §2.1.2).
  virtual Result<void> emit(const std::string& port_name,
                            orb::Value event) = 0;

  /// Register the handler of a consumes-port.
  virtual Result<void> on_event(
      const std::string& port_name,
      std::function<void(const orb::Value&)> handler) = 0;

  /// Ask the container (and through it the network) for a component that
  /// satisfies the named dependency; returns a reference to an instance of
  /// it (requirement 6: automatic dependency management).
  virtual Result<orb::ObjectRef> require(const std::string& component,
                                         const VersionConstraint& c) = 0;
};

}  // namespace clc::core
