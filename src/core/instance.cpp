#include "core/instance.hpp"

namespace clc::core {

ExecutorRegistry& ExecutorRegistry::global() {
  static ExecutorRegistry instance;
  return instance;
}

Result<void> ExecutorRegistry::register_symbol(const std::string& entry_symbol,
                                               InstanceFactory factory) {
  if (entry_symbol.empty())
    return Error{Errc::invalid_argument, "empty entry symbol"};
  // Re-registration with a new factory is allowed: installing a new version
  // of a component re-binds its entry point, mirroring a DLL upgrade.
  symbols_[entry_symbol] = std::move(factory);
  return {};
}

Result<InstanceFactory> ExecutorRegistry::resolve(
    const std::string& entry_symbol) const {
  auto it = symbols_.find(entry_symbol);
  if (it == symbols_.end())
    return Error{Errc::not_found,
                 "unresolved component entry symbol '" + entry_symbol + "'"};
  return it->second;
}

bool ExecutorRegistry::has(const std::string& entry_symbol) const {
  return symbols_.count(entry_symbol) != 0;
}

}  // namespace clc::core
