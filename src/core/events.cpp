#include "core/events.hpp"

#include <algorithm>

namespace clc::core {

EventChannelHub::SubscriptionId EventChannelHub::subscribe_local(
    const std::string& event_type, LocalConsumer consumer) {
  const SubscriptionId id = next_id_++;
  channels_[event_type].locals.emplace(id, std::move(consumer));
  return id;
}

void EventChannelHub::unsubscribe_local(const std::string& event_type,
                                        SubscriptionId id) {
  auto it = channels_.find(event_type);
  if (it != channels_.end()) it->second.locals.erase(id);
}

Result<void> EventChannelHub::subscribe_remote(const std::string& event_type,
                                               const orb::ObjectRef& consumer) {
  if (consumer.is_nil())
    return Error{Errc::invalid_argument, "nil consumer reference"};
  auto& channel = channels_[event_type];
  for (const auto& e : channel.remotes) {
    if (e.ref == consumer)
      return Error{Errc::already_exists, "consumer already subscribed"};
  }
  channel.remotes.push_back(RemoteEntry{consumer, 0});
  return {};
}

void EventChannelHub::publish(const std::string& event_type,
                              const orb::Value& event) {
  ++published_;
  auto it = channels_.find(event_type);
  if (it == channels_.end()) return;

  // Every consumer -- local callback or remote EventConsumer -- receives
  // the event boxed in an any (the push signature is
  // `oneway void push(in any event)`), so handlers are location-agnostic.
  orb::AnyValue boxed;
  // Self-describe the payload type: infer a TypeRef from the value shape.
  // Struct/enum values know their type names; primitives map directly.
  boxed.type = [&]() -> idl::TypeRef {
    if (auto* sv = event.get_if<orb::StructValue>())
      return idl::TypeRef::named(idl::TypeKind::tk_struct, sv->type_name);
    if (auto* ev = event.get_if<orb::EnumValue>())
      return idl::TypeRef::named(idl::TypeKind::tk_enum, ev->type_name);
    if (event.is<std::string>())
      return idl::TypeRef::primitive(idl::TypeKind::tk_string);
    if (event.is<double>())
      return idl::TypeRef::primitive(idl::TypeKind::tk_double);
    if (event.is<std::int32_t>())
      return idl::TypeRef::primitive(idl::TypeKind::tk_long);
    if (event.is<std::int64_t>())
      return idl::TypeRef::primitive(idl::TypeKind::tk_longlong);
    if (event.is<bool>())
      return idl::TypeRef::primitive(idl::TypeKind::tk_boolean);
    if (event.is<Bytes>())
      return idl::TypeRef::sequence(
          idl::TypeRef::primitive(idl::TypeKind::tk_octet));
    return idl::TypeRef::primitive(idl::TypeKind::tk_string);
  }();
  boxed.value = std::make_shared<orb::Value>(event);

  for (const auto& [id, consumer] : it->second.locals)
    consumer(orb::Value(boxed));

  auto& remotes = it->second.remotes;
  for (auto& entry : remotes) {
    auto r = orb_.send(entry.ref, "push", {orb::Value(boxed)});
    entry.failures = r.ok() ? 0 : entry.failures + 1;
  }
  remotes.erase(std::remove_if(remotes.begin(), remotes.end(),
                               [](const RemoteEntry& e) {
                                 return e.failures >= kMaxFailures;
                               }),
                remotes.end());
}

std::size_t EventChannelHub::consumer_count(
    const std::string& event_type) const {
  auto it = channels_.find(event_type);
  if (it == channels_.end()) return 0;
  return it->second.locals.size() + it->second.remotes.size();
}

std::vector<std::string> EventChannelHub::channels() const {
  std::vector<std::string> out;
  out.reserve(channels_.size());
  for (const auto& [name, c] : channels_) out.push_back(name);
  return out;
}

}  // namespace clc::core
