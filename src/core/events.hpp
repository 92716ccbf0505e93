// Push event channels (§2.1.2).
//
// "For each event kind produced by a component, the framework opens a push
// event channel. Components can subscribe to this channel to express its
// interest in the event kind produced by the component." Channels are keyed
// by event type name; consumers are either local callbacks or remote
// clc::EventConsumer object references reached by oneway push() through the
// ORB (the paper's notification-service role).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "orb/orb.hpp"

namespace clc::core {

class EventChannelHub {
 public:
  explicit EventChannelHub(orb::Orb& orb) : orb_(orb) {}

  using LocalConsumer = std::function<void(const orb::Value&)>;
  /// Token to unsubscribe a local consumer.
  using SubscriptionId = std::uint64_t;

  SubscriptionId subscribe_local(const std::string& event_type,
                                 LocalConsumer consumer);
  void unsubscribe_local(const std::string& event_type, SubscriptionId id);

  /// Remote consumer: must implement clc::EventConsumer.
  Result<void> subscribe_remote(const std::string& event_type,
                                const orb::ObjectRef& consumer);

  /// Push one event to every subscriber. Remote delivery is best-effort
  /// oneway; unreachable consumers are dropped from the channel after
  /// `max_failures` consecutive failures.
  void publish(const std::string& event_type, const orb::Value& event);

  [[nodiscard]] std::size_t consumer_count(const std::string& event_type) const;
  [[nodiscard]] std::vector<std::string> channels() const;

  /// Events published per channel (benchmarks).
  [[nodiscard]] std::uint64_t published_count() const noexcept {
    return published_;
  }

 private:
  struct RemoteEntry {
    orb::ObjectRef ref;
    int failures = 0;
  };
  struct Channel {
    std::map<SubscriptionId, LocalConsumer> locals;
    std::vector<RemoteEntry> remotes;
  };
  static constexpr int kMaxFailures = 3;

  orb::Orb& orb_;
  std::map<std::string, Channel> channels_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
};

/// Helper servant adapting a callback into a clc::EventConsumer object.
class CallbackEventConsumer : public orb::Servant {
 public:
  explicit CallbackEventConsumer(
      std::function<void(const orb::Value&)> handler)
      : handler_(std::move(handler)) {}

  [[nodiscard]] std::string interface_name() const override {
    return "clc::EventConsumer";
  }
  Result<void> dispatch(orb::ServerRequest& req) override {
    if (req.operation() != "push")
      return Error{Errc::unsupported, "EventConsumer only handles push"};
    handler_(req.arg(0));
    return {};
  }

 private:
  std::function<void(const orb::Value&)> handler_;
};

}  // namespace clc::core
