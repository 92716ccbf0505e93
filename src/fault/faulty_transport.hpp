// FaultyTransport: a Transport decorator driven by a FaultInjector.
//
// Wraps any real transport (loopback or TCP) and subjects every message --
// request and reply are separate messages, mirroring the two network
// crossings of a request/reply exchange -- to the armed fault plan: drops
// surface as Errc::timeout (the caller cannot tell a lost request from a
// lost reply) except on a one-way, which is lost silently as on a real
// network; resets surface as Errc::unreachable, corruption flips frame
// bytes before the inner transport sees them, duplication replays the
// request against the server a second time (exercising server
// idempotency), and delays run through an injectable sleep function so
// simulated time stays virtual. Like every transport it overrides only
// submit(), so each rule is written once for both kinds of delivery.
//
// With no plan armed the decorator is a single relaxed atomic load plus a
// virtual call -- cheap enough to leave in place permanently.
#pragma once

#include <functional>
#include <memory>

#include "fault/plan.hpp"
#include "orb/transport.hpp"

namespace clc::fault {

class FaultyTransport final : public orb::Transport {
 public:
  FaultyTransport(std::shared_ptr<orb::Transport> inner,
                  obs::MetricsRegistry* metrics = nullptr)
      : inner_(std::move(inner)), injector_(metrics) {}

  [[nodiscard]] FaultInjector& injector() noexcept { return injector_; }
  [[nodiscard]] orb::Transport& inner() noexcept { return *inner_; }

  /// How injected delays pass; defaults to a real sleep. LocalNetwork
  /// substitutes a virtual-clock advance to keep tests deterministic.
  void set_sleep_fn(std::function<void(Duration)> fn) {
    sleep_fn_ = std::move(fn);
  }

  /// Request-direction faults apply before the inner submit (inline, on
  /// the caller thread -- deterministic under seeded plans), reply-direction
  /// faults inside the completion callback. A one-way has no reply
  /// crossing, and a dropped one-way completes ok.
  void submit(const std::string& endpoint, BytesView frame,
              orb::ReplyCallback cb,
              orb::Delivery delivery = orb::Delivery::request_reply) override;

 private:
  void sleep(Duration d);
  /// Apply one message's decision to an outgoing frame. Returns the frame
  /// to transmit (corrupted copy when corruption applies) or an error for
  /// drop/reset; fills `duplicate`.
  Result<Bytes> apply(BytesView frame, bool request_direction,
                      bool* duplicate);

  std::shared_ptr<orb::Transport> inner_;
  FaultInjector injector_;
  std::function<void(Duration)> sleep_fn_;
};

}  // namespace clc::fault
