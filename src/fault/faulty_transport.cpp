#include "fault/faulty_transport.hpp"

#include <chrono>
#include <thread>

namespace clc::fault {

void FaultyTransport::sleep(Duration d) {
  if (d <= 0) return;
  if (sleep_fn_) {
    sleep_fn_(d);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(d));
}

Result<Bytes> FaultyTransport::apply(BytesView frame, bool request_direction,
                                     bool* duplicate) {
  const FaultDecision d = injector_.next(frame.size());
  if (d.reset)
    return Error{Errc::unreachable, "connection reset by fault plan"};
  if (d.drop)
    return Error{Errc::timeout, request_direction
                                    ? "request dropped by fault plan"
                                    : "reply dropped by fault plan"};
  if (d.delay > 0) sleep(d.delay);
  if (duplicate != nullptr) *duplicate = d.duplicate;
  Bytes out(frame.begin(), frame.end());
  FaultInjector::corrupt(out, d);
  return out;
}

void FaultyTransport::submit(const std::string& endpoint, BytesView frame,
                             orb::ReplyCallback cb, orb::Delivery delivery) {
  if (!injector_.active()) {
    inner_->submit(endpoint, frame, std::move(cb), delivery);
    return;
  }

  // Request crossing, decided now so a seeded plan consumes decisions in
  // submission order regardless of how replies interleave.
  const bool oneway = delivery == orb::Delivery::oneway;
  bool duplicate = false;
  auto request = apply(frame, /*request_direction=*/true, &duplicate);
  if (!request) {
    // One-way drops are silent, as on a real network; resets still surface.
    if (oneway && request.error().code == Errc::timeout)
      cb(Bytes{});
    else
      cb(request.error());
    return;
  }
  if (duplicate)
    inner_->submit(endpoint, *request, [](Result<Bytes>) {}, delivery);
  if (oneway) {
    inner_->submit(endpoint, *request, std::move(cb), delivery);
    return;
  }
  inner_->submit(endpoint, *request, [this, cb = std::move(cb)](
                                         Result<Bytes> reply) {
    if (!reply) {
      cb(reply.error());
      return;
    }
    // Reply crossing: its own message, its own decision.
    cb(apply(*reply, /*request_direction=*/false, nullptr));
  });
}

}  // namespace clc::fault
