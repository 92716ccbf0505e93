#include "orb/transport.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "util/clock.hpp"

namespace clc::orb {

Result<Bytes> roundtrip(Transport& transport, const std::string& endpoint,
                        BytesView frame) {
  struct Waiter {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Result<Bytes> reply{Error{Errc::bad_state, "no reply"}};
  };
  // Shared: the callback may still be notifying when the waiter returns.
  auto w = std::make_shared<Waiter>();
  transport.submit(endpoint, frame, [w](Result<Bytes> r) {
    {
      std::lock_guard lock(w->mutex);
      w->reply = std::move(r);
      w->done = true;
    }
    w->cv.notify_one();
  });
  std::unique_lock lock(w->mutex);
  w->cv.wait(lock, [&] { return w->done; });
  return std::move(w->reply);
}

LoopbackNetwork::~LoopbackNetwork() { stop_async_workers(); }

std::string LoopbackNetwork::register_endpoint(MessageHandler handler) {
  std::lock_guard lock(mutex_);
  std::string endpoint = "loop:" + std::to_string(next_id_++);
  endpoints_.emplace(endpoint, std::move(handler));
  return endpoint;
}

void LoopbackNetwork::detach(const std::string& endpoint) {
  std::lock_guard lock(mutex_);
  endpoints_.erase(endpoint);
}

Result<void> LoopbackNetwork::reattach(const std::string& endpoint,
                                       MessageHandler handler) {
  std::lock_guard lock(mutex_);
  if (endpoints_.count(endpoint) != 0)
    return Error{Errc::already_exists, endpoint + " is already attached"};
  endpoints_.emplace(endpoint, std::move(handler));
  return {};
}

Result<MessageHandler> LoopbackNetwork::lookup(const std::string& endpoint) {
  std::lock_guard lock(mutex_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end())
    return Error{Errc::unreachable, "no endpoint " + endpoint};
  return it->second;
}

bool LoopbackNetwork::should_drop() {
  std::lock_guard lock(mutex_);
  if (config_.drop_probability <= 0) return false;
  const bool drop = rng_.chance(config_.drop_probability);
  if (drop) dropped_->inc();
  return drop;
}

void LoopbackNetwork::apply_delay(std::size_t bytes) {
  Config cfg;
  std::function<void(Duration)> sleep_fn;
  {
    std::lock_guard lock(mutex_);
    cfg = config_;
    sleep_fn = sleep_fn_;
  }
  messages_->inc();
  bytes_->add(bytes);
  Duration delay = cfg.latency;
  if (cfg.bytes_per_second > 0) {
    delay += static_cast<Duration>(static_cast<double>(bytes) /
                                   cfg.bytes_per_second * 1e6);
  }
  if (delay <= 0) return;
  if (sleep_fn)
    sleep_fn(delay);
  else
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
}

Result<Bytes> LoopbackNetwork::exchange(const std::string& endpoint,
                                        BytesView frame, Delivery delivery) {
  auto handler = lookup(endpoint);
  if (!handler) return handler.error();
  const bool oneway = delivery == Delivery::oneway;
  if (should_drop()) {
    if (oneway) return Bytes{};  // silently lost, as on a real network
    return Error{Errc::timeout, "request dropped"};
  }
  apply_delay(frame.size());
  Bytes reply = (*handler)(frame);
  if (oneway) return Bytes{};
  if (should_drop()) return Error{Errc::timeout, "reply dropped"};
  apply_delay(reply.size());
  return reply;
}

void LoopbackNetwork::submit(const std::string& endpoint, BytesView frame,
                             ReplyCallback cb, Delivery delivery) {
  if (delivery == Delivery::request_reply) {
    std::lock_guard lock(queue_mutex_);
    if (!workers_.empty() && !stopping_) {
      queue_.push_back(Job{endpoint, Bytes(frame.begin(), frame.end()),
                           std::move(cb)});
      queue_cv_.notify_one();
      return;
    }
  }
  // No pool, or a one-way: complete inline, deterministic.
  cb(exchange(endpoint, frame, delivery));
}

void LoopbackNetwork::start_async_workers(std::size_t n) {
  std::lock_guard lock(queue_mutex_);
  if (!workers_.empty()) return;
  stopping_ = false;
  n = std::clamp<std::size_t>(n, 1, 32);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void LoopbackNetwork::stop_async_workers() {
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
    workers.swap(workers_);
  }
  queue_cv_.notify_all();
  for (auto& t : workers) {
    if (t.joinable()) t.join();
  }
  // Fail anything still queued so no callback is silently lost.
  std::deque<Job> leftover;
  {
    std::lock_guard lock(queue_mutex_);
    leftover.swap(queue_);
    stopping_ = false;
  }
  for (auto& job : leftover)
    job.cb(Error{Errc::unreachable, "loopback workers stopped"});
}

void LoopbackNetwork::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      if (queue_.empty()) continue;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job.cb(exchange(job.endpoint, job.frame, Delivery::request_reply));
  }
}

}  // namespace clc::orb
