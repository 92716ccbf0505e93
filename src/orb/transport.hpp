// Transport abstraction and the in-process loopback network.
//
// Transports move opaque framed messages between endpoints. The ORB is the
// only client, and submit() is the whole contract: it ships one encoded
// frame and invokes a completion callback exactly once -- with the reply
// frame for a request, or with empty bytes once a one-way has been handed
// off. Because a request's reply arrives through a callback, many requests
// can be in flight on one connection at once (pipelining); a blocking
// round-trip is the free helper roundtrip() layered on top. Endpoint
// strings are scheme-prefixed: "loop:<n>" (in-process), "tcp:host:port".
//
// LoopbackNetwork connects all ORBs of one process and supports the failure
// and delay injection the tests and benches need: per-link latency,
// bandwidth modelling, message drop probability, and detached (crashed)
// endpoints. By default submit() completes inline on the caller thread
// (deterministic, what the virtual-time test harnesses rely on); a bench or
// stress test can start a worker pool so requests genuinely overlap --
// including their modelled link latency, which is what makes pipelining
// measurable on a loopback link. One-ways always run inline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace clc::orb {

/// Server side of a transport: a registered handler consumes one request
/// frame and produces one reply frame (empty for one-ways).
using MessageHandler = std::function<Bytes(BytesView)>;

/// Completion of one submitted frame: the reply frame (empty bytes for a
/// one-way that was handed off), or the error that ended the exchange.
/// Invoked exactly once, possibly inline from submit().
using ReplyCallback = std::function<void(Result<Bytes>)>;

/// Whether a submitted frame expects a reply.
enum class Delivery : std::uint8_t {
  request_reply,  // `cb` gets the reply frame, possibly from another thread
  oneway,         // no reply: `cb` runs before submit() returns
};

/// Client side of a transport.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Ship `frame` to `endpoint` and invoke `cb` exactly once. A request
  /// completes with the reply or the failure. A one-way completes before
  /// submit() returns: ok (empty bytes) once the frame is handed off --
  /// or silently lost, as on a real network -- else the hand-off error
  /// (unreachable endpoint, reset connection). `frame` need only stay
  /// alive for the duration of this call; transports copy it if they keep
  /// it longer.
  virtual void submit(const std::string& endpoint, BytesView frame,
                      ReplyCallback cb,
                      Delivery delivery = Delivery::request_reply) = 0;
};

/// Blocking request/reply over any transport: submit() and wait for the
/// completion.
Result<Bytes> roundtrip(Transport& transport, const std::string& endpoint,
                        BytesView frame);

/// In-process "network": endpoints registered with handlers; calls are
/// synchronous function invocations plus optional injected delay.
class LoopbackNetwork : public Transport {
 public:
  /// `metrics` shares an external registry; when null the network owns one.
  explicit LoopbackNetwork(obs::MetricsRegistry* metrics = nullptr)
      : owned_metrics_(metrics == nullptr
                           ? std::make_unique<obs::MetricsRegistry>()
                           : nullptr),
        metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
        messages_(&metrics_->counter("transport.messages")),
        bytes_(&metrics_->counter("transport.bytes")),
        dropped_(&metrics_->counter("transport.dropped")),
        rng_(0x10bac) {}
  ~LoopbackNetwork() override;

  /// Tuning/failure knobs; applied to every message.
  struct Config {
    Duration latency{0};            // one-way delay (µs) applied per message
    double bytes_per_second = 0;    // 0 = infinite bandwidth
    double drop_probability = 0;    // chance a message is lost
  };

  void set_config(Config cfg) {
    std::lock_guard lock(mutex_);
    config_ = cfg;
  }

  /// How modelled latency passes; defaults to a real sleep. Deterministic
  /// harnesses (LocalNetwork) substitute a virtual-clock advance so no test
  /// ever blocks on wall time.
  void set_sleep_fn(std::function<void(Duration)> fn) {
    std::lock_guard lock(mutex_);
    sleep_fn_ = std::move(fn);
  }

  /// Register a serving endpoint; returns the endpoint string ("loop:<n>").
  std::string register_endpoint(MessageHandler handler);
  /// Simulate a crash: the endpoint stops answering (unreachable).
  void detach(const std::string& endpoint);
  /// Re-register a handler under an existing name (node re-join).
  Result<void> reattach(const std::string& endpoint, MessageHandler handler);

  /// With no worker pool (the default) the exchange runs inline on the
  /// caller thread, which keeps the deterministic virtual-time tiers
  /// exact. With workers started, requests queue to the pool and their
  /// link latency overlaps; one-ways still run inline.
  void submit(const std::string& endpoint, BytesView frame, ReplyCallback cb,
              Delivery delivery = Delivery::request_reply) override;

  /// Start `n` worker threads serving requests concurrently (idempotent;
  /// capped at 32). Turns modelled latency into genuinely overlapping
  /// in-flight requests, as on a real network.
  void start_async_workers(std::size_t n);
  /// Drain the queue and join the workers (also runs at destruction).
  void stop_async_workers();

  /// Total messages and bytes moved (for bench accounting); a legacy view
  /// assembled from the metrics registry ("transport.*" names).
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t dropped = 0;
  };
  [[nodiscard]] Stats stats() const {
    Stats s;
    s.messages = messages_->value();
    s.bytes = bytes_->value();
    s.dropped = dropped_->value();
    return s;
  }
  /// Zero every "transport.*" metric symmetrically.
  void reset_stats() { metrics_->reset("transport."); }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }

 private:
  struct Job {
    std::string endpoint;
    Bytes frame;
    ReplyCallback cb;
  };

  Result<MessageHandler> lookup(const std::string& endpoint);
  void apply_delay(std::size_t bytes);
  bool should_drop();
  Result<Bytes> exchange(const std::string& endpoint, BytesView frame,
                         Delivery delivery);
  void worker_loop();

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* messages_;
  obs::Counter* bytes_;
  obs::Counter* dropped_;
  mutable std::mutex mutex_;
  std::map<std::string, MessageHandler> endpoints_;
  Config config_;
  std::function<void(Duration)> sleep_fn_;
  Rng rng_;
  int next_id_ = 1;

  // Async worker pool (only live between start/stop_async_workers).
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace clc::orb
