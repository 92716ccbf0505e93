// Server-side admission control (overload robustness, DESIGN.md §16).
//
// Each Node owns one AdmissionController gating every dispatched request.
// The controller keeps a fluid model of the dispatch queue: admitted calls
// deposit their estimated service cost into a backlog that drains at the
// node's service rate, so the current queue-delay estimate is simply
// backlog / drain_rate. The model is exact under the deterministic
// virtual-time harness (where dispatch is inline and a real queue never
// forms) and a good first-order estimate under the threaded TCP runtime --
// either way admission decisions are a pure function of (config, admitted
// history, clock), which keeps every overload scenario replayable.
//
// Two shedding mechanisms layer on top:
//  * A hard bound: application calls shed once the delay estimate exceeds
//    max_queue_delay. Control-plane calls (cohesion heartbeats, failover
//    checkpoints, directory traffic) get extra headroom on top of that
//    bound, so control traffic is never shed before application traffic --
//    under overload the cluster keeps agreeing on who is alive ("shed !=
//    dead") while it sheds user work.
//  * CoDel-style early shedding: if the delay estimate stays above
//    codel_target for a full codel_interval, the controller starts
//    shedding application calls at increasing frequency (interval /
//    sqrt(drop_count)) until the delay drops back below target. This keeps
//    the standing queue short instead of letting every request ride the
//    hard bound.
//
// Shed calls are answered with a BUSY reply carrying Errc::overloaded --
// retryable, but deliberately not a circuit-breaker failure.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace clc::core {

/// Priority class of a dispatched call. Control covers the clc::* internal
/// services (cohesion, failover, directory, zone routing); everything else
/// is application traffic and sheds first.
enum class CallClass : std::uint8_t { control = 0, application = 1 };

struct AdmissionConfig {
  /// Pass-through until enabled: every call admits, nothing is modeled.
  /// Nodes construct with admission disabled so existing deployments are
  /// byte- and behavior-identical; overload tiers switch it on.
  bool enabled = false;
  /// Microseconds of service work drained per microsecond of wall time
  /// (~ cores x relative cpu power of the node).
  double drain_rate = 1.0;
  /// Hard bound: application calls shed once the queue-delay estimate
  /// exceeds this. LoadManager tightens/relaxes it at run time.
  Duration max_queue_delay = milliseconds(100);
  /// Control calls are only shed beyond max_queue_delay * (1 + headroom),
  /// i.e. strictly after application traffic.
  double control_headroom = 1.0;
  /// CoDel knobs: sustained delay above target for a full interval starts
  /// early shedding.
  Duration codel_target = milliseconds(5);
  Duration codel_interval = milliseconds(100);
  /// Service-cost estimate charged per admitted call when the caller does
  /// not supply a measured one.
  Duration default_app_cost = microseconds(200);
  Duration control_cost = microseconds(10);
  /// Learned per-op cost (DESIGN.md §17): once an operation has this many
  /// observed service-time samples, the EWMA of those observations replaces
  /// the static per-class default as its admission charge. Until then the
  /// static default stands (the estimator stays a fallback-safe prior).
  std::uint32_t learned_cost_min_samples = 8;
  double learned_cost_alpha = 0.125;  // EWMA gain for observed service time
  /// Credit window advertised when unpressured (delay <= codel_target no
  /// hint is sent at all); shrinks toward 1 as the delay approaches the
  /// hard bound.
  std::uint32_t credit_full_window = 32;
  /// Floor below which LoadManager tightening cannot push max_queue_delay.
  Duration min_queue_delay = milliseconds(5);
};

class AdmissionController {
 public:
  explicit AdmissionController(obs::MetricsRegistry& metrics,
                               AdmissionConfig config = {});

  /// Gate one call at dispatch time. Ok admits the call and charges `cost`
  /// (or the per-class default when 0) to the backlog; Errc::overloaded
  /// sheds it. Deterministic in (state, now).
  Result<void> admit(CallClass cls, TimePoint now, Duration cost = 0);

  /// Current queue-delay estimate in microseconds (drains lazily to now).
  [[nodiscard]] Duration queue_delay(TimePoint now);
  /// True once the delay estimate crosses codel_target: replies should
  /// start carrying credit hints.
  [[nodiscard]] bool under_pressure(TimePoint now);
  /// Suggested per-client in-flight window; 0 = unpressured, no hint.
  [[nodiscard]] std::uint32_t credit_window(TimePoint now);

  /// LoadManager knobs: scale the hard bound down (factor < 1) when p99
  /// queue delay breaches the SLO, back up (factor > 1) when healthy.
  /// Clamped to [min_queue_delay, config.max_queue_delay].
  void tighten(double factor);
  [[nodiscard]] Duration max_queue_delay() const;

  /// Feed one observed dispatch service time (µs) for an operation into
  /// the learned cost estimator. Cheap; called after every dispatch.
  void record_service_time(const std::string& op_key,
                           std::uint64_t service_us);
  /// EWMA cost for an operation, or 0 (meaning "use the static default")
  /// until learned_cost_min_samples observations have arrived.
  [[nodiscard]] Duration learned_cost(const std::string& op_key) const;
  [[nodiscard]] bool enabled() const;
  /// Replace the whole config (tests/benches); resets the model state.
  void configure(AdmissionConfig config);
  [[nodiscard]] AdmissionConfig config() const;

  // Introspection (mirrors the admission.* metrics).
  [[nodiscard]] std::uint64_t admitted_count() const { return admitted_->value(); }
  [[nodiscard]] std::uint64_t shed_count() const { return shed_->value(); }
  [[nodiscard]] std::uint64_t shed_control_count() const {
    return shed_control_->value();
  }

 private:
  struct OpCost {
    double ewma_us = 0;
    std::uint64_t samples = 0;
  };

  /// Drain the backlog to `now`; returns the delay estimate in µs.
  Duration drain_locked(TimePoint now);
  Result<void> shed_locked(CallClass cls, const char* why, Duration delay);

  mutable std::mutex mutex_;
  std::map<std::string, OpCost> op_costs_;  // learned per-op service time
  AdmissionConfig config_;
  Duration max_queue_delay_;   // live hard bound (LoadManager-adjusted)
  double backlog_us_ = 0;      // outstanding service work, µs
  TimePoint last_drain_ = 0;
  // CoDel state.
  TimePoint first_above_ = 0;  // when sustained-above-target becomes actionable
  bool dropping_ = false;
  std::uint64_t drop_count_ = 0;
  TimePoint drop_next_ = 0;

  obs::Counter* admitted_;
  obs::Counter* admitted_control_;
  obs::Counter* shed_;
  obs::Counter* shed_capacity_;
  obs::Counter* shed_codel_;
  obs::Counter* shed_control_;
  obs::Gauge* backlog_gauge_;
  obs::Gauge* bound_gauge_;
  obs::Histogram* queue_delay_us_;
};

}  // namespace clc::core
