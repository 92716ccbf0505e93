#include "core/admission.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace clc::core {

AdmissionController::AdmissionController(obs::MetricsRegistry& metrics,
                                         AdmissionConfig config)
    : config_(config),
      max_queue_delay_(config.max_queue_delay),
      admitted_(&metrics.counter("admission.admitted")),
      admitted_control_(&metrics.counter("admission.admitted_control")),
      shed_(&metrics.counter("admission.shed")),
      shed_capacity_(&metrics.counter("admission.shed_capacity")),
      shed_codel_(&metrics.counter("admission.shed_codel")),
      shed_control_(&metrics.counter("admission.shed_control")),
      backlog_gauge_(&metrics.gauge("admission.backlog_us")),
      bound_gauge_(&metrics.gauge("admission.max_queue_delay_us")),
      queue_delay_us_(&metrics.histogram("admission.queue_delay_us",
                                         obs::default_latency_buckets_us())) {
  bound_gauge_->set(static_cast<double>(max_queue_delay_));
}

Duration AdmissionController::drain_locked(TimePoint now) {
  if (now > last_drain_) {
    backlog_us_ = std::max(
        0.0, backlog_us_ - static_cast<double>(now - last_drain_) *
                               config_.drain_rate);
    last_drain_ = now;
  }
  backlog_gauge_->set(backlog_us_);
  const double rate = config_.drain_rate > 0 ? config_.drain_rate : 1.0;
  return static_cast<Duration>(backlog_us_ / rate);
}

Result<void> AdmissionController::shed_locked(CallClass cls, const char* why,
                                              Duration delay) {
  shed_->inc();
  if (cls == CallClass::control) shed_control_->inc();
  return Error{Errc::overloaded, std::string(why) + " (queue delay " +
                                     std::to_string(delay) + "us, bound " +
                                     std::to_string(max_queue_delay_) + "us)"};
}

Result<void> AdmissionController::admit(CallClass cls, TimePoint now,
                                        Duration cost) {
  std::lock_guard lock(mutex_);
  const Duration delay = drain_locked(now);
  if (cost <= 0)
    cost = cls == CallClass::control ? config_.control_cost
                                     : config_.default_app_cost;
  if (!config_.enabled) {
    admitted_->inc();
    if (cls == CallClass::control) admitted_control_->inc();
    return ok_result();
  }

  queue_delay_us_->observe(static_cast<std::uint64_t>(delay));

  // Hard bound: control traffic gets headroom above the application bound,
  // so it is never shed before application calls are.
  const auto control_bound = static_cast<Duration>(
      static_cast<double>(max_queue_delay_) * (1.0 + config_.control_headroom));
  const Duration bound =
      cls == CallClass::control ? control_bound : max_queue_delay_;
  if (delay > bound) {
    shed_capacity_->inc();
    return shed_locked(cls, "admission queue full", delay);
  }

  // CoDel: sustained delay above target for a full interval starts shedding
  // application calls at increasing frequency until the queue drains.
  if (delay >= config_.codel_target) {
    if (first_above_ == 0) first_above_ = now + config_.codel_interval;
    if (cls == CallClass::application && now >= first_above_) {
      if (!dropping_) {
        dropping_ = true;
        drop_count_ = 0;
        drop_next_ = now;
      }
      if (now >= drop_next_) {
        ++drop_count_;
        drop_next_ =
            now + static_cast<Duration>(
                      static_cast<double>(config_.codel_interval) /
                      std::sqrt(static_cast<double>(drop_count_)));
        shed_codel_->inc();
        return shed_locked(cls, "codel shed", delay);
      }
    }
  } else {
    first_above_ = 0;
    dropping_ = false;
    drop_count_ = 0;
  }

  backlog_us_ += static_cast<double>(cost);
  backlog_gauge_->set(backlog_us_);
  admitted_->inc();
  if (cls == CallClass::control) admitted_control_->inc();
  return ok_result();
}

Duration AdmissionController::queue_delay(TimePoint now) {
  std::lock_guard lock(mutex_);
  return drain_locked(now);
}

bool AdmissionController::under_pressure(TimePoint now) {
  std::lock_guard lock(mutex_);
  if (!config_.enabled) return false;
  return drain_locked(now) >= config_.codel_target;
}

std::uint32_t AdmissionController::credit_window(TimePoint now) {
  std::lock_guard lock(mutex_);
  if (!config_.enabled) return 0;
  const Duration delay = drain_locked(now);
  if (delay < config_.codel_target) return 0;  // unpressured: no hint
  // Shrink the advertised window as the delay approaches the hard bound:
  // full at target, 1 at (or beyond) the bound.
  const double span = static_cast<double>(
      std::max<Duration>(1, max_queue_delay_ - config_.codel_target));
  const double frac =
      1.0 - static_cast<double>(delay - config_.codel_target) / span;
  const auto window = static_cast<std::uint32_t>(
      static_cast<double>(config_.credit_full_window) *
      std::clamp(frac, 0.0, 1.0));
  return std::max<std::uint32_t>(1, window);
}

void AdmissionController::tighten(double factor) {
  std::lock_guard lock(mutex_);
  const auto scaled =
      static_cast<Duration>(static_cast<double>(max_queue_delay_) * factor);
  max_queue_delay_ = std::clamp(scaled, config_.min_queue_delay,
                                config_.max_queue_delay);
  bound_gauge_->set(static_cast<double>(max_queue_delay_));
}

Duration AdmissionController::max_queue_delay() const {
  std::lock_guard lock(mutex_);
  return max_queue_delay_;
}

void AdmissionController::record_service_time(const std::string& op_key,
                                              std::uint64_t service_us) {
  std::lock_guard lock(mutex_);
  OpCost& c = op_costs_[op_key];
  if (c.samples == 0)
    c.ewma_us = static_cast<double>(service_us);
  else
    c.ewma_us += config_.learned_cost_alpha *
                 (static_cast<double>(service_us) - c.ewma_us);
  ++c.samples;
}

Duration AdmissionController::learned_cost(const std::string& op_key) const {
  std::lock_guard lock(mutex_);
  auto it = op_costs_.find(op_key);
  if (it == op_costs_.end() ||
      it->second.samples < config_.learned_cost_min_samples)
    return 0;  // not warmed: caller falls back to the static default
  return static_cast<Duration>(it->second.ewma_us);
}

bool AdmissionController::enabled() const {
  std::lock_guard lock(mutex_);
  return config_.enabled;
}

void AdmissionController::configure(AdmissionConfig config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  max_queue_delay_ = config.max_queue_delay;
  op_costs_.clear();
  backlog_us_ = 0;
  first_above_ = 0;
  dropping_ = false;
  drop_count_ = 0;
  drop_next_ = 0;
  bound_gauge_->set(static_cast<double>(max_queue_delay_));
}

AdmissionConfig AdmissionController::config() const {
  std::lock_guard lock(mutex_);
  return config_;
}

}  // namespace clc::core
