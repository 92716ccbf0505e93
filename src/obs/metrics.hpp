// Unified metrics registry (observability subsystem).
//
// Every layer that used to keep an ad-hoc `Stats` struct (orb, transport,
// cohesion, sim network, resource manager) now publishes named counters,
// gauges and fixed-bucket histograms through one MetricsRegistry, so the
// benches and experiments read every number from one place and can emit it
// machine-readably (to_json).
//
// Design constraints:
//  * Global-free: each Node/Orb owns (or is handed) a registry; nothing is
//    process-wide, so 1000 simulated nodes stay independent.
//  * Lock-cheap hot path: updating a metric is a relaxed atomic op. The
//    registry mutex is only taken to register (find-or-create) a metric or
//    to snapshot; callers cache the returned reference.
//  * Values reset, registrations persist: reset() (optionally scoped to a
//    name prefix) zeroes values so steady-state measurement windows work,
//    without invalidating cached references.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace clc::obs {

/// Monotonic event count. inc/add are wait-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void add(std::uint64_t n) noexcept { inc(n); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (load, queue depth, free memory, ...).
class Gauge {
 public:
  void set(double v) noexcept { bits_.store(pack(v), std::memory_order_relaxed); }
  void add(double delta) noexcept {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, pack(unpack(cur) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return unpack(bits_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { set(0); }

 private:
  static std::uint64_t pack(double v) noexcept;
  static double unpack(std::uint64_t bits) noexcept;
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram (cumulative-free: each bucket counts its own
/// range). Bounds are inclusive upper edges, ascending; one implicit
/// overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;  // 0 when empty
  [[nodiscard]] std::uint64_t max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Estimate the q-quantile (q in [0,1]) from bucket midpoints.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Default latency buckets in microseconds: 1µs .. 10s, roughly 1-2-5.
std::vector<std::uint64_t> default_latency_buckets_us();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime; cache it on the hot path.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds = {});

  /// Zero every value whose name starts with `prefix` (all when empty).
  /// Registrations and cached references stay valid.
  void reset(std::string_view prefix = {});

  /// Machine-readable snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escape a string for embedding in a JSON document.
std::string json_escape(std::string_view s);

}  // namespace clc::obs
