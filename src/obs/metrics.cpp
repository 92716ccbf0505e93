#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace clc::obs {

// --------------------------------------------------------------------- Gauge

std::uint64_t Gauge::pack(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double Gauge::unpack(std::uint64_t bits) noexcept {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// ----------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::observe(std::uint64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  const auto v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

std::uint64_t Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
  const auto n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      // Midpoint of the bucket's range; the overflow bucket reports the
      // observed max (its upper edge is unbounded).
      if (i >= bounds_.size()) return static_cast<double>(max());
      const std::uint64_t hi = bounds_[i];
      const std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1];
      return static_cast<double>(lo + hi) / 2.0;
    }
  }
  return static_cast<double>(max());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> default_latency_buckets_us() {
  return {1,     2,     5,      10,     20,     50,      100,     200,
          500,   1000,  2000,   5000,   10000,  20000,   50000,   100000,
          200000, 500000, 1000000, 2000000, 5000000, 10000000};
}

// ----------------------------------------------------------- MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot)
    slot = std::make_unique<Histogram>(
        bounds.empty() ? default_latency_buckets_us() : std::move(bounds));
  return *slot;
}

void MetricsRegistry::reset(std::string_view prefix) {
  std::lock_guard lock(mutex_);
  const auto matches = [&prefix](const std::string& name) {
    return prefix.empty() ||
           std::string_view(name).substr(0, prefix.size()) == prefix;
  };
  for (auto& [name, c] : counters_)
    if (matches(name)) c->reset();
  for (auto& [name, g] : gauges_)
    if (matches(name)) g->reset();
  for (auto& [name, h] : histograms_)
    if (matches(name)) h->reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << g->value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << h->count()
        << ",\"sum\":" << h->sum() << ",\"min\":" << h->min()
        << ",\"max\":" << h->max() << ",\"mean\":" << h->mean()
        << ",\"p50\":" << h->quantile(0.5) << ",\"p99\":" << h->quantile(0.99)
        << ",\"p999\":" << h->quantile(0.999) << ",\"buckets\":[";
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i != 0) out << ",";
      out << "{\"le\":";
      if (i < bounds.size())
        out << bounds[i];
      else
        out << "\"inf\"";
      out << ",\"count\":" << counts[i] << "}";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace clc::obs
