// Metric output, latency windows and the span store.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "bench.hpp"

namespace perfbench {

std::atomic<bool> g_tracing{false};

namespace {
constexpr const char* kRootName = "op";

bool is_root(const Span& s) {
  return s.parent == 0 && std::strcmp(s.name, kRootName) == 0;
}

/// Nearest-rank percentile of an unsorted sample (reorders it).
Ns percentile(std::vector<Ns>& v, double q) {
  const auto n = v.size();
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}
}  // namespace

// ---------------------------------------------------------------- Metrics

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return e.value;
  return 0;
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i != 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

// --------------------------------------------------------- LatencyWindows

void LatencyWindows::restart(Ns start, Ns end) {
  current_.clear();
  window_start_ = start;
  window_ns_ = std::max<Ns>(1, end - start);
  window_end_ = start + window_ns_;
}

void LatencyWindows::record(Ns done, Ns latency) {
  while (done >= window_end_) close(window_end_);
  current_.push_back(latency);
  ++total_;
}

void LatencyWindows::close(Ns end) {
  const double secs = static_cast<double>(end - window_start_) / 1e9;
  rates_.push_back(static_cast<double>(current_.size()) / secs);
  if (!current_.empty()) {
    p50s_.push_back(static_cast<double>(percentile(current_, 0.50)));
    p99s_.push_back(static_cast<double>(percentile(current_, 0.99)));
  }
  current_.clear();
  window_start_ = end;
  window_end_ = end + window_ns_;
}

void LatencyWindows::finish(Ns end) {
  if (!current_.empty() && end - window_start_ >= window_ns_ / 2) close(end);
  current_.clear();
}

void LatencyWindows::scale_since(const Mark& m, const Slowness& s) {
  for (std::size_t i = m.rates; i < rates_.size(); ++i) rates_[i] *= s.typical;
  for (std::size_t i = m.p50s; i < p50s_.size(); ++i) p50s_[i] /= s.typical;
  for (std::size_t i = m.p99s; i < p99s_.size(); ++i) p99s_[i] /= s.tail;
}

double LatencyWindows::trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double LatencyWindows::quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

double LatencyWindows::median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ----------------------------------------------------------------- Tracer

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void Tracer::record(const Span& s) {
  std::lock_guard lock(mutex_);
  if (spans_.size() < capacity_) spans_.push_back(s);
}

std::vector<std::pair<std::size_t, std::size_t>> Tracer::groups(
    std::vector<Span>& sorted) const {
  {
    std::lock_guard lock(mutex_);
    sorted = spans_;
  }
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
  });
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].trace == sorted[i].trace) ++j;
    // Only complete ops: the root span is recorded last.
    bool has_root = false;
    for (std::size_t k = i; k < j; ++k) has_root |= is_root(sorted[k]);
    if (has_root) out.emplace_back(i, j);
    i = j;
  }
  return out;
}

std::size_t Tracer::traces() const {
  std::vector<Span> sorted;
  return groups(sorted).size();
}

double Tracer::per_op_median_ns(const std::string& name) const {
  std::vector<Span> sorted;
  std::vector<double> totals;
  for (auto [b, e] : groups(sorted)) {
    double sum = 0;
    bool seen = false;
    for (std::size_t k = b; k < e; ++k) {
      if (name == sorted[k].name) {
        sum += static_cast<double>(sorted[k].end - sorted[k].start);
        seen = true;
      }
    }
    if (seen) totals.push_back(sum);
  }
  return LatencyWindows::median(std::move(totals));
}

double Tracer::per_op_median_remainder_ns(
    const std::vector<std::string>& minus) const {
  std::vector<Span> sorted;
  std::vector<double> rest;
  for (auto [b, e] : groups(sorted)) {
    double r = 0;
    for (std::size_t k = b; k < e; ++k) {
      const Span& s = sorted[k];
      const double d = static_cast<double>(s.end - s.start);
      if (is_root(s))
        r += d;
      else if (std::find(minus.begin(), minus.end(), s.name) != minus.end())
        r -= d;
    }
    rest.push_back(r);
  }
  return LatencyWindows::median(std::move(rest));
}

bool Tracer::write(const std::string& path, const std::string& header_json,
                   std::size_t max_traces) const {
  std::vector<Span> sorted;
  const auto gs = groups(sorted);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  struct Summary {
    std::uint64_t spans = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, Summary> summary;
  std::fprintf(f, "{\"header\": %s,\n \"traces\": [", header_json.c_str());
  for (std::size_t g = 0; g < gs.size(); ++g) {
    const auto [b, e] = gs[g];
    const bool emit = g < max_traces;
    std::uint32_t root_id = 0;
    Ns base = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (is_root(sorted[k])) {
        root_id = sorted[k].id;
        base = sorted[k].start;
      }
    }
    if (emit)
      std::fprintf(f, "%s\n  {\"trace\": %llu, \"spans\": [",
                   g == 0 ? "" : ",",
                   static_cast<unsigned long long>(sorted[b].trace));
    bool first = true;
    for (std::size_t k = b; k < e; ++k) {
      const Span& s = sorted[k];
      const std::uint32_t parent = is_root(s)        ? 0
                                   : s.parent == 0   ? root_id
                                                     : s.parent;
      // Self time: duration minus what children cover. Real children
      // cover the union of their intervals inside this span; replayed
      // children ran after the phase and cover their whole duration.
      std::vector<std::pair<Ns, Ns>> real;
      Ns replayed = 0;
      for (std::size_t c = b; c < e; ++c) {
        const Span& ch = sorted[c];
        if (c == k || is_root(ch)) continue;
        const std::uint32_t ch_parent = ch.parent == 0 ? root_id : ch.parent;
        if (ch_parent != s.id) continue;
        if (ch.replayed)
          replayed += ch.end - ch.start;
        else
          real.emplace_back(std::max(ch.start, s.start),
                            std::min(ch.end, s.end));
      }
      std::sort(real.begin(), real.end());
      Ns covered = replayed, reach = s.start;
      for (auto [lo, hi] : real) {
        lo = std::max(lo, reach);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      const Ns dur = s.end - s.start;
      const Ns self = std::max<Ns>(0, dur - covered);
      auto& sum = summary[s.name];
      ++sum.spans;
      sum.total_ns += static_cast<double>(dur);
      sum.self_ns += static_cast<double>(self);
      if (emit) {
        std::fprintf(f,
                     "%s\n    {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                     "\"start_ns\": %lld, \"dur_ns\": %lld, \"self_ns\": %lld, "
                     "\"replayed\": %s}",
                     first ? "" : ",", s.id, parent, s.name,
                     static_cast<long long>(s.start - base),
                     static_cast<long long>(dur), static_cast<long long>(self),
                     s.replayed ? "true" : "false");
        first = false;
      }
    }
    if (emit) std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n ],\n \"summary\": {");
  const double ops = static_cast<double>(std::max<std::size_t>(1, gs.size()));
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"spans\": %llu, \"ns_per_op\": %.1f, "
                 "\"self_ns_per_op\": %.1f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.spans), s.total_ns / ops,
                 s.self_ns / ops);
    first = false;
  }
  std::fprintf(f, "\n },\n \"ops_traced\": %zu}\n", gs.size());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
