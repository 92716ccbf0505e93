// Shared pieces of the perfbench program: clock, latency windows, allocation
// counting, span tracing, metric output and the workload interface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

inline Ns now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ allocations

/// Totals of `operator new` calls made by any thread while counting is on.
struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
void alloc_count_begin() noexcept;
AllocTotals alloc_count_end() noexcept;

// -------------------------------------------------------------- placement

/// Threads run pinned to one CPU each, by slot: slot s of round r runs on
/// allowed CPU (s + r) mod n. Threads inherit their creator's affinity, so
/// a thread pins itself before it spawns others. A fixed placement keeps
/// one world's figures from depending on where the scheduler drops its
/// threads; rotating it every round samples every CPU of a shared host
/// equally in every run, instead of whichever one a run happened to land
/// on. No-op with fewer than two CPUs.
void set_placement_round(unsigned round);
void pin_thread(std::size_t slot);

// ------------------------------------------------------------- host speed

// On a shared host, neighbours slow the same code by up to 1.8x, switching
// on and off within milliseconds and for stretches of seconds to minutes.
// A host probe times fixed reference work with the shape of a workload's
// world that shares no code with the program; its time over its nominal
// time is the host's *slowness*, and rounds' timings are divided by it.

/// The shape of a workload's world, which picks its host probe.
enum class Shape {
  one_thread,    // everything on the calling thread (slot 0)
  tcp_pipeline,  // issuer, client reader, server reader, two workers
};

/// Probe times on a quiet 4-vCPU Intel Xeon (Sapphire Rapids) KVM guest.
constexpr double kCpuNominalNs = 100000;
constexpr double kEchoNominalNs = 10000;

/// A round's slowness. Host contention comes and goes within milliseconds
/// and ops fall into a fast and a slow mode with it, so the p99 (an op in
/// the slow mode) is scaled by an upper percentile of the probe samples,
/// and everything else (rates, p50, CPU time, set-up time) by their median.
struct Slowness {
  double typical = 1;
  double tail = 1;
};

/// One sample for a one-thread world, on the calling thread: ordered-map and
/// string work (small allocations, string compares, pointer chasing).
double cpu_slowness_sample();
/// For a TCP world: a loopback TCP echo with the world's threads, slots,
/// depth and pool. Leaves the calling thread on slot 0.
double echo_slowness();

// ---------------------------------------------------------------- metrics

/// Ordered name -> (value, unit) list, printed as the result JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ------------------------------------------------------- latency windows

/// Keeps, per timed run (one window each), the throughput and the p50/p99
/// of the ops completed in it. Throughput and p50 are reported as the mean
/// over windows with the lowest and highest tenth dropped. p99 is reported
/// as the lower quartile over windows, i.e. the best-quartile window's p99,
/// not a pooled tail: on a shared host, stalls of a few milliseconds hit
/// about one op in a hundred, so a window's p99 mostly says whether the
/// host stalled in it, and only the windows without stalls show the
/// program's own tail. Samples are exact (no histogram buckets); one
/// window's worth is held at a time.
class LatencyWindows {
 public:
  void record(Ns done, Ns latency);
  /// Close the last window (dropped when shorter than half a window).
  void finish(Ns end);

  /// Open the window [start, end); windows of earlier calls (earlier
  /// rounds) are kept.
  void restart(Ns start, Ns end);

  [[nodiscard]] double ops_per_s() const { return trimmed_mean(rates_); }
  [[nodiscard]] double p50_us() const { return trimmed_mean(p50s_) / 1e3; }
  [[nodiscard]] double p99_us() const { return quantile(p99s_, 0.25) / 1e3; }
  /// Rescale the windows closed since `m` to nominal host speed.
  struct Mark {
    std::size_t rates, p50s, p99s;
  };
  [[nodiscard]] Mark mark() const {
    return Mark{rates_.size(), p50s_.size(), p99s_.size()};
  }
  void scale_since(const Mark& m, const Slowness& s);
  [[nodiscard]] std::uint64_t samples() const noexcept { return total_; }
  [[nodiscard]] int windows() const noexcept {
    return static_cast<int>(rates_.size());
  }

  static double median(std::vector<double> v);
  /// Mean without the lowest and highest tenth of the values.
  static double trimmed_mean(std::vector<double> v);
  /// Nearest-rank quantile `q` (0..1].
  static double quantile(std::vector<double> v, double q);

 private:
  void close(Ns end);

  Ns window_start_ = 0;
  Ns window_end_ = 0;
  Ns window_ns_ = 1;
  std::vector<Ns> current_;
  std::vector<double> rates_, p50s_, p99s_;
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------- tracing

/// True while a traced phase runs; code on server threads and inside
/// servants checks it before taking timestamps.
extern std::atomic<bool> g_tracing;

/// One timed interval. `parent == 0` marks a span whose parent is the
/// trace's root "op" span. A replayed span re-times a public function on
/// the op's own inputs after the traced phase ended; it counts as covering
/// its parent when self time is computed.
struct Span {
  std::uint64_t trace = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  Ns start = 0;
  Ns end = 0;
  bool replayed = false;
};

/// In-memory span store (thread-safe), written out once at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  [[nodiscard]] std::uint32_t new_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& s);
  /// Time `fn` as a replayed child span of `parent`.
  template <typename Fn>
  void replay(std::uint64_t trace, std::uint32_t parent, const char* name,
              Fn&& fn) {
    const Ns t0 = now_ns();
    fn();
    const Ns t1 = now_ns();
    record(Span{trace, new_id(), parent, name, t0, t1, true});
  }

  /// Per-op total of the spans called `name`, median over traced ops that
  /// have at least one such span (0 when none has).
  [[nodiscard]] double per_op_median_ns(const std::string& name) const;
  /// Median over traced ops of: root duration - sum of the named spans.
  [[nodiscard]] double per_op_median_remainder_ns(
      const std::vector<std::string>& minus) const;
  [[nodiscard]] std::size_t traces() const;

  /// Compute self times and write the trace file (spans of the first
  /// `max_traces` ops plus a per-name summary over all of them).
  bool write(const std::string& path, const std::string& header_json,
             std::size_t max_traces) const;

 private:
  /// Spans sorted by trace id, grouped: [begin, end) index ranges.
  std::vector<std::pair<std::size_t, std::size_t>> groups(
      std::vector<Span>& sorted) const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // under mutex_
  std::size_t capacity_;
  std::atomic<std::uint32_t> next_id_{1};
};

// -------------------------------------------------------------- workloads

/// Outcome counts of a batch of ops. Every op is checked; a wrong result,
/// an error or a refusal counts as failed and is never dropped.
struct OpTally {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;  // useful argument + result bytes
  std::string first_failure;

  void fail(std::string why) {
    ++failed;
    if (first_failure.empty()) first_failure = std::move(why);
  }
  void add(const OpTally& o) {
    ok += o.ok;
    failed += o.failed;
    payload_bytes += o.payload_bytes;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

/// What one call of Workload::run does.
struct RunSpec {
  Ns until = 0;                     // stop issuing at this time (0 = never)
  std::uint64_t max_ops = 0;        // stop after this many ops (0 = no cap)
  std::uint64_t op_seed = 0;        // drives arguments and op order
  LatencyWindows* windows = nullptr;
  Tracer* tracer = nullptr;         // non-null in the traced phase
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the world and warm it up (timed as setup_s).
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// Run checked ops on the world set up last.
  virtual OpTally run(const RunSpec& spec) = 0;
  /// Ops in one deterministic count pass.
  [[nodiscard]] virtual std::uint64_t count_ops() const = 0;
  /// Count metrics measured by the workload itself after a count pass
  /// (frame sizes, messages); compared across passes like allocations.
  virtual void count_metrics(Metrics& out) { (void)out; }
  /// After the traced phase: run the replays of the ops it recorded. The
  /// phase itself records only real-path spans and the replays' inputs.
  virtual void finish_trace(Tracer& tracer) = 0;
  /// Per-layer metrics that need their own measurement (bare transport
  /// floor) or come from the program's counters, after the traced phase.
  virtual void layer_metrics(Metrics& out, const Tracer& tracer,
                             double seconds) {
    (void)out;
    (void)tracer;
    (void)seconds;
  }
  /// The shape of the world, which picks its host speed probe.
  [[nodiscard]] virtual Shape shape() const { return Shape::one_thread; }
  /// Run-environment fields for the header line ("depth=16 ...").
  [[nodiscard]] virtual std::string environment() const = 0;
};

std::unique_ptr<Workload> make_rpc_small_tcp(std::uint64_t seed);
std::unique_ptr<Workload> make_rpc_collocated(std::uint64_t seed);
std::unique_ptr<Workload> make_deploy_fetch(std::uint64_t seed);

}  // namespace perfbench
