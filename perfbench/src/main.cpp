// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced, then traced (spans in memory, written to
// <trace-dir>/<workload>-seed<n>.json at the end), and prints the
// per-layer metrics, the tracing overhead and count metrics that must
// repeat exactly for a seed. The last stdout line is the result JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Untraced runs measure in rounds of about this length, each on a freshly
/// set-up world, one latency window per round. Throughput, p50 and CPU per
/// op are means over the rounds with the lowest and highest tenth dropped:
/// host noise on a shared machine comes in fast and slow stretches, and a
/// median over rounds jumps between the two whenever about half the rounds
/// are slow. setup_s is the median of the rounds' set-up times.
constexpr double kRoundSeconds = 1.0;
/// One-thread workloads take a host probe sample after every slice of this
/// length (a sample costs about 2 % of it).
constexpr Ns kSliceNs = 10'000'000;
/// The probe quantile that scales a round's p99: about 100 samples a round
/// leave ten beyond it.
constexpr double kTailProbeQuantile = 0.9;
/// The traced phase stops after this many ops, so that every op's spans
/// (at most 16, replays included) fit the span store.
constexpr std::size_t kSpanCapacity = 400000;
constexpr std::uint64_t kTracedOps = kSpanCapacity / 16;
constexpr std::size_t kTracesWritten = 200;

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  // per-op total of these spans, or null
  double scale;      // ns -> unit
};

// Every per-layer metric, in output order. Span-derived ones are filled
// from the traced phase; the rest by the workload. A metric whose layer is
// not on a workload's path reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"idl.find_operation_ns", "ns", "idl.find_operation", 1},
    {"orb.marshal_ns", "ns", "orb.marshal", 1},
    {"orb.unmarshal_ns", "ns", "orb.unmarshal", 1},
    {"orb.frame_encode_ns", "ns", "orb.frame_encode", 1},
    {"orb.frame_decode_ns", "ns", "orb.frame_decode", 1},
    {"orb.issue_ns", "ns", "orb.issue", 1},
    {"orb.handle_frame_us", "us", "orb.handle_frame", 1e-3},
    {"orb.servant_ns", "ns", "orb.servant", 1},
    {"orb.allocs_per_op", "count", nullptr, 0},
    {"orb.alloc_bytes_per_op", "B", nullptr, 0},
    {"orb.request_bytes", "B", nullptr, 0},
    {"orb.reply_bytes", "B", nullptr, 0},
    {"orb.retries", "count", nullptr, 0},
    {"orb.server_shed", "count", nullptr, 0},
    {"tcp.bare_rtt_us", "us", nullptr, 0},
    {"tcp.bare_ops_per_s", "1/s", nullptr, 0},
    {"tcp.wait_us", "us", nullptr, 0},
    {"pkg.open_us", "us", "pkg.open", 1e-3},
    {"pkg.verify_us", "us", "pkg.verify", 1e-3},
    {"pkg.extract_us", "us", "pkg.extract", 1e-3},
    {"pkg.fetched_bytes", "B", nullptr, 0},
    {"xml.descriptor_parse_us", "us", "xml.descriptor_parse", 1e-3},
    {"idl.register_idl_us", "us", "idl.register_idl", 1e-3},
    {"core.query_us", "us", "core.query", 1e-3},
    {"core.fetch_us", "us", "core.fetch", 1e-3},
    {"core.acquire_us", "us", "core.acquire", 1e-3},
    {"core.first_call_us", "us", "core.first_call", 1e-3},
    {"core.msgs_per_op", "count", nullptr, 0},
    {"core.bytes_per_op", "B", nullptr, 0},
    {"trace.overhead_pct", "%", nullptr, 0},
    {"trace.ops_traced", "count", nullptr, 0},
};

/// Counts that must repeat exactly for a seed (checked across two worlds).
constexpr const char* kCountMetrics[] = {
    "orb.allocs_per_op", "orb.alloc_bytes_per_op", "orb.request_bytes",
    "orb.reply_bytes",   "core.msgs_per_op",       "core.bytes_per_op",
    "pkg.fetched_bytes"};

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed);

const std::map<std::string, Factory>& registry() {
  static const std::map<std::string, Factory> r = {
      {"rpc_small_tcp", make_rpc_small_tcp},
      {"rpc_collocated", make_rpc_collocated},
      {"deploy_fetch", make_deploy_fetch}};
  return r;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Usage {
  double cpu_us = 0;
  double peak_rss_mb = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Checked ops run for a fixed time (or op count): their tally, wall time
/// and process CPU time. Several phases (rounds) may feed one
/// LatencyWindows, one window per run() call.
struct Phase {
  OpTally tally;
  std::vector<double> cpu_us_per_op;  // one entry per run() call
  double seconds = 0;

  /// With `probes` set, the ops run in slices of kSliceNs with one host
  /// probe sample (cpu_slowness_sample) after each slice, appended there.
  void run(Workload& w, double secs, std::uint64_t max_ops,
           std::uint64_t op_seed, LatencyWindows* windows, Tracer* tracer,
           std::vector<double>* probes = nullptr) {
    const Usage u0 = usage();
    const Ns start = now_ns();
    const Ns until = start + static_cast<Ns>(secs * 1e9);
    if (windows != nullptr) windows->restart(start, until);
    RunSpec spec;
    spec.max_ops = max_ops;
    spec.windows = windows;
    spec.tracer = tracer;
    OpTally t;
    for (std::uint64_t slice = 0; slice == 0 || now_ns() < until; ++slice) {
      spec.until = probes != nullptr ? std::min(until, now_ns() + kSliceNs)
                                     : until;
      spec.op_seed = op_seed + slice * 0x9e3779b97f4a7c15ULL;
      t.add(w.run(spec));
      if (probes == nullptr) break;
      probes->push_back(cpu_slowness_sample());
    }
    const Ns end = now_ns();
    if (windows != nullptr) windows->finish(end);
    seconds += static_cast<double>(end - start) / 1e9;
    const double ops = static_cast<double>(t.ok + t.failed);
    if (ops > 0) cpu_us_per_op.push_back((usage().cpu_us - u0.cpu_us) / ops);
    tally.add(t);
  }

  [[nodiscard]] double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(tally.ok + tally.failed) / seconds
                       : 0;
  }
};

/// A fixed, seed-derived batch of ops with allocation counting on; the
/// result must not depend on timing.
Metrics count_pass(Workload& w, std::uint64_t seed, OpTally& tally) {
  RunSpec spec;
  spec.max_ops = w.count_ops();
  spec.op_seed = seed ^ 0xc0417ULL;
  alloc_count_begin();
  const OpTally t = w.run(spec);
  const AllocTotals a = alloc_count_end();
  tally.add(t);
  const double ops = static_cast<double>(spec.max_ops);
  Metrics m;
  m.set("orb.allocs_per_op", static_cast<double>(a.allocs) / ops, "count");
  m.set("orb.alloc_bytes_per_op", static_cast<double>(a.bytes) / ops, "B");
  w.count_metrics(m);
  return m;
}

int usage_error(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\nworkloads:",
               why);
  for (const auto& [name, make] : registry())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  std::string trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage_error(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload")
      opt.workload = v;
    else if (arg == "--seed")
      opt.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds")
      opt.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace")
      opt.trace = std::strcmp(v, "0") != 0;
    else if (arg == "--trace-dir")
      trace_dir = v;
    else
      return usage_error(("unknown option " + arg).c_str());
  }
  const auto it = registry().find(opt.workload);
  if (it == registry().end()) return usage_error("unknown workload");
  if (!(opt.seconds > 0)) return usage_error("--seconds must be positive");

  auto w = it->second(opt.seed);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "build=%s %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_BUILD_TYPE, w->environment().c_str());

  OpTally tally;
  Metrics out;
  bool correct = true;
  if (!opt.trace) {
    // Each round builds a fresh world (new threads, new connection) under
    // the next CPU rotation, so host noise on one CPU or in one stretch of
    // time moves a few rounds, not the whole run.
    // Every round's timings are also rescaled to the nominal host speed by
    // the host slowness the round's probes saw (bench.hpp). A one-thread
    // world is probed after every slice of its run, on its own thread, so
    // the samples see the same mix of fast and slow stretches as the ops.
    // A TCP world is probed on its CPUs just before it is built and just
    // after it is torn down, so no thread of the program runs beside the
    // probe.
    std::vector<double> setups, slowness;
    Phase p;
    LatencyWindows windows;
    const bool sliced = w->shape() == Shape::one_thread;
    const int rounds =
        std::max(1, static_cast<int>(std::lround(opt.seconds / kRoundSeconds)));
    for (int r = 0; r < rounds; ++r) {
      set_placement_round(static_cast<unsigned>(r));
      const double before = sliced ? 0 : echo_slowness();
      pin_thread(0);
      const Ns t0 = now_ns();
      w->setup();
      const double setup = static_cast<double>(now_ns() - t0) / 1e9;
      const LatencyWindows::Mark m = windows.mark();
      std::vector<double> probes;
      p.run(*w, opt.seconds / rounds, 0, opt.seed * 1000 + r, &windows,
            nullptr, sliced ? &probes : nullptr);
      w->teardown();
      Slowness s;
      if (sliced) {
        s.typical = LatencyWindows::median(probes);
        s.tail = LatencyWindows::quantile(probes, kTailProbeQuantile);
      } else {
        s.typical = s.tail = (before + echo_slowness()) / 2;
      }
      windows.scale_since(m, s);
      slowness.push_back(s.typical);
      setups.push_back(setup / s.typical);
      p.cpu_us_per_op.back() /= s.typical;
    }
    tally.add(p.tally);
    const double attempted = static_cast<double>(
        std::max<std::uint64_t>(1, p.tally.ok + p.tally.failed));
    out.set("setup_s", LatencyWindows::median(setups), "s");
    out.set("ops_per_s", windows.ops_per_s(), "1/s");
    out.set("latency_p50_us", windows.p50_us(), "us");
    out.set("latency_p99_us", windows.p99_us(), "us");
    // Useful bytes per correct op (fixed per workload, or a seeded mix)
    // at the reported rate.
    const double ok = static_cast<double>(std::max<std::uint64_t>(1, p.tally.ok));
    out.set("payload_mb_per_s",
            windows.ops_per_s() * static_cast<double>(p.tally.payload_bytes) /
                ok / 1e6,
            "MB/s");
    out.set("cpu_us_per_op", LatencyWindows::trimmed_mean(p.cpu_us_per_op), "us");
    out.set("ops_ok_ratio", static_cast<double>(p.tally.ok) / attempted,
            "ratio");
    out.set("peak_rss_mb", usage().peak_rss_mb, "MB");
    std::printf("# ops=%llu latency samples=%llu rounds=%d windows=%d\n",
                static_cast<unsigned long long>(p.tally.ok + p.tally.failed),
                static_cast<unsigned long long>(windows.samples()), rounds,
                windows.windows());
    std::sort(slowness.begin(), slowness.end());
    std::printf("# host slowness (probe time / nominal) over rounds: min %.3f "
                "median %.3f max %.3f; unscaled ops/s over the run %.1f\n",
                slowness.front(),
                LatencyWindows::median(slowness), slowness.back(),
                p.ops_per_s());
  } else {
    // Count passes run on the first two freshly built worlds and must
    // agree exactly; the third world carries the timed phases.
    std::vector<Metrics> counts;
    set_placement_round(0);
    pin_thread(0);
    for (int i = 0; i < 3; ++i) {
      w->setup();
      if (i < 2) {
        counts.push_back(count_pass(*w, opt.seed, tally));
        w->teardown();
      }
    }
    for (const auto& m : kLayerMetrics) out.set(m.name, 0, m.unit);
    for (const auto& name : kCountMetrics) {
      const double a = counts[0].get(name), b = counts[1].get(name);
      if (a != b) {
        std::fprintf(stderr,
                     "perfbench: count metric %s differs: %.17g vs %.17g\n",
                     name, a, b);
        correct = false;
      }
      for (const auto& m : kLayerMetrics)
        if (std::strcmp(name, m.name) == 0) out.set(name, a, m.unit);
    }
    Phase plain, traced;
    plain.run(*w, opt.seconds * 0.4, 0, opt.seed, nullptr, nullptr);
    Tracer tracer(kSpanCapacity);
    traced.run(*w, opt.seconds * 0.4, kTracedOps, opt.seed ^ 0x7ace, nullptr,
               &tracer);
    w->finish_trace(tracer);
    tally.add(plain.tally);
    tally.add(traced.tally);
    for (const auto& m : kLayerMetrics)
      if (m.span != nullptr)
        out.set(m.name, tracer.per_op_median_ns(m.span) * m.scale, m.unit);
    w->layer_metrics(out, tracer, opt.seconds * 0.2);
    const double overhead =
        traced.ops_per_s() > 0
            ? (plain.ops_per_s() / traced.ops_per_s() - 1) * 100
            : 0;
    out.set("trace.overhead_pct", overhead, "%");
    out.set("trace.ops_traced", static_cast<double>(tracer.traces()), "count");
    std::printf("# untraced: %.1f ops/s over %.2f s; traced: %.1f ops/s over "
                "%.2f s; tracing overhead %.1f%%\n",
                plain.ops_per_s(), plain.seconds, traced.ops_per_s(),
                traced.seconds, overhead);
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    const std::string header =
        "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"environment\": \"" +
        w->environment() + "\"}";
    if (tracer.write(path, header, kTracesWritten))
      std::printf("# trace written to %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    w->teardown();
  }

  if (tally.failed != 0) {
    correct = false;
    std::fprintf(stderr, "perfbench: %llu of %llu ops failed; first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.ok + tally.failed),
                 tally.first_failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.ok + tally.failed),
              static_cast<unsigned long long>(tally.failed),
              out.to_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
