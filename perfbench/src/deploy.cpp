// deploy_fetch: run-time fetch-and-deploy on an in-process LocalNetwork of
// 2 provider nodes and 4 consumer nodes. Providers hold a fixed set of 64
// generated, signed packages. One op is one consumer doing
//
//   1. resolve(name, {}, Binding::fetch_local): distributed query,
//      fetch_package, Package open/verify/LZSS extract, IDL registration and
//      instance creation;
//   2. one checked add call on the new instance;
//   3. release: destroy the instance (find_active + destroy) and remove the
//      package again, so the next deploy of it on that node fetches anew.
//
// The package count stays fixed because throughput depends on it (the
// registry and repository tables grow with it).
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/node.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace clc;

constexpr std::size_t kProviders = 2;
constexpr std::size_t kConsumers = 4;
constexpr std::size_t kPackages = 64;
constexpr std::size_t kImageBytes = 16 * 1024;
constexpr const char* kVendor = "perfbench";
constexpr const char* kEntrySymbol = "perfbench_create_calculator";
constexpr std::int64_t kOperandLimit = std::int64_t{1} << 30;

Bytes vendor_key() { return bytes_of("perfbench-vendor-key"); }

/// A calculator whose interface name comes from its package, so every
/// package carries its own IDL module.
class CalculatorInstance final : public core::ComponentInstance {
 public:
  Result<void> initialize(core::InstanceContext& ctx) override {
    auto servant = std::make_shared<orb::DynamicServant>(
        ctx.description().factory_interface);
    servant->on("add", [](orb::ServerRequest& req) -> Result<void> {
      const auto* a = req.arg(0).get_if<std::int32_t>();
      const auto* b = req.arg(1).get_if<std::int32_t>();
      if (a == nullptr || b == nullptr)
        return Error{Errc::invalid_argument, "add expects two longs"};
      req.set_result(orb::Value(static_cast<std::int32_t>(*a + *b)));
      return {};
    });
    auto port = ctx.provide_port("calc", std::move(servant));
    if (!port) return port.error();
    return {};
  }
};

struct PackageSpec {
  std::string name;
  Version version;
  std::string module;
  std::size_t provider = 0;
  Bytes bytes;  // filled by setup
};

/// A binary image that LZSS can compress about 2-3x: tokens drawn from a
/// small seeded vocabulary.
Bytes make_image(Rng& rng) {
  std::uint64_t vocabulary[32];
  for (auto& word : vocabulary) word = rng.next_u64();
  Bytes image;
  image.reserve(kImageBytes);
  while (image.size() < kImageBytes) {
    const std::uint64_t w = vocabulary[rng.next_below(32)];
    for (int i = 0; i < 8 && image.size() < kImageBytes; ++i)
      image.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  return image;
}

Bytes build_package(const PackageSpec& spec, Rng& rng) {
  pkg::ComponentDescription d;
  d.name = spec.name;
  d.version = spec.version;
  d.summary = "perfbench calculator";
  d.mobile = true;
  d.stateless = true;
  d.security.vendor = kVendor;
  d.factory_interface = spec.module + "::Calc";
  d.ports = {{pkg::PortKind::provides, "calc", d.factory_interface}};
  pkg::PackageBuilder b(d);
  b.set_idl("module " + spec.module +
            " { interface Calc { long add(in long a, in long b); }; };");
  for (const char* arch : {"x86_64", "arm"}) {
    pkg::BinaryImpl bin;
    bin.arch = arch;
    bin.os = "linux";
    bin.orb = "clc";
    bin.entry_symbol = kEntrySymbol;
    bin.image = make_image(rng);
    b.add_binary(std::move(bin));
  }
  return b.build(vendor_key()).value();
}

class DeployWorkload final : public Workload {
 public:
  explicit DeployWorkload(std::uint64_t seed) : seed_(seed) {
    (void)core::ExecutorRegistry::global().register_symbol(
        kEntrySymbol, [] { return std::make_unique<CalculatorInstance>(); });
    Rng rng(seed ^ 0xde9104ULL);
    char tag[16];
    std::snprintf(tag, sizeof tag, "%06llx",
                  static_cast<unsigned long long>(rng.next_u64() & 0xffffff));
    for (std::size_t i = 0; i < kPackages; ++i) {
      PackageSpec p;
      p.name = std::string("pb") + tag + ".calc" + std::to_string(i);
      p.module = std::string("pb") + tag + "_" + std::to_string(i);
      p.version = Version{1, static_cast<std::uint32_t>(rng.next_below(4)),
                          static_cast<std::uint32_t>(rng.next_below(10))};
      p.provider = rng.next_below(kProviders);
      packages_.push_back(std::move(p));
    }
  }
  ~DeployWorkload() override { teardown(); }

  void setup() override {
    Rng rng(seed_ ^ 0x1a6e5ULL);
    for (auto& p : packages_) p.bytes = build_package(p, rng);
    net_ = std::make_unique<core::LocalNetwork>();
    providers_.clear();
    consumers_.clear();
    for (std::size_t i = 0; i < kProviders; ++i)
      providers_.push_back(&net_->add_node());
    for (std::size_t i = 0; i < kConsumers; ++i) {
      core::Node& n = net_->add_node();
      n.repository().trust_vendor(kVendor, vendor_key());
      consumers_.push_back(&n);
    }
    net_->settle();
    for (const auto& p : packages_)
      providers_[p.provider]->install(p.bytes).value();
    net_->settle();  // heartbeats carry the registry digests to the MRMs
    RunSpec warm;
    warm.max_ops = kPackages;
    warm.op_seed = 0x3a3a;
    const OpTally t = run(warm);
    if (t.failed != 0)
      throw std::runtime_error("warm-up failed: " + t.first_failure);
  }

  void teardown() override {
    providers_.clear();
    consumers_.clear();
    net_.reset();
  }

  OpTally run(const RunSpec& spec) override {
    g_tracing.store(spec.tracer != nullptr, std::memory_order_release);
    OpTally tally;
    Rng rng(spec.op_seed);
    const auto before = net_->transport().stats();
    std::uint64_t ops = 0, fetched = 0;
    for (; (spec.max_ops == 0 || ops < spec.max_ops) &&
           (spec.until == 0 || now_ns() < spec.until);
         ++ops) {
      core::Node& consumer = *consumers_[rng.next_below(kConsumers)];
      const PackageSpec& p = packages_[rng.next_below(kPackages)];
      const auto a =
          static_cast<std::int32_t>(rng.next_in(-kOperandLimit, kOperandLimit));
      const auto b =
          static_cast<std::int32_t>(rng.next_in(-kOperandLimit, kOperandLimit));
      const Ns t0 = now_ns();
      Ns resolved_at = 0;
      std::string failure = deploy_and_call(consumer, p, a, b, resolved_at);
      const Ns t1 = now_ns();
      failure += release(consumer, p);
      const Ns t2 = now_ns();
      if (failure.empty()) {
        ++tally.ok;
        fetched += p.bytes.size();
        tally.payload_bytes += p.bytes.size() + 3 * sizeof(std::int32_t);
        if (spec.windows) spec.windows->record(t2, t2 - t0);
      } else {
        tally.fail(p.name + " on node " + consumer.id().to_string() + ": " +
                   failure);
      }
      if (spec.tracer != nullptr)
        trace_op(*spec.tracer, TracedOp{ops, &consumer, &p, 0},
                 {t0, resolved_at, t1, t2});
    }
    const auto after = net_->transport().stats();
    last_ = Pass{ops, after.messages - before.messages,
                 after.bytes - before.bytes, fetched};
    g_tracing.store(false, std::memory_order_release);
    return tally;
  }

  [[nodiscard]] std::uint64_t count_ops() const override { return 256; }

  void count_metrics(Metrics& out) override {
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, last_.ops));
    out.set("core.msgs_per_op", static_cast<double>(last_.msgs) / ops, "count");
    out.set("core.bytes_per_op", static_cast<double>(last_.bytes) / ops, "B");
    out.set("pkg.fetched_bytes", static_cast<double>(last_.fetched) / ops, "B");
  }

  /// The layers resolve runs internally, replayed through their public
  /// functions on each traced op's package and node.
  void finish_trace(Tracer& tr) override {
    for (const TracedOp& op : traced_) replay_op(tr, op);
    traced_.clear();
  }

  [[nodiscard]] std::string environment() const override {
    return "nodes=" + std::to_string(kProviders) + " providers + " +
           std::to_string(kConsumers) + " consumers packages=" +
           std::to_string(kPackages) +
           " transport=in-process LocalNetwork loopback (no sockets)";
  }

 private:
  struct Pass {
    std::uint64_t ops = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fetched = 0;
  };
  /// Boundaries of one op: start, resolve done, first call done, released.
  struct OpTimes {
    Ns start, resolved, called, released;
  };
  /// What the traced phase keeps of one op for its replays.
  struct TracedOp {
    std::uint64_t trace;
    core::Node* consumer;
    const PackageSpec* package;
    std::uint32_t resolve_id;
  };

  /// Steps 1 and 2; returns "" on success, else what went wrong.
  std::string deploy_and_call(core::Node& consumer, const PackageSpec& p,
                              std::int32_t a, std::int32_t b,
                              Ns& resolved_at) {
    auto bound = consumer.resolve(p.name, VersionConstraint{},
                                  core::Binding::fetch_local);
    resolved_at = now_ns();
    if (!bound) return "resolve failed: " + bound.error().message;
    if (!bound->fetched || bound->host != consumer.id())
      return "resolve did not fetch the package to the consumer";
    auto out = consumer.orb()
                   .invoke_async(bound->primary, "add",
                                 {orb::Value(a), orb::Value(b)})
                   .take();
    if (!out) return "add failed: " + out.error().message;
    const auto* sum = out->result.get_if<std::int32_t>();
    if (out->exception.has_value() || sum == nullptr || *sum != a + b)
      return "add returned a wrong result";
    return {};
  }

  /// Step 3. Always removes the package so a failed op leaves no residue.
  static std::string release(core::Node& consumer, const PackageSpec& p) {
    std::string failure;
    auto id = consumer.container().find_active(p.name, VersionConstraint{});
    if (!id)
      failure = "no active instance to release";
    else if (auto r = consumer.container().destroy(*id); !r.ok())
      failure = "destroy failed: " + r.error().message;
    (void)consumer.repository().remove(p.name, p.version);
    return failure;
  }

  /// Real spans from the op's own boundaries; its replays wait for
  /// finish_trace.
  void trace_op(Tracer& tr, TracedOp op, const OpTimes& t) {
    const std::uint64_t trace = op.trace;
    op.resolve_id = tr.new_id();
    tr.record(Span{trace, op.resolve_id, 0, "core.resolve", t.start,
                   t.resolved, false});
    tr.record(Span{trace, tr.new_id(), 0, "core.first_call", t.resolved,
                   t.called, false});
    tr.record(Span{trace, tr.new_id(), 0, "core.release", t.called,
                   t.released, false});
    tr.record(Span{trace, tr.new_id(), 0, "op", t.start, t.released, false});
    traced_.push_back(op);
  }

  void replay_op(Tracer& tr, const TracedOp& op) {
    const std::uint64_t trace = op.trace;
    const std::uint32_t resolve_id = op.resolve_id;
    core::Node& consumer = *op.consumer;
    const PackageSpec& p = *op.package;
    core::ComponentQuery q;
    q.name_pattern = p.name;
    q.require_mobile = true;
    NodeId from = providers_[p.provider]->id();
    tr.replay(trace, resolve_id, "core.query", [&] {
      auto hits = consumer.query_network(q);
      if (hits && !hits->empty()) from = hits->front().node;
    });
    const std::uint32_t fetch_id = tr.new_id();
    const Ns f0 = now_ns();
    auto fetched = consumer.fetch_component(from, p.name, p.version);
    const Ns f1 = now_ns();
    tr.record(Span{trace, fetch_id, resolve_id, "core.fetch", f0, f1, true});
    if (fetched.ok())
      tr.replay(trace, resolve_id, "core.acquire", [&] {
        (void)consumer.acquire_local(p.name, VersionConstraint{});
      });
    (void)release(consumer, p);

    // What install does inside fetch, on the same package bytes.
    Bytes copy = p.bytes;
    std::optional<pkg::Package> package;
    const std::uint32_t open_id = tr.new_id();
    const Ns o0 = now_ns();
    auto opened = pkg::Package::open(std::move(copy));
    const Ns o1 = now_ns();
    tr.record(Span{trace, open_id, fetch_id, "pkg.open", o0, o1, true});
    if (!opened) return;
    package = std::move(*opened);
    const std::string descriptor = package->description().to_xml();
    tr.replay(trace, open_id, "xml.descriptor_parse", [&] {
      (void)pkg::ComponentDescription::from_xml(descriptor);
    });
    tr.replay(trace, fetch_id, "pkg.verify",
              [&] { (void)package->verify(vendor_key()); });
    tr.replay(trace, fetch_id, "pkg.extract", [&] {
      (void)package->binary_for("x86_64", "linux", "clc");
    });
    idl::InterfaceRepository fresh;
    tr.replay(trace, fetch_id, "idl.register_idl",
              [&] { (void)fresh.register_idl(package->idl()); });
  }

  std::uint64_t seed_;
  std::vector<PackageSpec> packages_;
  std::unique_ptr<core::LocalNetwork> net_;
  std::vector<core::Node*> providers_;
  std::vector<core::Node*> consumers_;
  Pass last_;
  std::vector<TracedOp> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_deploy_fetch(std::uint64_t seed) {
  return std::make_unique<DeployWorkload>(seed);
}

}  // namespace perfbench
