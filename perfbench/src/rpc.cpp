// The two invocation workloads:
//
//   rpc_small_tcp   add(long,long) over real TCP, 16 calls outstanding;
//   rpc_collocated  add(long,long) on an object in the caller's own Orb.
//
// One issuing thread keeps a fixed window of invoke_async calls in flight
// (closed loop) and collects replies in issue order. The TCP server's
// dispatch pool is fixed at two workers, so client thread, client reader,
// server reader and workers fit a 4-CPU host.
#include <mutex>
#include <semaphore>
#include <stdexcept>

#include "bench.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/tcp.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace clc;

constexpr const char* kIdl =
    "module perfbench { interface Calc { long add(in long a, in long b); }; };";
constexpr const char* kIface = "perfbench::Calc";
constexpr const char* kOp = "add";
constexpr std::size_t kServerWorkers = 2;
// Operand range keeps a + b inside a 32-bit long.
constexpr std::int64_t kOperandLimit = std::int64_t{1} << 30;

enum class Kind { small_tcp, collocated };

/// Thread slots of the TCP workloads (see pin_thread): the issuing thread,
/// the client connection's reader, the server's acceptor and connection
/// reader, and the two workers on slots 3 and 2. Workers pin themselves on
/// their first request.
constexpr std::size_t kIssuerSlot = 0;
constexpr std::size_t kClientReaderSlot = 1;
constexpr std::size_t kServerSlot = 2;

void pin_worker(std::atomic<unsigned>& next) {
  thread_local bool placed = false;
  if (placed) return;
  placed = true;
  pin_thread(next.fetch_add(1) % 2 == 0 ? 3 : 2);
}

/// The servant body's own interval, handed from the servant to whoever
/// records spans on the same thread.
struct ServantStash {
  Ns start = 0;
  Ns end = 0;
};
thread_local ServantStash t_servant;

std::shared_ptr<orb::Servant> make_servant() {
  auto s = std::make_shared<orb::DynamicServant>(kIface);
  s->on(kOp, [](orb::ServerRequest& req) -> Result<void> {
    const bool traced = g_tracing.load(std::memory_order_relaxed);
    const Ns t0 = traced ? now_ns() : 0;
    const auto* a = req.arg(0).get_if<std::int32_t>();
    const auto* b = req.arg(1).get_if<std::int32_t>();
    if (a == nullptr || b == nullptr)
      return Error{Errc::invalid_argument, "add expects two longs"};
    req.set_result(orb::Value(static_cast<std::int32_t>(*a + *b)));
    if (traced) t_servant = {t0, now_ns()};
    return {};
  });
  return s;
}

// The Orb's internal stages, re-timed on one op's inputs with the same
// public functions the Orb calls. They run after the traced phase, so no
// replay lands inside a real span.

/// Client side: find_operation, marshal of the arguments, request frame
/// encode, reply frame decode, unmarshal of the result. Request-side stages
/// become children of `parent`, reply-side ones of `reply_parent` (the root
/// op when the reply arrives on another thread). Returns the request frame;
/// `*reply_frame` gets the reply the server would send.
Bytes replay_client(Tracer& tr, std::uint64_t trace, std::uint32_t parent,
                    std::uint32_t reply_parent,
                    const idl::InterfaceRepository& repo,
                    const orb::ObjectRef& to, std::int32_t a, std::int32_t b,
                    Bytes* reply_frame) {
  const std::vector<orb::Value> args{orb::Value(a), orb::Value(b)};
  const orb::Value result(static_cast<std::int32_t>(a + b));
  idl::OperationDef def;
  tr.replay(trace, parent, "idl.find_operation",
            [&] { def = repo.find_operation(kIface, kOp).value(); });
  orb::RequestMessage req;
  req.request_id = RequestId{trace};
  req.object_key = to.key;
  req.interface_name = kIface;
  req.operation = kOp;
  tr.replay(trace, parent, "orb.marshal", [&] {
    orb::CdrWriter w;
    w.begin_encapsulation();
    for (std::size_t i = 0; i < def.params.size(); ++i)
      (void)orb::marshal_value(args[i], def.params[i].type, repo, w);
    req.args = w.take();
  });
  Bytes request;
  tr.replay(trace, parent, "orb.frame_encode",
            [&] { request = req.encode(); });
  // The reply the server would send, built untimed, then decoded timed.
  orb::ReplyMessage rep;
  rep.request_id = req.request_id;
  orb::CdrWriter w;
  w.begin_encapsulation();
  (void)orb::marshal_value(result, def.result, repo, w);
  rep.payload = w.take();
  *reply_frame = rep.encode();
  orb::ReplyMessage decoded;
  tr.replay(trace, reply_parent, "orb.frame_decode", [&] {
    orb::CdrReader r(*reply_frame);
    (void)orb::decode_frame_header(r);
    decoded = orb::ReplyMessage::decode(r).value();
  });
  tr.replay(trace, reply_parent, "orb.unmarshal", [&] {
    orb::CdrReader r(decoded.payload);
    (void)r.begin_encapsulation();
    (void)orb::unmarshal_value(def.result, repo, r);
  });
  return request;
}

/// Server side: request decode, find_operation, unmarshal of the
/// arguments, marshal of the result, reply encode. Returns the request id
/// the frame carries (the op's trace id), 0 if it does not decode.
std::uint64_t replay_server(Tracer& tr, std::uint32_t parent,
                            const idl::InterfaceRepository& repo,
                            BytesView frame, BytesView reply_frame) {
  const Ns t0 = now_ns();
  orb::CdrReader r(frame);
  (void)orb::decode_frame_header(r);
  auto decoded = orb::RequestMessage::decode(r);
  const Ns t1 = now_ns();
  if (!decoded) return 0;
  const orb::RequestMessage req = std::move(*decoded);
  const std::uint64_t trace = req.request_id.value;
  tr.record(Span{trace, tr.new_id(), parent, "orb.frame_decode", t0, t1, true});
  idl::OperationDef def;
  tr.replay(trace, parent, "idl.find_operation",
            [&] { def = repo.find_operation(kIface, kOp).value(); });
  std::vector<orb::Value> args;
  tr.replay(trace, parent, "orb.unmarshal", [&] {
    orb::CdrReader ar(req.args);
    (void)ar.begin_encapsulation();
    for (const auto& p : def.params)
      args.push_back(orb::unmarshal_value(p.type, repo, ar).value());
  });
  // The servant's result, recovered untimed from the real reply.
  orb::CdrReader rr(reply_frame);
  (void)orb::decode_frame_header(rr);
  orb::ReplyMessage rep = orb::ReplyMessage::decode(rr).value();
  orb::CdrReader pr(rep.payload);
  (void)pr.begin_encapsulation();
  const orb::Value result = orb::unmarshal_value(def.result, repo, pr).value();
  tr.replay(trace, parent, "orb.marshal", [&] {
    orb::CdrWriter w;
    w.begin_encapsulation();
    (void)orb::marshal_value(result, def.result, repo, w);
    rep.payload = w.take();
  });
  Bytes encoded;
  tr.replay(trace, parent, "orb.frame_encode",
            [&] { encoded = rep.encode(); });
  return trace;
}

class RpcWorkload final : public Workload {
 public:
  explicit RpcWorkload(Kind kind) : kind_(kind) {}
  ~RpcWorkload() override { teardown(); }

  void setup() override {
    client_repo_ = std::make_shared<idl::InterfaceRepository>();
    client_repo_->register_idl(kIdl).value();
    client_ = std::make_unique<orb::Orb>(NodeId{2}, client_repo_);
    if (kind_ == Kind::collocated) {
      target_ = client_->activate(make_servant());
    } else {
      server_repo_ = std::make_shared<idl::InterfaceRepository>();
      server_repo_->register_idl(kIdl).value();
      server_ = std::make_unique<orb::Orb>(NodeId{1}, server_repo_);
      listener_ = std::make_unique<orb::TcpServer>();
      pin_thread(kServerSlot);
      auto ep = listener_->start([this](BytesView f) { return serve(f); }, 0,
                                 kServerWorkers);
      if (!ep) throw std::runtime_error("tcp server: " + ep.error().message);
      server_->set_endpoint(*ep);
      target_ = server_->activate(make_servant());
      client_->add_transport("tcp", std::make_shared<orb::TcpTransport>());
      pin_thread(kClientReaderSlot);
      client_->ping(*ep).value();  // opens the connection: its reader is here
      pin_thread(kIssuerSlot);
    }
    // Warm-up: connection, lazily built tables, allocator pools.
    RunSpec warm;
    warm.max_ops = 2000;
    warm.op_seed = 0x3a3a;
    const OpTally t = run(warm);
    if (t.failed != 0)
      throw std::runtime_error("warm-up failed: " + t.first_failure);
  }

  void teardown() override {
    // Client first: destroying it joins the connection's reader thread.
    client_.reset();
    if (listener_) listener_->stop();
    listener_.reset();
    server_.reset();
  }

  OpTally run(const RunSpec& spec) override {
    g_tracing.store(spec.tracer != nullptr, std::memory_order_release);
    OpTally tally;
    Rng rng(spec.op_seed);
    std::vector<Slot> ring(depth());
    std::uint64_t issued = 0;
    auto may_issue = [&](Ns now) {
      return (spec.max_ops == 0 || issued < spec.max_ops) &&
             (spec.until == 0 || now < spec.until);
    };
    for (auto& s : ring) {
      if (!may_issue(now_ns())) break;
      issue(s, rng);
      ++issued;
    }
    for (std::size_t i = 0;; i = (i + 1) % ring.size()) {
      Slot& s = ring[i];
      if (!s.busy) break;  // issue order: the oldest slot is idle => drained
      complete(s, spec, tally);
      if (may_issue(now_ns())) {
        issue(s, rng);
        ++issued;
      }
    }
    g_tracing.store(false, std::memory_order_release);
    return tally;
  }

  [[nodiscard]] std::uint64_t count_ops() const override { return 5000; }

  void count_metrics(Metrics& out) override {
    Bytes reply;
    const Bytes request = sample_frames(&reply);
    out.set("orb.request_bytes", static_cast<double>(request.size()), "B");
    out.set("orb.reply_bytes", static_cast<double>(reply.size()), "B");
  }

  void finish_trace(Tracer& tr) override {
    for (const ClientRecord& c : client_records_) {
      const bool collocated = kind_ == Kind::collocated;
      Bytes reply;
      const Bytes request =
          replay_client(tr, c.trace, c.issue_id, collocated ? c.issue_id : 0,
                        *client_repo_, target_, c.a, c.b, &reply);
      if (!collocated) continue;
      // The servant ran inline during the issue; handle_frame has no
      // boundary of its own here, so it is replayed on the op's frame.
      const std::uint32_t handle_id = tr.new_id();
      const Ns h0 = now_ns();
      const Bytes real_reply = client_->handle_frame(request);
      const Ns h1 = now_ns();
      tr.record(Span{c.trace, handle_id, 0, "orb.handle_frame", h0, h1, true});
      replay_server(tr, handle_id, *client_repo_, request, real_reply);
    }
    client_records_.clear();
    std::lock_guard lock(server_mutex_);
    for (const ServerRecord& s : server_records_) {
      const std::uint32_t handle_id = tr.new_id();
      const std::uint64_t trace =
          replay_server(tr, handle_id, *server_repo_, s.frame, s.reply);
      tr.record(Span{trace, handle_id, 0, "orb.handle_frame", s.start, s.end,
                     false});
      if (s.servant.end != 0)
        tr.record(Span{trace, tr.new_id(), handle_id, "orb.servant",
                       s.servant.start, s.servant.end, false});
    }
    server_records_.clear();
  }

  void layer_metrics(Metrics& out, const Tracer& tracer,
                     double seconds) override {
    out.set("orb.retries",
            static_cast<double>(client_->metrics().counter("orb.retries").value()),
            "count");
    orb::Orb& served = server_ ? *server_ : *client_;
    out.set("orb.server_shed",
            static_cast<double>(
                served.metrics().counter("orb.server_shed").value()),
            "count");
    if (kind_ == Kind::collocated) return;
    out.set("tcp.wait_us",
            tracer.per_op_median_remainder_ns({"orb.issue", "orb.handle_frame"}) /
                1e3,
            "us");
    bare_tcp_floor(out, seconds);
  }

  [[nodiscard]] Shape shape() const override {
    return kind_ == Kind::small_tcp ? Shape::tcp_pipeline : Shape::one_thread;
  }

  [[nodiscard]] std::string environment() const override {
    std::string env = "outstanding_depth=" + std::to_string(depth());
    if (kind_ == Kind::collocated)
      return env + " transport=none (collocated, same Orb)";
    return env + " server_pool=" + std::to_string(kServerWorkers) +
           " connections=1 link=loopback interface 127.0.0.1 (not a real link)";
  }

 private:
  struct Slot {
    orb::PendingInvocation pending;
    bool busy = false;
    Ns t0 = 0;
    Ns t1 = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
    ServantStash servant;  // collocated: the servant ran inside the issue
  };
  /// What the traced phase keeps of one op for the replays after it.
  struct ClientRecord {
    std::uint64_t trace;
    std::uint32_t issue_id;
    std::int32_t a, b;
  };
  struct ServerRecord {
    Ns start, end;  // around Orb::handle_frame
    ServantStash servant;
    Bytes frame, reply;
  };

  [[nodiscard]] std::size_t depth() const {
    return kind_ == Kind::small_tcp ? 16 : 1;
  }

  void issue(Slot& s, Rng& rng) {
    s.a = static_cast<std::int32_t>(rng.next_in(-kOperandLimit, kOperandLimit));
    s.b = static_cast<std::int32_t>(rng.next_in(-kOperandLimit, kOperandLimit));
    s.busy = true;
    s.t0 = now_ns();
    s.pending =
        client_->invoke_async(target_, kOp, {orb::Value(s.a), orb::Value(s.b)});
    s.t1 = now_ns();
    if (kind_ == Kind::collocated) {
      s.servant = t_servant;
      t_servant = {};
    }
  }

  void complete(Slot& s, const RunSpec& spec, OpTally& tally) {
    auto out = s.pending.take();
    const Ns done = now_ns();
    s.busy = false;
    if (!out) {
      tally.fail(out.error().message);
    } else if (out->exception.has_value()) {
      tally.fail("user exception " + out->exception->type_name);
    } else if (const auto* sum = out->result.get_if<std::int32_t>();
               sum == nullptr || *sum != s.a + s.b) {
      tally.fail("add returned a wrong sum");
    } else {
      ++tally.ok;
      tally.payload_bytes += 3 * sizeof(std::int32_t);
      if (spec.windows) spec.windows->record(done, done - s.t0);
      if (spec.tracer != nullptr) trace_op(*spec.tracer, s, done);
    }
    s.pending = orb::PendingInvocation();
  }

  /// Real-path spans of a checked op; its replays wait for finish_trace.
  void trace_op(Tracer& tr, const Slot& s, Ns done) {
    const std::uint64_t trace = s.pending.request_id();
    const std::uint32_t issue_id = tr.new_id();
    tr.record(Span{trace, issue_id, 0, "orb.issue", s.t0, s.t1, false});
    if (s.servant.end != 0)
      tr.record(Span{trace, tr.new_id(), issue_id, "orb.servant",
                     s.servant.start, s.servant.end, false});
    tr.record(Span{trace, tr.new_id(), 0, "op", s.t0, done, false});
    client_records_.push_back(ClientRecord{trace, issue_id, s.a, s.b});
  }

  /// Server-side MessageHandler: Orb::handle_frame, timed when tracing.
  /// Only the timestamps and the frames are kept; the replays run later.
  Bytes serve(BytesView frame) {
    pin_worker(next_worker_);
    if (!g_tracing.load(std::memory_order_acquire))
      return server_->handle_frame(frame);
    t_servant = {};
    const Ns t0 = now_ns();
    Bytes reply = server_->handle_frame(frame);
    const Ns t1 = now_ns();
    std::lock_guard lock(server_mutex_);
    server_records_.push_back(
        ServerRecord{t0, t1, t_servant, Bytes(frame.begin(), frame.end()), reply});
    return reply;
  }

  /// The request and reply frames of one add, encoded with the Orb's own
  /// message encoders (longs are fixed-width, so every add has these sizes).
  Bytes sample_frames(Bytes* reply) const {
    Tracer discard(64);
    return replay_client(discard, 1, 0, 0, *client_repo_, target_, 20, 22,
                         reply);
  }

  /// The transport floor: pre-encoded frames of this workload's sizes
  /// through TcpTransport::submit to a server returning a canned reply, at
  /// the same depth -- what the op would cost with no ORB work at all.
  void bare_tcp_floor(Metrics& out, double seconds) {
    Bytes reply;
    const Bytes request = sample_frames(&reply);

    orb::TcpServer server;
    std::atomic<unsigned> next_worker{0};
    pin_thread(kServerSlot);
    auto ep = server.start(
        [&](BytesView) {
          pin_worker(next_worker);
          return reply;
        },
        0, kServerWorkers);
    if (!ep) throw std::runtime_error("bare tcp server: " + ep.error().message);
    orb::TcpTransport transport;
    pin_thread(kClientReaderSlot);
    std::binary_semaphore opened(0);  // first exchange opens the connection
    transport.submit(*ep, request, [&](Result<Bytes>) { opened.release(); });
    opened.acquire();
    pin_thread(kIssuerSlot);
    constexpr std::size_t kRing = 4096;
    std::vector<Ns> issued_at(kRing);
    std::vector<Ns> rtts;
    rtts.reserve(1 << 20);
    std::atomic<std::uint64_t> errors{0};
    std::counting_semaphore<64> window(static_cast<std::ptrdiff_t>(depth()));
    const Ns start = now_ns();
    const Ns until = start + static_cast<Ns>(seconds * 1e9);
    std::uint64_t n = 0;
    for (; now_ns() < until; ++n) {
      window.acquire();
      issued_at[n % kRing] = now_ns();
      // Completions run on the connection's reader thread, one at a time.
      transport.submit(*ep, request, [&, n](Result<Bytes> r) {
        if (r && r->size() == reply.size())
          rtts.push_back(now_ns() - issued_at[n % kRing]);
        else
          errors.fetch_add(1, std::memory_order_relaxed);
        window.release();
      });
    }
    for (std::size_t i = 0; i < depth(); ++i) window.acquire();
    const Ns end = now_ns();
    transport.reset();
    server.stop();
    if (errors.load() != 0 || rtts.empty())
      throw std::runtime_error("bare tcp floor saw failed exchanges");
    std::vector<double> us;
    us.reserve(rtts.size());
    for (Ns r : rtts) us.push_back(static_cast<double>(r) / 1e3);
    out.set("tcp.bare_rtt_us", LatencyWindows::median(std::move(us)), "us");
    out.set("tcp.bare_ops_per_s",
            static_cast<double>(n) / (static_cast<double>(end - start) / 1e9),
            "1/s");
  }

  Kind kind_;
  std::shared_ptr<idl::InterfaceRepository> server_repo_;
  std::shared_ptr<idl::InterfaceRepository> client_repo_;
  std::unique_ptr<orb::Orb> server_;
  std::unique_ptr<orb::TcpServer> listener_;
  std::unique_ptr<orb::Orb> client_;
  orb::ObjectRef target_;
  std::atomic<unsigned> next_worker_{0};
  std::vector<ClientRecord> client_records_;
  std::mutex server_mutex_;
  std::vector<ServerRecord> server_records_;  // under server_mutex_
};

}  // namespace

std::unique_ptr<Workload> make_rpc_small_tcp(std::uint64_t /*seed*/) {
  return std::make_unique<RpcWorkload>(Kind::small_tcp);
}
std::unique_ptr<Workload> make_rpc_collocated(std::uint64_t /*seed*/) {
  return std::make_unique<RpcWorkload>(Kind::collocated);
}

}  // namespace perfbench
