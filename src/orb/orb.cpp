#include "orb/orb.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace clc::orb {

using idl::OperationDef;
using idl::ParamDirection;

namespace {
/// An endpoint whose credit window ramps (additively, one per hint-free
/// reply) past this is considered unpressured again: the window resets to
/// unlimited so steady-state pipelines pay no accounting.
constexpr std::uint32_t kFlowRecoveryLimit = 256;
/// Cap on the per-endpoint consecutive-failure streak: bounds the backoff
/// exponent contributed by endpoint memory (initial * multiplier^(cap-1)).
constexpr int kMaxFailureStreak = 8;
/// Failure-streak half-life: the streak halves per window elapsed since
/// the last recorded failure, so an endpoint nobody has called in a while
/// re-enters the backoff curve low instead of at its historical worst.
/// (Any success still resets the streak to zero instantly.)
constexpr Duration kStreakHalfLife = seconds(10);
/// Latency assumed for an endpoint the health tracker has never seen (µs):
/// unknown replicas rank behind a warmed sub-millisecond one but ahead of
/// anything the breaker or streak history is punishing.
constexpr double kUnknownEndpointLatencyUs = 1000.0;
/// Streak contribution to the health score saturates at 2^6.
constexpr int kMaxStreakPenaltyShift = 6;
}  // namespace

namespace detail {

/// One in-flight remote invocation: owns the encoded frame, the policy
/// snapshot and the retry state machine. Attempts complete via transport
/// callbacks, so a retry runs on whichever thread delivered the failure --
/// inline on the caller for the deterministic loopback, on the connection
/// reader for TCP. Keeps itself alive (shared_from_this) across the
/// asynchronous gap between submit and completion.
struct AsyncCall : std::enable_shared_from_this<AsyncCall> {
  Orb* orb;
  std::shared_ptr<PendingState> state;
  OperationDef op;
  // Stable homes for the strings RequestInfo references.
  std::string operation;
  std::string interface_name;
  std::string endpoint;
  bool run_chain = false;
  bool intercept = false;
  obs::RequestInfo info;
  Bytes frame;  // encoded once; every retry re-sends these bytes
  Orb::PolicySnapshot snap;
  Duration deadline = 0;
  int max_attempts = 1;
  int attempt = 1;
  bool holds_flow_slot = false;  // set under Orb::flow_mutex_
  CircuitBreaker* breaker = nullptr;
  TimePoint started = 0;         // resilience budget epoch
  TimePoint invoke_started = 0;  // latency histogram epoch
  Rng rng;  // per-call jitter: no shared locked rng on the hot path

  AsyncCall(Orb* o, std::shared_ptr<PendingState> s, OperationDef opdef,
            std::string op_name, std::string iface, std::string ep,
            std::uint64_t request_id)
      : orb(o),
        state(std::move(s)),
        op(std::move(opdef)),
        operation(std::move(op_name)),
        interface_name(std::move(iface)),
        endpoint(std::move(ep)),
        info(request_id, operation, interface_name),
        rng(0x0bbf ^ request_id) {}

  void start_attempt() {
    if (deadline > 0 && orb->clock_->now() - started >= deadline) {
      orb->deadline_exceeded_->inc();
      finish(Error{Errc::timeout, "deadline exceeded invoking " + operation +
                                      " on " + endpoint});
      return;
    }
    if (breaker != nullptr) {
      if (auto admitted = breaker->admit(orb->clock_->now()); !admitted.ok()) {
        orb->breaker_rejected_->inc();
        finish(Error{Errc::refused,
                     admitted.error().message + " for " + endpoint});
        return;
      }
    }
    auto transport = orb->transport_for(endpoint);
    if (!transport) {
      finish(transport.error());
      return;
    }
    if (op.oneway) {
      // A one-way completes before submit() returns, so the callback need
      // not keep this call alive -- and a raw pointer does not allocate.
      (*transport)->submit(
          endpoint, frame, [this](Result<Bytes> r) { on_reply(std::move(r)); },
          Delivery::oneway);
      return;
    }
    auto self = shared_from_this();
    (*transport)->submit(endpoint, frame, [self](Result<Bytes> r) {
      self->on_reply(std::move(r));
    });
  }

  void on_reply(Result<Bytes> r) {
    if (!r) {
      handle_failure(r.error());
      return;
    }
    auto out = op.oneway ? Result<InvokeOutcome>(InvokeOutcome{})
                         : decode_frame(*r);
    if (out.ok()) {
      if (breaker != nullptr) breaker->on_success();
      orb->note_endpoint_success(endpoint);
      finish(std::move(out));
      return;
    }
    handle_failure(out.error());
  }

  Result<InvokeOutcome> decode_frame(BytesView reply_frame) {
    CdrReader r(reply_frame);
    auto type = decode_frame_header(r);
    if (!type) return type.error();
    if (*type != MessageType::reply)
      return Error{Errc::corrupt_data, "expected reply frame"};
    auto reply = ReplyMessage::decode(r);
    if (!reply) return reply.error();
    // Backpressure: adopt a piggybacked credit hint before the contexts
    // move on; a successful hint-free reply instead ramps a narrowed
    // window back toward unlimited.
    if (auto credit = CreditContext::find(reply->service_contexts)) {
      orb->note_credit(endpoint, credit->window);
    } else if (reply->status == ReplyStatus::no_exception ||
               reply->status == ReplyStatus::user_exception) {
      orb->note_credit_absent(endpoint);
    }
    if (intercept) info.set_incoming(std::move(reply->service_contexts));
    // Before completion the args vector is owned by this machinery alone,
    // so out/inout values decode straight into their final home.
    return orb->decode_reply(op, *reply, state->args);
  }

  void handle_failure(const Error& e) {
    if (!errc_is_retryable(e.code)) {
      // Model-level failure: the peer answered; nothing to retry or break.
      finish(e);
      return;
    }
    // A BUSY reply is backpressure, not death: the server answered, it just
    // shed the call. It never counts as a breaker failure (shed != dead),
    // but it does feed the endpoint backoff memory below, so retries slow
    // down instead of re-hammering the overloaded peer.
    if (e.code != Errc::overloaded && breaker != nullptr &&
        breaker->on_failure(orb->clock_->now())) {
      orb->breaker_opened_->inc();
      CLC_LOG(warn, "orb") << "circuit opened for " << endpoint << " after "
                           << errc_name(e.code);
    }
    const int streak = orb->note_endpoint_failure(endpoint);
    if (attempt >= max_attempts) {
      finish(e);
      return;
    }
    orb->retries_->inc();
    // Backoff position is max(this call's attempt, the endpoint's failure
    // streak): a fresh invocation after a failed breaker half-open probe
    // resumes the backoff curve where the endpoint's history left it
    // instead of restarting from the base delay.
    Duration wait =
        backoff_delay(snap.policies.retry, std::max(attempt, streak), rng);
    if (deadline > 0) {
      const Duration remaining = deadline - (orb->clock_->now() - started);
      if (remaining <= 0) {
        finish(e);
        return;
      }
      wait = std::min(wait, remaining);
    }
    ++attempt;
    {
      std::lock_guard lock(state->mutex);
      state->attempts = attempt;
    }
    if (wait > 0) {
      if (snap.sleep_fn)
        snap.sleep_fn(wait);
      else
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
    }
    start_attempt();
  }

  /// Publish the outcome: reply-side interceptors, latency histogram, then
  /// wake the PendingInvocation (and run its continuations).
  void finish(Result<InvokeOutcome> out) {
    if (holds_flow_slot) {
      // Release the endpoint's in-flight slot first: a continuation may
      // immediately issue the next pipelined call.
      holds_flow_slot = false;
      orb->flow_release(endpoint);
    }
    if (intercept) {
      if (!out)
        info.set_failed(errc_name(out.error().code));
      else if (out->exception.has_value())
        info.set_failed(out->exception->type_name);
      orb->interceptors_.receive_reply(info);
    }
    const Duration elapsed =
        std::max<std::int64_t>(0, orb->clock_->now() - invoke_started);
    // Feed the endpoint latency estimator (remote invocations only): hedge
    // delays and health-aware binding read it. Failures count too -- the
    // time to a definitive verdict is exactly what a hedging caller would
    // have waited, and a gray endpoint's inflated estimate is the signal.
    // A *fast* failure (connection refused in microseconds) is floored at
    // the unknown-endpoint fallback, so instant rejection can never score
    // healthier than an endpoint we have simply not tried yet -- the
    // failure streak must demote it, not be cancelled by a tiny EWMA.
    if (!endpoint.empty() && endpoint != orb->endpoint_) {
      const bool failed = !out.ok();
      const Duration floored =
          failed ? std::max<Duration>(
                       elapsed, static_cast<Duration>(kUnknownEndpointLatencyUs))
                 : elapsed;
      orb->health_.record(endpoint, floored);
    }
    orb->invoke_us_->observe(static_cast<std::uint64_t>(elapsed));
    {
      // Freeze the failover-observability fields before completion so a
      // continuation reading attempts()/final_endpoint() sees the totals.
      std::lock_guard lock(state->mutex);
      state->attempts = attempt;
      state->final_endpoint = endpoint;
    }
    state->complete(std::move(out));
  }
};

/// Joins a primary attempt and an optional speculative hedge into the one
/// PendingState the caller holds (DESIGN.md §17). The first *definitive*
/// outcome -- success, or a model-level error the peer actually answered
/// with -- wins and completes the outer state; the loser's eventual reply
/// is discarded on arrival. A leg that dies with a transport-class error
/// merely defers to the other leg; only when both legs are dead does the
/// join surface the primary's error. The hedge leg launches either when
/// the arm_timer fires (the primary has been silent past its estimated
/// p95) or immediately when the primary fails retryably first; either way
/// it passes through the hedge budget gate exactly once.
struct HedgeJoin : std::enable_shared_from_this<HedgeJoin> {
  enum class Hedge : std::uint8_t {
    not_launched,  // timer pending, budget not yet consulted
    launching,     // claimed by one thread; budget check in progress
    launched,      // speculative leg in flight
    declined,      // budget said no; primary is the only leg
    failed,        // hedge leg finished with a transport-class error
  };

  Orb* orb = nullptr;
  std::shared_ptr<PendingState> outer;
  std::string operation;
  InvokeOptions opts;
  HedgePolicy policy;
  ObjectRef hedge_target;
  std::vector<Value> hedge_args;  // pre-copied for the speculative leg

  std::mutex mutex;
  bool decided = false;       // outer completion claimed
  bool primary_failed = false;
  Hedge hedge_state = Hedge::not_launched;
  std::shared_ptr<PendingState> primary_leg;  // kept for error surfacing

  void watch(const std::shared_ptr<PendingState>& leg, bool is_hedge) {
    auto self = shared_from_this();
    PendingInvocation handle(leg);
    handle.then([self, leg, is_hedge](const Result<InvokeOutcome>&) {
      self->on_leg_done(leg, is_hedge);
    });
  }

  /// Timer callback: launch the hedge unless the race is already over.
  void fire() {
    {
      std::lock_guard lock(mutex);
      if (decided || hedge_state != Hedge::not_launched) return;
    }
    launch_hedge();
  }

  void launch_hedge() {
    {
      std::lock_guard lock(mutex);
      if (decided || hedge_state != Hedge::not_launched) return;
      hedge_state = Hedge::launching;
    }
    if (!orb->hedge_budget_allows(policy)) {
      std::unique_lock lock(mutex);
      hedge_state = Hedge::declined;
      if (primary_failed && !decided) {
        decided = true;
        auto p = primary_leg;
        lock.unlock();
        complete_from(p);
      }
      return;
    }
    orb->hedges_->inc();
    auto leg =
        orb->invoke_pending(hedge_target, operation, std::move(hedge_args),
                            opts);
    {
      std::lock_guard lock(mutex);
      hedge_state = Hedge::launched;
    }
    watch(leg, /*is_hedge=*/true);
  }

  void on_leg_done(const std::shared_ptr<PendingState>& leg, bool is_hedge) {
    bool is_definitive;
    {
      std::lock_guard leg_lock(leg->mutex);
      is_definitive = leg->outcome.ok() ||
                      !errc_is_retryable(leg->outcome.error().code);
    }
    std::unique_lock lock(mutex);
    if (decided) return;  // the loser: reply discarded
    if (is_definitive) {
      decided = true;
      lock.unlock();
      if (is_hedge) orb->hedge_wins_->inc();
      complete_from(leg);
      return;
    }
    // Transport-class failure: this leg is out of the race.
    if (is_hedge) {
      hedge_state = Hedge::failed;
      if (primary_failed) {
        decided = true;
        auto p = primary_leg;
        lock.unlock();
        complete_from(p);
      }
      return;
    }
    primary_failed = true;
    primary_leg = leg;
    switch (hedge_state) {
      case Hedge::not_launched:
        // Failure-triggered hedge: don't wait out the p95 timer when the
        // primary has already told us it is in trouble.
        lock.unlock();
        launch_hedge();
        return;
      case Hedge::launching:
      case Hedge::launched:
        return;  // the hedge leg will decide
      case Hedge::declined:
      case Hedge::failed:
        decided = true;
        lock.unlock();
        complete_from(leg);
        return;
    }
  }

  /// Publish one leg's outcome (and its out-args and failover
  /// observability) through the outer state. Called exactly once, by
  /// whichever path set `decided`.
  void complete_from(const std::shared_ptr<PendingState>& leg) {
    Result<InvokeOutcome> out{Error{Errc::bad_state, "hedge join"}};
    std::vector<Value> args;
    int attempts = 1;
    std::string final_endpoint;
    std::uint64_t request_id = 0;
    {
      std::lock_guard leg_lock(leg->mutex);
      out = std::move(leg->outcome);
      args = std::move(leg->args);
      attempts = leg->attempts;
      final_endpoint = leg->final_endpoint;
      request_id = leg->request_id;
    }
    {
      std::lock_guard outer_lock(outer->mutex);
      outer->args = std::move(args);
      outer->attempts = attempts;
      outer->final_endpoint = std::move(final_endpoint);
      outer->request_id = request_id;
    }
    outer->complete(std::move(out));
  }
};

}  // namespace detail

Orb::Orb(NodeId node_id, std::shared_ptr<idl::InterfaceRepository> repo,
         obs::MetricsRegistry* metrics)
    : node_id_(node_id),
      repo_(std::move(repo)),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      invocations_sent_(&metrics_->counter("orb.invocations_sent")),
      invocations_async_(&metrics_->counter("orb.invocations_async")),
      invocations_served_(&metrics_->counter("orb.invocations_served")),
      local_dispatches_(&metrics_->counter("orb.local_dispatches")),
      retries_(&metrics_->counter("orb.retries")),
      deadline_exceeded_(&metrics_->counter("orb.deadline_exceeded")),
      breaker_opened_(&metrics_->counter("orb.breaker_opened")),
      breaker_rejected_(&metrics_->counter("orb.breaker_rejected")),
      server_shed_(&metrics_->counter("orb.server_shed")),
      backpressure_deferred_(&metrics_->counter("orb.backpressure_deferred")),
      credit_hints_(&metrics_->counter("orb.credit_hints")),
      hedges_(&metrics_->counter("orb.hedges")),
      hedge_wins_(&metrics_->counter("orb.hedge_wins")),
      inflight_gauge_(&metrics_->gauge("orb.inflight")),
      queue_depth_gauge_(&metrics_->gauge("orb.queue_depth")),
      invoke_us_(&metrics_->histogram("orb.invoke_us")) {
  interceptors_.set_error_counter(&metrics_->counter("orb.interceptor_errors"));
  // Base IDL every CORBA-LC peer shares.
  const char* kBaseIdl =
      "module clc {"
      "  interface Object { };"
      "  interface EventConsumer { oneway void push(in any event); };"
      "};";
  auto r = repo_->register_idl(kBaseIdl);
  (void)r;  // idempotent; conflicts impossible for the base IDL
}

// ---------------------------------------------------------------------------
// Object adapter

ObjectRef Orb::activate(std::shared_ptr<Servant> servant) {
  Uuid key;
  {
    std::lock_guard lock(rng_mutex_);
    key = Uuid::random(rng_);
  }
  return activate_with_key(std::move(servant), key);
}

ObjectRef Orb::activate_with_key(std::shared_ptr<Servant> servant, Uuid key) {
  ObjectRef ref;
  ref.node = node_id_;
  ref.key = key;
  ref.interface_name = servant->interface_name();
  ref.endpoint = endpoint_;
  ref.incarnation = incarnation_;
  std::unique_lock lock(servants_mutex_);
  servants_[key] = std::move(servant);
  return ref;
}

Result<void> Orb::deactivate(const Uuid& key) {
  std::unique_lock lock(servants_mutex_);
  if (servants_.erase(key) == 0)
    return Error{Errc::not_found, "no servant with key " + key.to_string()};
  return {};
}

void Orb::retire_object(const Uuid& key) {
  std::unique_lock lock(servants_mutex_);
  servants_.erase(key);
  retired_.insert(key);
}

std::size_t Orb::active_count() const {
  std::shared_lock lock(servants_mutex_);
  return servants_.size();
}

std::shared_ptr<Servant> Orb::find_servant(const Uuid& key) const {
  std::shared_lock lock(servants_mutex_);
  auto it = servants_.find(key);
  return it == servants_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Server path

Bytes Orb::handle_frame(BytesView frame) {
  return handle_frame_impl(frame, /*intercept_server=*/true);
}

Bytes Orb::handle_frame_impl(BytesView frame, bool intercept_server) {
  CdrReader r(frame);
  auto type = decode_frame_header(r);
  if (!type) {
    ReplyMessage err;
    err.status = ReplyStatus::system_exception;
    err.exception_id = errc_name(type.error().code);
    err.payload = bytes_of(type.error().message);
    return err.encode();
  }
  if (*type == MessageType::ping) return encode_control(MessageType::pong);
  if (*type != MessageType::request) return {};  // stray reply/pong: ignore

  auto req = RequestMessage::decode(r);
  if (!req) {
    ReplyMessage err;
    err.status = ReplyStatus::system_exception;
    err.exception_id = errc_name(req.error().code);
    err.payload = bytes_of(req.error().message);
    return err.encode();
  }
  invocations_served_->inc();

  // Admission control (DESIGN.md §16): gate before any dispatch work. A
  // shed call answers with a BUSY reply carrying Errc::overloaded (plus a
  // credit hint), skipping unmarshalling and the servant entirely.
  std::shared_ptr<AdmissionGate> gate;
  {
    std::shared_lock lock(policy_mutex_);
    gate = admission_gate_;
  }
  std::uint32_t credit = 0;
  if (gate != nullptr) {
    if (auto admitted = gate->admit(req->interface_name, req->operation);
        !admitted.ok()) {
      server_shed_->inc();
      if (!req->response_expected) return {};
      ReplyMessage busy;
      busy.request_id = req->request_id;
      busy.status = ReplyStatus::busy;
      busy.exception_id = errc_name(Errc::overloaded);
      busy.payload = bytes_of(admitted.error().message);
      if (const std::uint32_t w = gate->credit_hint(); w > 0)
        CreditContext{w, gate->queue_delay_us()}.attach(busy.service_contexts);
      return busy.encode();
    }
    credit = gate->credit_hint();
  }

  const bool intercept = intercept_server && interceptors_.has_server();
  obs::RequestInfo info(req->request_id.value, req->operation,
                        req->interface_name);
  if (intercept) {
    info.set_incoming(std::move(req->service_contexts));
    interceptors_.receive_request(info);
  }
  const TimePoint dispatch_started = clock_->now();
  auto reply = dispatch_request(*req);
  // Feed the admission controller's learned per-op cost model with the
  // observed service time (DESIGN.md §16/§17): the static cost table is
  // only the prior until real samples arrive.
  if (gate != nullptr)
    gate->record_service_time(
        req->interface_name, req->operation,
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, clock_->now() - dispatch_started)));
  if (intercept) {
    if (!reply)
      info.set_failed(errc_name(reply.error().code));
    else if (reply->status != ReplyStatus::no_exception)
      info.set_failed(reply->exception_id);
    interceptors_.send_reply(info);
  }
  if (!req->response_expected) return {};
  if (!reply) {
    ReplyMessage err;
    err.request_id = req->request_id;
    err.status = ReplyStatus::system_exception;
    err.exception_id = errc_name(reply.error().code);
    err.payload = bytes_of(reply.error().message);
    err.service_contexts = info.take_outgoing();
    if (credit > 0)
      CreditContext{credit, gate->queue_delay_us()}.attach(
          err.service_contexts);
    return err.encode();
  }
  reply->service_contexts = info.take_outgoing();
  // Piggyback the credit hint while the dispatch queue is pressured; an
  // unpressured server attaches nothing, keeping replies byte-identical to
  // the pre-credit protocol.
  if (credit > 0)
    CreditContext{credit, gate->queue_delay_us()}.attach(
        reply->service_contexts);
  return reply->encode();
}

Result<ReplyMessage> Orb::dispatch_request(const RequestMessage& req) {
  std::shared_ptr<Servant> servant = find_servant(req.object_key);
  if (servant == nullptr) {
    {
      // A retired object (killed dual-primary loser) answers *retryably*:
      // the caller's retry/rebind path re-resolves toward the surviving
      // copy instead of treating the reference as permanently gone.
      std::shared_lock lock(servants_mutex_);
      if (retired_.count(req.object_key) != 0)
        return Error{Errc::unreachable,
                     "object retired " + req.object_key.to_string()};
    }
    ReplyMessage reply;
    reply.request_id = req.request_id;
    reply.status = ReplyStatus::object_not_found;
    reply.payload = bytes_of("no object " + req.object_key.to_string());
    return reply;
  }
  // Type-check the call against the servant's actual interface (the
  // caller's view may be a base interface; both must resolve the op).
  auto op = repo_->find_operation(servant->interface_name(), req.operation);
  if (!op) return op.error();

  // Decode in/inout arguments; out params start as void placeholders.
  std::vector<Value> args;
  args.reserve(op->params.size());
  CdrReader argr(req.args);
  if (auto enc = argr.begin_encapsulation(); !enc.ok()) return enc.error();
  for (const auto& p : op->params) {
    if (p.direction == ParamDirection::out) {
      args.emplace_back();
      continue;
    }
    auto v = unmarshal_value(p.type, *repo_, argr);
    if (!v) return v.error();
    args.push_back(std::move(*v));
  }

  ServerRequest sreq(req.operation, std::move(args));
  if (auto r = servant->dispatch(sreq); !r.ok()) return r.error();

  ReplyMessage reply;
  reply.request_id = req.request_id;
  if (sreq.exception().has_value()) {
    const UserException& ex = *sreq.exception();
    // Only declared exceptions may cross the wire, as in CORBA.
    bool declared = false;
    for (const auto& raised : op->raises) declared |= (raised == ex.type_name);
    if (!declared)
      return Error{Errc::remote_exception,
                   req.operation + " raised undeclared " + ex.type_name};
    reply.status = ReplyStatus::user_exception;
    reply.exception_id = ex.type_name;
    CdrWriter w;
    w.begin_encapsulation();
    auto m = marshal_value(ex.payload,
                           idl::TypeRef::named(idl::TypeKind::tk_struct,
                                               ex.type_name),
                           *repo_, w);
    if (!m.ok()) return m.error();
    reply.payload = w.take();
    return reply;
  }

  // Marshal result then out/inout params.
  CdrWriter w;
  w.begin_encapsulation();
  if (auto m = marshal_value(sreq.result(), op->result, *repo_, w); !m.ok())
    return m.error();
  for (std::size_t i = 0; i < op->params.size(); ++i) {
    if (op->params[i].direction == ParamDirection::in) continue;
    if (auto m = marshal_value(sreq.args()[i], op->params[i].type, *repo_, w);
        !m.ok())
      return m.error();
  }
  reply.status = ReplyStatus::no_exception;
  reply.payload = w.take();
  return reply;
}

// ---------------------------------------------------------------------------
// Client path

void Orb::add_transport(const std::string& scheme,
                        std::shared_ptr<Transport> transport) {
  std::unique_lock lock(transports_mutex_);
  transports_[scheme] = std::move(transport);
}

Result<Transport*> Orb::transport_for(const std::string& endpoint) {
  const auto colon = endpoint.find(':');
  if (colon == std::string::npos)
    return Error{Errc::invalid_argument, "bad endpoint " + endpoint};
  const std::string scheme = endpoint.substr(0, colon);
  std::shared_lock lock(transports_mutex_);
  auto it = transports_.find(scheme);
  if (it == transports_.end())
    return Error{Errc::unsupported, "no transport for scheme " + scheme};
  return it->second.get();
}

Result<Bytes> Orb::marshal_request_args(const OperationDef& op,
                                        const std::vector<Value>& args) {
  if (args.size() != op.params.size())
    return Error{Errc::invalid_argument,
                 op.name + " expects " + std::to_string(op.params.size()) +
                     " arguments, got " + std::to_string(args.size())};
  CdrWriter w;
  w.begin_encapsulation();
  for (std::size_t i = 0; i < op.params.size(); ++i) {
    if (op.params[i].direction == ParamDirection::out) continue;
    if (auto r = marshal_value(args[i], op.params[i].type, *repo_, w); !r.ok())
      return r.error();
  }
  return w.take();
}

Result<InvokeOutcome> Orb::decode_reply(const OperationDef& op,
                                        const ReplyMessage& reply,
                                        std::vector<Value>& args) {
  switch (reply.status) {
    case ReplyStatus::system_exception:
      // The wire carries the errc name; recover the original category so
      // transport-class failures (a corrupted request the server could not
      // decode, a server-side timeout) stay retryable at the caller.
      return Error{errc_from_name(reply.exception_id),
                   "system exception " + reply.exception_id + ": " +
                       string_of(reply.payload)};
    case ReplyStatus::object_not_found:
      return Error{Errc::not_found, string_of(reply.payload)};
    case ReplyStatus::busy:
      // Admission control shed the call: retryable, and deliberately not a
      // breaker failure at the caller -- the server is alive.
      return Error{Errc::overloaded, string_of(reply.payload)};
    case ReplyStatus::user_exception: {
      CdrReader r(reply.payload);
      if (auto enc = r.begin_encapsulation(); !enc.ok()) return enc.error();
      auto v = unmarshal_value(idl::TypeRef::named(idl::TypeKind::tk_struct,
                                                   reply.exception_id),
                               *repo_, r);
      if (!v) return v.error();
      InvokeOutcome out;
      out.exception = UserException{reply.exception_id, std::move(*v)};
      return out;
    }
    case ReplyStatus::no_exception: {
      CdrReader r(reply.payload);
      if (auto enc = r.begin_encapsulation(); !enc.ok()) return enc.error();
      InvokeOutcome out;
      auto result = unmarshal_value(op.result, *repo_, r);
      if (!result) return result.error();
      out.result = std::move(*result);
      for (std::size_t i = 0; i < op.params.size(); ++i) {
        if (op.params[i].direction == ParamDirection::in) continue;
        auto v = unmarshal_value(op.params[i].type, *repo_, r);
        if (!v) return v.error();
        args[i] = std::move(*v);
      }
      return out;
    }
  }
  return Error{Errc::corrupt_data, "bad reply status"};
}

Orb::PolicySnapshot Orb::snapshot_policies() const {
  std::shared_lock lock(policy_mutex_);
  return PolicySnapshot{policies_, sleep_fn_};
}

CircuitBreaker* Orb::breaker_for(const std::string& endpoint,
                                 const BreakerPolicy& policy) {
  if (!policy.enabled) return nullptr;
  std::lock_guard lock(breaker_mutex_);
  auto it = breakers_.find(endpoint);
  if (it == breakers_.end())
    it = breakers_
             .emplace(endpoint, std::make_unique<CircuitBreaker>(policy))
             .first;
  return it->second.get();
}

CircuitBreaker::State Orb::breaker_state(const std::string& endpoint) const {
  std::lock_guard lock(breaker_mutex_);
  auto it = breakers_.find(endpoint);
  return it == breakers_.end() ? CircuitBreaker::State::closed
                               : it->second->state();
}

// ---------------------------------------------------------------------------
// Credit-window flow control (client side of the backpressure loop)

bool Orb::flow_acquire(const std::string& endpoint,
                       const std::shared_ptr<detail::AsyncCall>& call) {
  std::lock_guard lock(flow_mutex_);
  auto& f = flows_[endpoint];
  if (f.limit == 0 || f.inflight < f.limit) {
    ++f.inflight;
    inflight_gauge_->add(1);
    call->holds_flow_slot = true;
    return true;
  }
  f.deferred.push_back(call);
  queue_depth_gauge_->add(1);
  backpressure_deferred_->inc();
  return false;
}

void Orb::flow_release(const std::string& endpoint) {
  {
    std::lock_guard lock(flow_mutex_);
    auto it = flows_.find(endpoint);
    if (it == flows_.end()) return;
    if (it->second.inflight > 0) {
      --it->second.inflight;
      inflight_gauge_->add(-1);
    }
  }
  flow_drain(endpoint);
}

void Orb::flow_drain(const std::string& endpoint) {
  {
    std::lock_guard lock(flow_mutex_);
    auto it = flows_.find(endpoint);
    if (it == flows_.end() || it->second.draining) return;
    it->second.draining = true;
  }
  // Iterative drain: a granted call may complete inline (loopback) and
  // re-enter flow_release, which sees `draining` set and returns after the
  // decrement -- this loop picks the freed slot up on its next pass, so
  // chains of fast completions never recurse.
  for (;;) {
    std::shared_ptr<detail::AsyncCall> next;
    {
      std::lock_guard lock(flow_mutex_);
      auto& f = flows_[endpoint];
      if (f.deferred.empty() || (f.limit != 0 && f.inflight >= f.limit)) {
        f.draining = false;
        return;
      }
      next = std::move(f.deferred.front());
      f.deferred.pop_front();
      queue_depth_gauge_->add(-1);
      ++f.inflight;
      inflight_gauge_->add(1);
      next->holds_flow_slot = true;
    }
    // start_attempt re-checks the deadline, so a call that expired while
    // parked finishes with timeout here rather than hitting the wire.
    next->start_attempt();
  }
}

void Orb::note_credit(const std::string& endpoint, std::uint32_t window) {
  credit_hints_->inc();
  {
    std::lock_guard lock(flow_mutex_);
    flows_[endpoint].limit = std::max<std::uint32_t>(1, window);
  }
  flow_drain(endpoint);  // the window may have widened
}

void Orb::note_credit_absent(const std::string& endpoint) {
  {
    std::lock_guard lock(flow_mutex_);
    auto it = flows_.find(endpoint);
    if (it == flows_.end() || it->second.limit == 0) return;
    // Additive ramp back toward unlimited once the server stops hinting.
    if (++it->second.limit >= kFlowRecoveryLimit) it->second.limit = 0;
  }
  flow_drain(endpoint);
}

std::uint32_t Orb::endpoint_credit_window(const std::string& endpoint) const {
  std::lock_guard lock(flow_mutex_);
  auto it = flows_.find(endpoint);
  return it == flows_.end() ? 0 : it->second.limit;
}

// ---------------------------------------------------------------------------
// Endpoint backoff memory (survives breaker half-open probes)

int Orb::decayed_streak(const FailureStreak& s, TimePoint now) noexcept {
  if (s.streak <= 0) return 0;
  const Duration elapsed = now - s.last_failure;
  if (elapsed < kStreakHalfLife) return s.streak;
  const std::int64_t half_lives = elapsed / kStreakHalfLife;
  if (half_lives >= 31) return 0;
  return s.streak >> half_lives;
}

int Orb::note_endpoint_failure(const std::string& endpoint) {
  const TimePoint now = clock_->now();
  std::lock_guard lock(breaker_mutex_);
  FailureStreak& s = failure_streaks_[endpoint];
  s.streak = decayed_streak(s, now);  // fold in idle-time decay first
  if (s.streak < kMaxFailureStreak) ++s.streak;
  s.last_failure = now;
  return s.streak;
}

void Orb::note_endpoint_success(const std::string& endpoint) {
  std::lock_guard lock(breaker_mutex_);
  auto it = failure_streaks_.find(endpoint);
  if (it != failure_streaks_.end()) it->second = FailureStreak{};
}

int Orb::endpoint_failure_streak(const std::string& endpoint) const {
  const TimePoint now = clock_->now();
  std::lock_guard lock(breaker_mutex_);
  auto it = failure_streaks_.find(endpoint);
  return it == failure_streaks_.end() ? 0 : decayed_streak(it->second, now);
}

// ---------------------------------------------------------------------------
// Endpoint health (DESIGN.md §17)

double Orb::endpoint_health_score(const std::string& endpoint) const {
  if (endpoint.empty() || endpoint == endpoint_) return 0.0;  // collocated
  double score = health_.latency_ewma(endpoint, kUnknownEndpointLatencyUs);
  switch (breaker_state(endpoint)) {
    case CircuitBreaker::State::closed:
      break;
    case CircuitBreaker::State::half_open:
      score *= 8.0;
      break;
    case CircuitBreaker::State::open:
      score *= 64.0;
      break;
  }
  // A narrowed credit window means the server told us it is pressured.
  if (const std::uint32_t w = endpoint_credit_window(endpoint); w > 0)
    score *= 1.0 + 8.0 / static_cast<double>(w);
  const int streak =
      std::min(endpoint_failure_streak(endpoint), kMaxStreakPenaltyShift);
  score *= static_cast<double>(1 << streak);
  return score;
}

void Orb::rank_by_health(std::vector<ObjectRef>& replicas) const {
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i)
    keyed.emplace_back(endpoint_health_score(replicas[i].endpoint), i);
  // Stable on the original index: equal scores keep caller priority order.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ObjectRef> ranked;
  ranked.reserve(replicas.size());
  for (const auto& [score, idx] : keyed) ranked.push_back(std::move(replicas[idx]));
  replicas = std::move(ranked);
}

std::shared_ptr<detail::PendingState> Orb::invoke_pending(
    const ObjectRef& target, const std::string& operation,
    std::vector<Value> args, const InvokeOptions& opts) {
  auto state = std::make_shared<detail::PendingState>();
  state->args = std::move(args);
  if (target.is_nil()) {
    state->complete(Error{Errc::invalid_argument,
                          "invocation on nil reference"});
    return state;
  }
  auto op = repo_->find_operation(target.interface_name, operation);
  if (!op) {
    state->complete(op.error());
    return state;
  }
  auto marshaled = marshal_request_args(*op, state->args);
  if (!marshaled) {
    state->complete(marshaled.error());
    return state;
  }

  RequestMessage req;
  req.request_id = RequestId{next_request_id_.fetch_add(1)};
  state->request_id = req.request_id.value;
  req.object_key = target.key;
  req.interface_name = target.interface_name;
  req.operation = operation;
  req.response_expected = !op->oneway;
  req.args = std::move(*marshaled);
  invocations_sent_->inc();

  // Collocation optimization: with the default `direct` policy, same-Orb
  // calls bypass the interceptor chain on both sides (the frame round trip
  // itself is kept -- marshalling semantics stay identical).
  const bool local = target.endpoint == endpoint_ || target.endpoint.empty();
  const bool run_chain =
      !local || collocation_policy_ == CollocationPolicy::through_frame;

  auto call = std::make_shared<detail::AsyncCall>(
      this, state, std::move(*op), operation, target.interface_name,
      target.endpoint, req.request_id.value);
  call->run_chain = run_chain;
  call->intercept = run_chain && interceptors_.has_client();
  call->invoke_started = clock_->now();
  if (call->intercept) {
    interceptors_.send_request(call->info);
    req.service_contexts = call->info.take_outgoing();
  }
  // Encode ONCE, after the interceptor contexts are attached; the local
  // path, the first attempt and every retry all send these same bytes.
  call->frame = req.encode();

  if (local) {
    // Collocated fast path: dispatch synchronously on the caller thread,
    // completing the pending state inline (no queues, no extra copies).
    local_dispatches_->inc();
    Bytes reply_frame = handle_frame_impl(call->frame, run_chain);
    if (call->op.oneway)
      call->finish(InvokeOutcome{});
    else
      call->finish(call->decode_frame(reply_frame));
    return state;
  }

  call->snap = snapshot_policies();  // ONE lock acquisition per invocation
  call->deadline =
      opts.deadline > 0 ? opts.deadline : call->snap.policies.deadline;
  const bool may_retry =
      opts.idempotent || call->snap.policies.retry.retry_non_idempotent;
  call->max_attempts =
      may_retry ? std::max(1, call->snap.policies.retry.max_attempts) : 1;
  call->breaker = breaker_for(target.endpoint, call->snap.policies.breaker);
  call->started = clock_->now();
  // Credit-window flow control: either an in-flight slot is free now, or
  // the call parks in the endpoint's deferred queue and a completion will
  // start it. Deadlines keep counting while parked.
  if (flow_acquire(target.endpoint, call)) call->start_attempt();
  return state;
}

Result<InvokeOutcome> Orb::invoke(const ObjectRef& target,
                                  const std::string& operation,
                                  std::vector<Value>& args,
                                  const InvokeOptions& opts) {
  auto state = invoke_pending(target, operation, std::move(args), opts);
  {
    std::unique_lock lock(state->mutex);
    state->cv.wait(lock, [&] { return state->done; });
  }
  args = std::move(state->args);
  return std::move(state->outcome);
}

PendingInvocation Orb::invoke_async(const ObjectRef& target,
                                    const std::string& operation,
                                    std::vector<Value> args,
                                    const InvokeOptions& opts) {
  invocations_async_->inc();
  return PendingInvocation(
      invoke_pending(target, operation, std::move(args), opts));
}

bool Orb::hedge_budget_allows(const HedgePolicy& policy) {
  const std::uint64_t eligible =
      hedge_eligible_.load(std::memory_order_relaxed);
  std::uint64_t issued = hedges_issued_.load(std::memory_order_relaxed);
  for (;;) {
    const bool allowed =
        issued < policy.burst ||
        static_cast<double>(issued + 1) <=
            policy.budget * static_cast<double>(eligible);
    if (!allowed) return false;
    if (hedges_issued_.compare_exchange_weak(issued, issued + 1,
                                             std::memory_order_relaxed))
      return true;
    // Raced with another hedge; re-evaluate against the updated count.
  }
}

void Orb::arm_timer(Duration delay, std::function<void()> fn) {
  TimerFn timer;
  {
    std::shared_lock lock(policy_mutex_);
    timer = timer_fn_;
  }
  if (timer) {
    timer(delay, std::move(fn));
    return;
  }
  std::thread([delay, fn = std::move(fn)] {
    if (delay > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    fn();
  }).detach();
}

PendingInvocation Orb::invoke_hedged(std::vector<ObjectRef> replicas,
                                     const std::string& operation,
                                     std::vector<Value> args,
                                     const InvokeOptions& opts) {
  invocations_async_->inc();
  if (replicas.empty()) {
    auto outer = std::make_shared<detail::PendingState>();
    outer->complete(
        Error{Errc::invalid_argument, "hedged invocation with no replicas"});
    return PendingInvocation(outer);
  }
  rank_by_health(replicas);
  HedgePolicy policy;
  {
    std::shared_lock lock(policy_mutex_);
    policy = policies_.hedge;
  }
  const ObjectRef& primary = replicas.front();
  const bool local = primary.endpoint == endpoint_ || primary.endpoint.empty();
  // Hedging needs the policy on, an idempotent call (a lost reply is
  // indistinguishable from a lost request, exactly as for retry), a spare
  // replica, and a remote primary (a collocated dispatch completes
  // synchronously -- there is no tail to cut).
  if (!policy.enabled || !opts.idempotent || replicas.size() < 2 || local)
    return PendingInvocation(
        invoke_pending(primary, operation, std::move(args), opts));
  hedge_eligible_.fetch_add(1, std::memory_order_relaxed);

  auto join = std::make_shared<detail::HedgeJoin>();
  join->orb = this;
  join->outer = std::make_shared<detail::PendingState>();
  join->operation = operation;
  join->opts = opts;
  join->policy = policy;
  join->hedge_target = replicas[1];
  join->hedge_args = args;  // copy before the primary leg consumes them

  // Hedge delay: the primary endpoint's estimated p95, clamped to the
  // policy window; a cold tracker falls back to the policy default.
  Duration delay = health_.p95(primary.endpoint);
  if (delay <= 0) delay = policy.default_delay;
  delay = std::clamp(delay, policy.min_delay, policy.max_delay);

  join->watch(invoke_pending(primary, operation, std::move(args), opts),
              /*is_hedge=*/false);
  bool race_over;
  {
    std::lock_guard lock(join->mutex);
    race_over = join->decided || join->hedge_state !=
                                     detail::HedgeJoin::Hedge::not_launched;
  }
  if (!race_over) arm_timer(delay, [join] { join->fire(); });
  return PendingInvocation(join->outer);
}

Result<Value> Orb::call_hedged(std::vector<ObjectRef> replicas,
                               const std::string& operation,
                               std::vector<Value> args,
                               const InvokeOptions& opts) {
  auto pending =
      invoke_hedged(std::move(replicas), operation, std::move(args), opts);
  auto out = pending.take();
  if (!out) return out.error();
  if (out->exception.has_value())
    return Error{Errc::remote_exception, out->exception->type_name};
  return std::move(out->result);
}

Orb::Stats Orb::stats() const {
  Stats s;
  s.invocations_sent = invocations_sent_->value();
  s.invocations_served = invocations_served_->value();
  s.local_dispatches = local_dispatches_->value();
  return s;
}

void Orb::reset_stats() { metrics_->reset("orb."); }

Result<Value> Orb::call(const ObjectRef& target, const std::string& operation,
                        std::vector<Value> args, const InvokeOptions& opts) {
  auto out = invoke(target, operation, args, opts);
  if (!out) return out.error();
  if (out->exception.has_value())
    return Error{Errc::remote_exception, out->exception->type_name};
  return std::move(out->result);
}

Result<void> Orb::send(const ObjectRef& target, const std::string& operation,
                       std::vector<Value> args, const InvokeOptions& opts) {
  auto out = invoke(target, operation, args, opts);
  if (!out) return out.error();
  return {};
}

Result<void> Orb::ping(const std::string& endpoint) {
  if (endpoint == endpoint_) return {};
  auto transport = transport_for(endpoint);
  if (!transport) return transport.error();
  auto reply =
      roundtrip(**transport, endpoint, encode_control(MessageType::ping));
  if (!reply) return reply.error();
  CdrReader r(*reply);
  auto type = decode_frame_header(r);
  if (!type) return type.error();
  if (*type != MessageType::pong)
    return Error{Errc::corrupt_data, "expected pong"};
  return {};
}

}  // namespace clc::orb
