// The ORB: object adapter + dynamic invocation engine.
//
// One Orb instance serves one CORBA-LC node (or one process in tests). It
// owns an object adapter mapping object keys to servants, serves incoming
// request frames (handed to it by whichever transports the node listens
// on), and performs outgoing invocations: marshal arguments per the
// Interface Repository's operation signature, route the frame (direct
// dispatch when the target lives in this Orb, transport otherwise), and
// unmarshal results, out/inout parameters and user exceptions.
//
// Invocation is dynamic (DII/DSI): there are no generated stubs. A servant
// receives a ServerRequest carrying decoded argument Values and fills in a
// result or a typed user exception.
//
// Invocations come in two flavours sharing one engine: invoke() blocks for
// the outcome, invoke_async() returns a PendingInvocation immediately and
// completes it when the transport delivers the reply -- CORBA AMI. Many
// pending invocations pipeline over one connection, and the hot path is
// deliberately lock-light: per-call state (policies + sleep fn) is one
// snapshot under a shared lock, the request frame is encoded once and
// reused across retries, and the servant/transport/breaker tables each sit
// behind their own lock so concurrent invocations do not serialize.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "idl/repository.hpp"
#include "obs/interceptor.hpp"
#include "obs/metrics.hpp"
#include "orb/health.hpp"
#include "orb/invocation.hpp"
#include "orb/message.hpp"
#include "orb/object_ref.hpp"
#include "orb/resilience.hpp"
#include "orb/transport.hpp"
#include "orb/value.hpp"
#include "util/clock.hpp"

namespace clc::orb {

/// Server-side view of one invocation, passed to Servant::dispatch.
class ServerRequest {
 public:
  ServerRequest(std::string operation, std::vector<Value> args)
      : operation_(std::move(operation)), args_(std::move(args)) {}

  [[nodiscard]] const std::string& operation() const noexcept {
    return operation_;
  }
  /// in/inout arguments are decoded; out arguments arrive as void Values
  /// and must be assigned before returning.
  [[nodiscard]] std::vector<Value>& args() noexcept { return args_; }
  [[nodiscard]] const Value& arg(std::size_t i) const { return args_.at(i); }

  void set_result(Value v) { result_ = std::move(v); }
  void raise(UserException ex) { exception_ = std::move(ex); }

  [[nodiscard]] const Value& result() const noexcept { return result_; }
  [[nodiscard]] const std::optional<UserException>& exception() const noexcept {
    return exception_;
  }

 private:
  std::string operation_;
  std::vector<Value> args_;
  Value result_;
  std::optional<UserException> exception_;
};

/// Base class for all object implementations.
class Servant {
 public:
  virtual ~Servant() = default;
  /// Scoped IDL name of the most-derived interface this servant implements.
  [[nodiscard]] virtual std::string interface_name() const = 0;
  /// Handle one decoded invocation. Recoverable model errors should be
  /// raised as user exceptions via req.raise(); returning an Error produces
  /// a system exception at the caller.
  virtual Result<void> dispatch(ServerRequest& req) = 0;
};

/// Convenience servant: operation name -> handler function.
class DynamicServant : public Servant {
 public:
  using Handler = std::function<Result<void>(ServerRequest&)>;

  explicit DynamicServant(std::string interface_name)
      : interface_(std::move(interface_name)) {}

  [[nodiscard]] std::string interface_name() const override {
    return interface_;
  }
  DynamicServant& on(const std::string& operation, Handler h) {
    handlers_[operation] = std::move(h);
    return *this;
  }
  Result<void> dispatch(ServerRequest& req) override {
    auto it = handlers_.find(req.operation());
    if (it == handlers_.end())
      return Error{Errc::unsupported,
                   interface_ + " does not handle " + req.operation()};
    return it->second(req);
  }

 private:
  std::string interface_;
  std::map<std::string, Handler> handlers_;
};

/// Interceptor treatment of collocated (same-Orb) invocations. `direct`
/// skips the interceptor chain on the collocated fast path -- the classic
/// ORB collocation optimization (TAO's direct strategy does the same), which
/// keeps always-on observability off the latency floor of local calls.
/// `through_frame` runs the full chain even when target and caller share an
/// Orb, matching the strict CORBA PI semantics at the cost of the chain.
enum class CollocationPolicy : std::uint8_t { direct, through_frame };

namespace detail {
struct AsyncCall;
struct HedgeJoin;
}  // namespace detail

/// Server-side admission gate (DESIGN.md §16). The owning Node installs an
/// adapter over core::AdmissionController; the Orb consults it before
/// dispatching each decoded request and answers shed calls with a BUSY
/// reply carrying Errc::overloaded -- retryable, so clients distinguish
/// "shed" from "dead". The gate also supplies the credit hint the server
/// piggybacks on replies while its queue is pressured.
class AdmissionGate {
 public:
  virtual ~AdmissionGate() = default;
  /// Gate one request before dispatch; an error sheds the call.
  virtual Result<void> admit(const std::string& interface_name,
                             const std::string& operation) = 0;
  /// Per-client in-flight window to piggyback on replies; 0 = no hint.
  virtual std::uint32_t credit_hint() = 0;
  /// Current queue-delay estimate in µs (rides the credit context).
  virtual std::uint64_t queue_delay_us() = 0;
  /// Observed service time of one dispatched request (µs), reported after
  /// the servant returns. Default no-op; the Node's gate feeds it into the
  /// AdmissionController's learned per-op cost estimator (DESIGN.md §17).
  virtual void record_service_time(const std::string& interface_name,
                                   const std::string& operation,
                                   std::uint64_t service_us) {
    (void)interface_name;
    (void)operation;
    (void)service_us;
  }
};

class Orb {
 public:
  /// `metrics` lets the owning Node share one registry across its layers;
  /// when null the Orb owns a private registry (standalone orbs, tests).
  Orb(NodeId node_id, std::shared_ptr<idl::InterfaceRepository> repo,
      obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] NodeId node_id() const noexcept { return node_id_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] idl::InterfaceRepository& repository() noexcept {
    return *repo_;
  }
  [[nodiscard]] const std::shared_ptr<idl::InterfaceRepository>&
  repository_ptr() const noexcept {
    return repo_;
  }

  // --------------------------------------------------------------- server

  /// The endpoint advertised in references minted by this Orb. Set it after
  /// registering with a transport (loopback or TCP).
  void set_endpoint(std::string endpoint) { endpoint_ = std::move(endpoint); }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }

  /// Incarnation stamped into every reference this Orb mints. The Node
  /// bumps it on restart, after re-registering a fresh endpoint, so
  /// pre-crash references are distinguishable and fail retryably.
  void set_incarnation(std::uint64_t incarnation) noexcept {
    incarnation_ = incarnation;
  }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

  /// Activate a servant under a fresh object key; returns its reference.
  ObjectRef activate(std::shared_ptr<Servant> servant);
  /// Activate under a caller-chosen key (well-known objects).
  ObjectRef activate_with_key(std::shared_ptr<Servant> servant, Uuid key);
  Result<void> deactivate(const Uuid& key);
  /// Deactivate AND remember the key as retired: requests for it answer
  /// with a retryable `unreachable` system exception instead of the
  /// permanent `not_found`, so stale ObjectRefs held by remote callers are
  /// redirected through their retry/rebind path (dual-primary resolution
  /// kills the losing instance this way).
  void retire_object(const Uuid& key);
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::shared_ptr<Servant> find_servant(const Uuid& key) const;

  /// Transport-facing entry point: decode a frame, dispatch, encode reply.
  /// Thread-safe: a server worker pool may call it concurrently.
  Bytes handle_frame(BytesView frame);

  /// Install (or clear, with nullptr) the admission gate consulted before
  /// every dispatched request. Shed calls answer with a BUSY reply.
  void set_admission_gate(std::shared_ptr<AdmissionGate> gate) {
    std::unique_lock lock(policy_mutex_);
    admission_gate_ = std::move(gate);
  }

  // --------------------------------------------------------------- client

  /// Use this transport for remote endpoints with the given scheme prefix
  /// ("loop", "tcp").
  void add_transport(const std::string& scheme,
                     std::shared_ptr<Transport> transport);

  /// Full DII invocation. `args` must have one entry per IDL parameter
  /// (out params may be default Values); on return, out/inout entries are
  /// replaced with the values produced by the servant. `opts` marks the
  /// call idempotent (retry-eligible) and can tighten the deadline.
  Result<InvokeOutcome> invoke(const ObjectRef& target,
                               const std::string& operation,
                               std::vector<Value>& args,
                               const InvokeOptions& opts = {});

  /// Asynchronous DII invocation (CORBA AMI): returns immediately with a
  /// handle the caller may poll, wait on, or attach a continuation to.
  /// The resilience policies (deadline, retry with backoff, breaker) apply
  /// per pending call exactly as for invoke(); retries re-use the
  /// originally encoded frame and run on whichever thread completes the
  /// failed attempt. invoke() itself is invoke_async() + wait.
  PendingInvocation invoke_async(const ObjectRef& target,
                                 const std::string& operation,
                                 std::vector<Value> args,
                                 const InvokeOptions& opts = {});

  /// Convenience: invocation where a user exception is an Error
  /// (Errc::remote_exception with the exception name in the message).
  Result<Value> call(const ObjectRef& target, const std::string& operation,
                     std::vector<Value> args = {},
                     const InvokeOptions& opts = {});

  /// Hedged invocation over a replica set (DESIGN.md §17). Replicas are
  /// ranked by endpoint_health_score; the call goes to the healthiest, and
  /// — when the hedge policy is enabled, the call is idempotent, and the
  /// ~5% budget allows — a speculative second attempt goes to the next
  /// replica once the primary has been silent past its estimated p95
  /// latency (or immediately, if the primary fails retryably first). The
  /// first definitive outcome wins; the loser's reply is discarded. With
  /// hedging off (or a single replica) this is exactly invoke_async on the
  /// best replica. The wire sees only ordinary request frames.
  PendingInvocation invoke_hedged(std::vector<ObjectRef> replicas,
                                  const std::string& operation,
                                  std::vector<Value> args,
                                  const InvokeOptions& opts = {});

  /// call()-shaped wrapper over invoke_hedged.
  Result<Value> call_hedged(std::vector<ObjectRef> replicas,
                            const std::string& operation,
                            std::vector<Value> args = {},
                            const InvokeOptions& opts = {});

  /// One-way invocation (no reply, best effort).
  Result<void> send(const ObjectRef& target, const std::string& operation,
                    std::vector<Value> args = {},
                    const InvokeOptions& opts = {});

  /// Liveness probe of a peer endpoint.
  Result<void> ping(const std::string& endpoint);

  // ------------------------------------------------------------ resilience

  /// Deadline/retry/circuit-breaker defaults for every remote invocation.
  void set_invocation_policies(InvocationPolicies p) {
    std::unique_lock lock(policy_mutex_);
    policies_ = p;
  }
  [[nodiscard]] InvocationPolicies invocation_policies() const {
    std::shared_lock lock(policy_mutex_);
    return policies_;
  }

  /// Clock driving deadlines, backoff accounting and the invoke-latency
  /// histogram. Defaults to the real (steady) clock; a LocalNetwork hands
  /// its manual clock in so tests never read wall time. Non-owning.
  void set_clock(const Clock* clock) noexcept {
    clock_ = clock != nullptr ? clock : &default_clock_;
  }
  /// How retry backoff waits; defaults to a real sleep. Deterministic
  /// environments substitute a virtual-clock advance.
  void set_sleep_fn(std::function<void(Duration)> fn) {
    std::unique_lock lock(policy_mutex_);
    sleep_fn_ = std::move(fn);
  }

  /// How hedge timers wait: fn(delay, fire) must run `fire` once, `delay`
  /// from now, without blocking the caller. Defaults to a detached
  /// real-time thread; deterministic tests install a manual timer.
  using TimerFn = std::function<void(Duration, std::function<void()>)>;
  void set_timer_fn(TimerFn fn) {
    std::unique_lock lock(policy_mutex_);
    timer_fn_ = std::move(fn);
  }

  /// Breaker state of a remote endpoint (closed when never used).
  [[nodiscard]] CircuitBreaker::State breaker_state(
      const std::string& endpoint) const;

  // --------------------------------------------------------------- health

  /// Per-endpoint latency estimator fed by every completed remote
  /// invocation (hedge delays and health scores read it).
  [[nodiscard]] EndpointHealthTracker& health() noexcept { return health_; }

  /// One scalar ranking an endpoint for binding: smoothed latency (µs)
  /// scaled up by breaker state (half-open ×8, open ×64), a narrowed
  /// credit window (×(1 + 8/window)) and the failure streak (×2^streak,
  /// capped). Lower is healthier; collocated endpoints score 0.
  [[nodiscard]] double endpoint_health_score(const std::string& endpoint) const;

  /// Stable-sort references healthiest-first by endpoint_health_score.
  void rank_by_health(std::vector<ObjectRef>& replicas) const;

  // --------------------------------------------------------- backpressure

  /// Current credit window toward an endpoint (0 = unlimited: no credit
  /// hint received, or the server's pressure has cleared and the window
  /// ramped back up).
  [[nodiscard]] std::uint32_t endpoint_credit_window(
      const std::string& endpoint) const;
  /// Consecutive transport-class failures recorded against an endpoint
  /// (reset by any success). Feeds retry backoff so it survives breaker
  /// half-open probes instead of restarting from the base delay.
  [[nodiscard]] int endpoint_failure_streak(const std::string& endpoint) const;

  // --------------------------------------------------------- observability

  /// Portable-Interceptors-style hooks on the invocation path. Request-
  /// direction hooks run in registration order, reply-direction in reverse.
  void add_client_interceptor(std::shared_ptr<obs::ClientInterceptor> i) {
    interceptors_.add_client(std::move(i));
  }
  void add_server_interceptor(std::shared_ptr<obs::ServerInterceptor> i) {
    interceptors_.add_server(std::move(i));
  }

  /// See CollocationPolicy; the default is `direct`.
  void set_collocation_policy(CollocationPolicy p) noexcept {
    collocation_policy_ = p;
  }
  [[nodiscard]] CollocationPolicy collocation_policy() const noexcept {
    return collocation_policy_;
  }

  /// Legacy view of the invocation counters, assembled from the metrics
  /// registry ("orb.*" names).
  struct Stats {
    std::uint64_t invocations_sent = 0;
    std::uint64_t invocations_served = 0;
    std::uint64_t local_dispatches = 0;
  };
  [[nodiscard]] Stats stats() const;
  /// Zero every "orb.*" metric (counters and the latency histogram alike).
  void reset_stats();

 private:
  friend struct detail::AsyncCall;
  friend struct detail::HedgeJoin;

  /// Everything a single invocation needs from the mutable configuration,
  /// captured in ONE shared-lock acquisition at invocation start -- the
  /// retry loop never goes back to the lock.
  struct PolicySnapshot {
    InvocationPolicies policies;
    std::function<void(Duration)> sleep_fn;
  };
  [[nodiscard]] PolicySnapshot snapshot_policies() const;

  Result<Bytes> marshal_request_args(const idl::OperationDef& op,
                                     const std::vector<Value>& args);
  Bytes handle_frame_impl(BytesView frame, bool intercept_server);
  Result<ReplyMessage> dispatch_request(const RequestMessage& req);
  Result<InvokeOutcome> decode_reply(const idl::OperationDef& op,
                                     const ReplyMessage& reply,
                                     std::vector<Value>& args);
  Result<Transport*> transport_for(const std::string& endpoint);
  /// The shared engine behind invoke()/invoke_async(): validate, marshal,
  /// encode the frame once, then dispatch locally (inline) or start the
  /// asynchronous attempt state machine. Always returns a state that will
  /// complete (possibly already has).
  std::shared_ptr<detail::PendingState> invoke_pending(
      const ObjectRef& target, const std::string& operation,
      std::vector<Value> args, const InvokeOptions& opts);
  CircuitBreaker* breaker_for(const std::string& endpoint,
                              const BreakerPolicy& policy);

  // Per-endpoint credit-window flow control (DESIGN.md §16). A call either
  // acquires an in-flight slot immediately or parks in the deferred queue;
  // completions release the slot and grant queued calls. `limit == 0`
  // means unlimited (no server credit hint in effect).
  struct EndpointFlow {
    std::uint32_t limit = 0;
    std::uint32_t inflight = 0;
    bool draining = false;  // a drain loop is already running
    std::deque<std::shared_ptr<detail::AsyncCall>> deferred;
  };
  /// True: slot acquired, start the attempt now. False: call parked; the
  /// drain loop will start it when a slot frees up.
  bool flow_acquire(const std::string& endpoint,
                    const std::shared_ptr<detail::AsyncCall>& call);
  void flow_release(const std::string& endpoint);
  /// Grant deferred calls while slots are available (iterative, re-entrancy
  /// safe via EndpointFlow::draining).
  void flow_drain(const std::string& endpoint);
  /// Reply carried a credit hint: adopt the advertised window.
  void note_credit(const std::string& endpoint, std::uint32_t window);
  /// Successful reply without a hint: ramp a limited window back up.
  void note_credit_absent(const std::string& endpoint);
  /// Endpoint-level backoff memory (survives breaker half-open probes).
  /// The streak decays with a half-life (halved per elapsed half-life
  /// window since the last failure) so an idle endpoint's history fades
  /// instead of persisting forever; any success still resets it to 0.
  struct FailureStreak {
    int streak = 0;
    TimePoint last_failure = 0;
  };
  [[nodiscard]] static int decayed_streak(const FailureStreak& s,
                                          TimePoint now) noexcept;
  int note_endpoint_failure(const std::string& endpoint);
  void note_endpoint_success(const std::string& endpoint);

  /// Budget gate for one prospective hedge (counts it when allowed).
  bool hedge_budget_allows(const HedgePolicy& policy);
  /// Arm fn to run `delay` from now (TimerFn, or a detached thread).
  void arm_timer(Duration delay, std::function<void()> fn);

  NodeId node_id_;
  std::shared_ptr<idl::InterfaceRepository> repo_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* invocations_sent_;
  obs::Counter* invocations_async_;
  obs::Counter* invocations_served_;
  obs::Counter* local_dispatches_;
  obs::Counter* retries_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* breaker_opened_;
  obs::Counter* breaker_rejected_;
  obs::Counter* server_shed_;
  obs::Counter* backpressure_deferred_;
  obs::Counter* credit_hints_;
  obs::Counter* hedges_;
  obs::Counter* hedge_wins_;
  obs::Gauge* inflight_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* invoke_us_;
  obs::InterceptorChain interceptors_;
  CollocationPolicy collocation_policy_ = CollocationPolicy::direct;
  std::string endpoint_;
  std::uint64_t incarnation_ = 1;
  SystemClock default_clock_;
  const Clock* clock_ = &default_clock_;

  // Sharded state: each table behind its own lock so the invocation hot
  // path never contends on a global mutex. Reader-heavy tables (policies,
  // servants, transports) use shared_mutex; the breaker table is a plain
  // mutex (touched once per remote invocation, for the map lookup only --
  // each CircuitBreaker synchronizes itself).
  mutable std::shared_mutex policy_mutex_;
  InvocationPolicies policies_;          // under policy_mutex_
  std::function<void(Duration)> sleep_fn_;  // under policy_mutex_
  TimerFn timer_fn_;                     // under policy_mutex_
  std::shared_ptr<AdmissionGate> admission_gate_;  // under policy_mutex_
  mutable std::mutex breaker_mutex_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::map<std::string, FailureStreak> failure_streaks_;  // under breaker_mutex_
  EndpointHealthTracker health_;         // internally synchronized
  // Hedge budget accounting: hedge-eligible calls seen / hedges issued.
  std::atomic<std::uint64_t> hedge_eligible_{0};
  std::atomic<std::uint64_t> hedges_issued_{0};
  mutable std::mutex flow_mutex_;
  std::map<std::string, EndpointFlow> flows_;   // under flow_mutex_
  mutable std::shared_mutex servants_mutex_;
  std::map<Uuid, std::shared_ptr<Servant>> servants_;
  std::set<Uuid> retired_;               // under servants_mutex_
  std::mutex rng_mutex_;
  Rng rng_{0x0bbf};  // object-key minting only; backoff jitter is per-call
  std::atomic<std::uint64_t> next_request_id_{1};
  // Declared last: destroying a transport joins its reader threads, and
  // completion callbacks running during that teardown still touch the
  // members above.
  mutable std::shared_mutex transports_mutex_;
  std::map<std::string, std::shared_ptr<Transport>> transports_;
};

}  // namespace clc::orb
