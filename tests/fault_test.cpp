// Chaos layer tests: deterministic fault plans, the FaultyTransport
// decorator, client-side resilience (deadline / retry / circuit breaker)
// and seeded fault schedules driven through whole Node networks, both
// in-process (LocalNetwork) and in the discrete-event simulator.
//
// Everything here is deterministic: fault decisions are pure functions of
// (seed, sequence number), time is a ManualClock, and backoff "sleeps"
// advance virtual time. The replay tests assert exactly that.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "fault/faulty_transport.hpp"
#include "fault/plan.hpp"
#include "orb/orb.hpp"
#include "orb/resilience.hpp"
#include "orb/transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/test_components.hpp"
#include "util/clock.hpp"

namespace clc {
namespace {

bool same_decision(const fault::FaultDecision& a,
                   const fault::FaultDecision& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.reset == b.reset && a.delay == b.delay &&
         a.corrupt_offsets == b.corrupt_offsets;
}

// ---------------------------------------------------------------- fault plan

TEST(FaultPlan, DecideIsAPureFunctionOfSeedAndSequence) {
  fault::FaultPlan plan;
  plan.seed = 0xfeed;
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.1;
  plan.reset_probability = 0.05;
  plan.corrupt_probability = 0.1;
  plan.delay_probability = 0.2;
  plan.delay_min = milliseconds(1);
  plan.delay_max = milliseconds(5);
  for (std::uint64_t seq = 0; seq < 512; ++seq) {
    EXPECT_TRUE(same_decision(plan.decide(seq, 128), plan.decide(seq, 128)))
        << "seq " << seq;
  }
  // A different seed yields a different schedule.
  fault::FaultPlan other = plan;
  other.seed = 0xbeef;
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 512; ++seq)
    differing += !same_decision(plan.decide(seq, 128), other.decide(seq, 128));
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, DropRateTracksProbability) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 0.3;
  int drops = 0;
  constexpr int kN = 10000;
  for (std::uint64_t seq = 0; seq < kN; ++seq)
    drops += plan.decide(seq, 64).drop;
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.3, 0.03);
}

TEST(FaultPlan, InactiveWhenAllProbabilitiesZero) {
  fault::FaultPlan plan;
  plan.seed = 1;
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.decide(0, 64).any());
  plan.drop_probability = 0.01;
  EXPECT_TRUE(plan.active());
}

TEST(CrashSchedule, SameSeedReplaysTheSameTimetable) {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 1; i <= 10; ++i) nodes.push_back(NodeId{i});
  const auto a = fault::CrashSchedule::random(99, nodes, 4, seconds(60),
                                              seconds(2), seconds(8));
  const auto b = fault::CrashSchedule::random(99, nodes, 4, seconds(60),
                                              seconds(2), seconds(8));
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.events.size(), 4u);
  std::set<std::uint64_t> victims;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    victims.insert(a.events[i].node.value);
    EXPECT_LT(a.events[i].at, seconds(60));
    EXPECT_GE(a.events[i].restart_after, seconds(2));
    EXPECT_LE(a.events[i].restart_after, seconds(8));
    if (i > 0) EXPECT_GE(a.events[i].at, a.events[i - 1].at);
  }
  EXPECT_EQ(victims.size(), 4u) << "a node is crashed at most once";
  const auto c = fault::CrashSchedule::random(100, nodes, 4, seconds(60),
                                              seconds(2), seconds(8));
  EXPECT_NE(a.events, c.events) << "different seeds should differ";
}

TEST(PartitionSchedule, SameSeedReplaysTheSameTimetable) {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 1; i <= 8; ++i) nodes.push_back(NodeId{i});
  const auto a = fault::PartitionSchedule::random(
      0x9a27, nodes, 5, seconds(120), seconds(4), seconds(12), 0.5);
  const auto b = fault::PartitionSchedule::random(
      0x9a27, nodes, 5, seconds(120), seconds(4), seconds(12), 0.5);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.events.size(), 5u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& ev = a.events[i];
    EXPECT_LT(ev.at, seconds(120));
    EXPECT_GE(ev.heal_after, seconds(4));
    EXPECT_LE(ev.heal_after, seconds(12));
    EXPECT_FALSE(ev.cuts.empty());
    // Every cut is between two distinct known nodes, each direction listed
    // at most once.
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const fault::LinkCut& c : ev.cuts) {
      EXPECT_NE(c.from, c.to);
      EXPECT_TRUE(seen.insert({c.from.value, c.to.value}).second);
    }
    if (i > 0) EXPECT_GE(ev.at, a.events[i - 1].at);
  }
  // Asymmetric probability 0.5 over 5 episodes: with this seed both shapes
  // must occur (a symmetric episode has both directions of each pair, an
  // asymmetric one only minority→majority).
  int asymmetric = 0;
  for (const auto& ev : a.events) {
    bool symmetric = true;
    for (const fault::LinkCut& c : ev.cuts) {
      symmetric = symmetric &&
                  std::find(ev.cuts.begin(), ev.cuts.end(),
                            fault::LinkCut{c.to, c.from}) != ev.cuts.end();
    }
    asymmetric += !symmetric;
  }
  EXPECT_GT(asymmetric, 0);
  EXPECT_LT(asymmetric, 5);
  const auto c = fault::PartitionSchedule::random(
      0x9a28, nodes, 5, seconds(120), seconds(4), seconds(12), 0.5);
  EXPECT_NE(a.events, c.events) << "different seeds should differ";
}

TEST(FaultInjector, IdenticalPlansReplayIdenticalEventLogs) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.drop_probability = 0.15;
  plan.duplicate_probability = 0.1;
  plan.reset_probability = 0.05;
  plan.corrupt_probability = 0.2;
  plan.delay_probability = 0.1;
  plan.delay_min = microseconds(100);
  plan.delay_max = milliseconds(2);

  fault::FaultInjector a;
  fault::FaultInjector b;
  a.arm(plan);
  b.arm(plan);
  for (int i = 0; i < 500; ++i) {
    const std::size_t size = 32 + static_cast<std::size_t>(i % 100);
    (void)a.next(size);
    (void)b.next(size);
  }
  EXPECT_EQ(a.sequence(), b.sequence());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_FALSE(a.events().empty());
}

TEST(FaultInjector, ArmRestartsTheScheduleAndDisarmStopsIt) {
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.drop_probability = 1.0;
  fault::FaultInjector inj;
  inj.arm(plan);
  EXPECT_TRUE(inj.active());
  EXPECT_TRUE(inj.next(8).drop);
  const auto first = inj.events();
  inj.arm(plan);  // restart: sequence and log reset
  EXPECT_EQ(inj.sequence(), 0u);
  EXPECT_TRUE(inj.next(8).drop);
  EXPECT_EQ(inj.events(), first);
  inj.disarm();
  EXPECT_FALSE(inj.active());
}

TEST(FaultInjector, CorruptFlipsExactlyTheDecidedBytes) {
  fault::FaultDecision d;
  d.corrupt_offsets = {0, 3};
  Bytes frame = {0x10, 0x20, 0x30, 0x40};
  fault::FaultInjector::corrupt(frame, d);
  EXPECT_EQ(frame, (Bytes{0x10 ^ 0xA5, 0x20, 0x30, 0x40 ^ 0xA5}));
  // Offsets wrap instead of over-running short frames.
  fault::FaultDecision wide;
  wide.corrupt_offsets = {5};
  Bytes tiny = {0xFF, 0x00};
  fault::FaultInjector::corrupt(tiny, wide);
  EXPECT_EQ(tiny, (Bytes{0xFF, 0x00 ^ 0xA5}));
}

// ------------------------------------------------------------ faulty transport

constexpr const char* kCalcIdl = R"(
module f { interface Calc { long add(in long a, in long b);
                            oneway void fire(in string tag); }; };
)";

/// A server/client Orb pair whose client traffic crosses a FaultyTransport,
/// with virtual time (deadlines and backoff advance a ManualClock).
struct FaultyPair {
  std::shared_ptr<idl::InterfaceRepository> repo;
  std::shared_ptr<orb::LoopbackNetwork> net;
  std::shared_ptr<fault::FaultyTransport> faults;
  std::unique_ptr<orb::Orb> server;
  std::unique_ptr<orb::Orb> client;
  ManualClock clock;
  orb::ObjectRef calc;
  int served = 0;
  int fired = 0;
};

std::unique_ptr<FaultyPair> make_faulty_pair() {
  auto p = std::make_unique<FaultyPair>();
  p->repo = std::make_shared<idl::InterfaceRepository>();
  EXPECT_TRUE(p->repo->register_idl(kCalcIdl).ok());
  p->net = std::make_shared<orb::LoopbackNetwork>();
  p->faults = std::make_shared<fault::FaultyTransport>(p->net);
  p->server = std::make_unique<orb::Orb>(NodeId{1}, p->repo);
  p->client = std::make_unique<orb::Orb>(NodeId{2}, p->repo);
  auto* server = p->server.get();
  p->server->set_endpoint(p->net->register_endpoint(
      [server](BytesView frame) { return server->handle_frame(frame); }));
  p->client->add_transport("loop", p->faults);
  FaultyPair* raw = p.get();
  p->client->set_clock(&p->clock);
  p->client->set_sleep_fn([raw](Duration d) { raw->clock.advance(d); });
  p->faults->set_sleep_fn([raw](Duration d) { raw->clock.advance(d); });
  auto servant = std::make_shared<orb::DynamicServant>("f::Calc");
  servant->on("add", [raw](orb::ServerRequest& req) -> Result<void> {
    ++raw->served;
    req.set_result(orb::Value(static_cast<std::int32_t>(
        *req.arg(0).to_int() + *req.arg(1).to_int())));
    return {};
  });
  servant->on("fire", [raw](orb::ServerRequest&) -> Result<void> {
    ++raw->fired;
    return {};
  });
  p->calc = p->server->activate(servant);
  return p;
}

fault::FaultPlan only(double fault::FaultPlan::*knob) {
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.*knob = 1.0;
  return plan;
}

TEST(FaultyTransport, PassThroughWhenDisarmed) {
  auto p = make_faulty_pair();
  auto r = p->client->call(p->calc, "add",
                           {orb::Value(std::int32_t{2}),
                            orb::Value(std::int32_t{3})});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, orb::Value(std::int32_t{5}));
}

TEST(FaultyTransport, DropSurfacesAsTimeout) {
  auto p = make_faulty_pair();
  p->faults->injector().arm(only(&fault::FaultPlan::drop_probability));
  auto r = p->client->call(p->calc, "add",
                           {orb::Value(std::int32_t{1}),
                            orb::Value(std::int32_t{1})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_EQ(p->served, 0);
}

TEST(FaultyTransport, ResetSurfacesAsUnreachable) {
  auto p = make_faulty_pair();
  p->faults->injector().arm(only(&fault::FaultPlan::reset_probability));
  auto r = p->client->call(p->calc, "add",
                           {orb::Value(std::int32_t{1}),
                            orb::Value(std::int32_t{1})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unreachable);
}

TEST(FaultyTransport, DuplicateReplaysTheRequestAgainstTheServer) {
  auto p = make_faulty_pair();
  p->faults->injector().arm(only(&fault::FaultPlan::duplicate_probability));
  auto r = p->client->call(p->calc, "add",
                           {orb::Value(std::int32_t{20}),
                            orb::Value(std::int32_t{22})});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, orb::Value(std::int32_t{42}));
  EXPECT_EQ(p->served, 2);  // idempotent server absorbed the duplicate
}

TEST(FaultyTransport, CorruptionSurfacesAsErrorsNeverCrashes) {
  auto p = make_faulty_pair();
  fault::FaultPlan plan = only(&fault::FaultPlan::corrupt_probability);
  plan.corrupt_max_bytes = 6;
  p->faults->injector().arm(plan);
  int failures = 0;
  for (int i = 0; i < 32; ++i) {
    auto r = p->client->call(p->calc, "add",
                             {orb::Value(std::int32_t{i}),
                              orb::Value(std::int32_t{i})});
    failures += !r.ok();
  }
  // Every frame had bytes flipped; most invocations must have noticed (a
  // flip can land in alignment padding, so not necessarily all), and none
  // crashed or hung.
  EXPECT_GT(failures, 0);
}

TEST(FaultyTransport, InjectedDelayAdvancesVirtualTimeOnly) {
  auto p = make_faulty_pair();
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.delay_probability = 1.0;
  plan.delay_min = milliseconds(10);
  plan.delay_max = milliseconds(10);
  p->faults->injector().arm(plan);
  const TimePoint before = p->clock.now();
  auto r = p->client->call(p->calc, "add",
                           {orb::Value(std::int32_t{1}),
                            orb::Value(std::int32_t{2})});
  ASSERT_TRUE(r.ok());
  // Request and reply crossings are delayed independently.
  EXPECT_EQ(p->clock.now() - before, milliseconds(20));
}

TEST(FaultyTransport, OnewayDropIsSilentButResetSurfaces) {
  auto p = make_faulty_pair();
  p->faults->injector().arm(only(&fault::FaultPlan::drop_probability));
  auto dropped = p->client->send(p->calc, "fire", {orb::Value("a")});
  EXPECT_TRUE(dropped.ok());  // fire-and-forget: a lost oneway is not an error
  EXPECT_EQ(p->fired, 0);

  p->faults->injector().arm(only(&fault::FaultPlan::reset_probability));
  auto reset = p->client->send(p->calc, "fire", {orb::Value("b")});
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.error().code, Errc::unreachable);
}

// ----------------------------------------------------------------- resilience

TEST(Resilience, RetryableErrcsAreTransportClassOnly) {
  EXPECT_TRUE(orb::errc_is_retryable(Errc::timeout));
  EXPECT_TRUE(orb::errc_is_retryable(Errc::unreachable));
  EXPECT_TRUE(orb::errc_is_retryable(Errc::io_error));
  EXPECT_TRUE(orb::errc_is_retryable(Errc::corrupt_data));
  EXPECT_FALSE(orb::errc_is_retryable(Errc::not_found));
  EXPECT_FALSE(orb::errc_is_retryable(Errc::invalid_argument));
  EXPECT_FALSE(orb::errc_is_retryable(Errc::remote_exception));
  EXPECT_FALSE(orb::errc_is_retryable(Errc::refused));
}

TEST(Resilience, BackoffGrowsExponentiallyWithBoundedJitter) {
  orb::RetryPolicy policy;
  policy.initial_backoff = milliseconds(2);
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0;
  Rng rng(5);
  EXPECT_EQ(orb::backoff_delay(policy, 1, rng), milliseconds(2));
  EXPECT_EQ(orb::backoff_delay(policy, 2, rng), milliseconds(4));
  EXPECT_EQ(orb::backoff_delay(policy, 3, rng), milliseconds(8));

  policy.jitter = 0.5;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const Duration base = milliseconds(2) << (attempt - 1);
    const Duration d = orb::backoff_delay(policy, attempt, rng);
    EXPECT_GE(d, base / 2) << "attempt " << attempt;
    EXPECT_LE(d, base + base / 2) << "attempt " << attempt;
  }
}

/// Transport test double: fails a scripted number of submissions (-1 =
/// forever), then passes through to the wrapped transport.
class ScriptedTransport final : public orb::Transport {
 public:
  explicit ScriptedTransport(std::shared_ptr<orb::Transport> inner)
      : inner_(std::move(inner)) {}

  int fail_next = 0;
  Errc failure = Errc::timeout;
  int calls = 0;

  void submit(const std::string& endpoint, BytesView frame,
              orb::ReplyCallback cb,
              orb::Delivery delivery = orb::Delivery::request_reply) override {
    ++calls;
    if (fail_next != 0) {
      if (fail_next > 0) --fail_next;
      cb(Error{failure, "scripted transport failure"});
      return;
    }
    inner_->submit(endpoint, frame, std::move(cb), delivery);
  }

 private:
  std::shared_ptr<orb::Transport> inner_;
};

struct ResilientPair {
  std::unique_ptr<FaultyPair> base;
  std::shared_ptr<ScriptedTransport> scripted;
};

ResilientPair make_resilient_pair(const orb::InvocationPolicies& policies) {
  ResilientPair r;
  r.base = make_faulty_pair();
  r.scripted = std::make_shared<ScriptedTransport>(r.base->net);
  // Replace the faulty decorator with the scripted double for exact control.
  r.base->client->add_transport("loop", r.scripted);
  r.base->client->set_invocation_policies(policies);
  return r;
}

TEST(Resilience, IdempotentCallsRetryThroughTransientFailures) {
  orb::InvocationPolicies policies;
  policies.retry.max_attempts = 4;
  policies.retry.initial_backoff = milliseconds(1);
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = 2;

  auto r = p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{40}),
                                 orb::Value(std::int32_t{2})},
                                {.idempotent = true});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, orb::Value(std::int32_t{42}));
  EXPECT_EQ(p.scripted->calls, 3);
  EXPECT_EQ(p.base->client->metrics().counter("orb.retries").value(), 2u);
  EXPECT_GT(p.base->clock.now(), 0);  // backoff advanced virtual time
}

TEST(Resilience, NonIdempotentCallsNeverRetry) {
  orb::InvocationPolicies policies;
  policies.retry.max_attempts = 4;
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = 1;

  auto r = p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{1}),
                                 orb::Value(std::int32_t{1})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_EQ(p.scripted->calls, 1);
  EXPECT_EQ(p.base->client->metrics().counter("orb.retries").value(), 0u);
}

TEST(Resilience, ModelErrorsAreNotRetriedEvenWhenIdempotent) {
  orb::InvocationPolicies policies;
  policies.retry.max_attempts = 4;
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = -1;
  p.scripted->failure = Errc::not_found;

  auto r = p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{1}),
                                 orb::Value(std::int32_t{1})},
                                {.idempotent = true});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(p.scripted->calls, 1);
}

TEST(Resilience, DeadlineBoundsTheTotalRetryBudget) {
  orb::InvocationPolicies policies;
  policies.deadline = milliseconds(10);
  policies.retry.max_attempts = 1000;
  policies.retry.initial_backoff = milliseconds(1);
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = -1;

  auto r = p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{1}),
                                 orb::Value(std::int32_t{1})},
                                {.idempotent = true});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_LT(p.scripted->calls, 40);  // far fewer than max_attempts
  EXPECT_GE(p.base->clock.now(), milliseconds(10));
  EXPECT_EQ(
      p.base->client->metrics().counter("orb.deadline_exceeded").value(), 1u);
}

TEST(Resilience, PerCallDeadlineOverridesThePolicy) {
  orb::InvocationPolicies policies;
  policies.deadline = seconds(60);
  policies.retry.max_attempts = 1000;
  policies.retry.initial_backoff = milliseconds(1);
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = -1;

  auto r = p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{1}),
                                 orb::Value(std::int32_t{1})},
                                {.idempotent = true, .deadline = milliseconds(4)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_LT(p.base->clock.now(), milliseconds(60));
}

// ----------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndProbesHalfOpen) {
  orb::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 2;
  policy.open_duration = seconds(1);
  orb::CircuitBreaker cb(policy);
  using State = orb::CircuitBreaker::State;

  const TimePoint t0 = seconds(100);
  EXPECT_TRUE(cb.admit(t0).ok());
  EXPECT_FALSE(cb.on_failure(t0));
  EXPECT_EQ(cb.state(), State::closed);
  EXPECT_TRUE(cb.on_failure(t0));  // threshold reached: flips to open
  EXPECT_EQ(cb.state(), State::open);

  auto rejected = cb.admit(t0 + milliseconds(10));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::refused);

  // Cool-down passed: one half-open probe admitted, a second refused.
  EXPECT_TRUE(cb.admit(t0 + seconds(1) + milliseconds(1)).ok());
  EXPECT_EQ(cb.state(), State::half_open);
  EXPECT_FALSE(cb.admit(t0 + seconds(1) + milliseconds(2)).ok());

  cb.on_success();
  EXPECT_EQ(cb.state(), State::closed);
  EXPECT_TRUE(cb.admit(t0 + seconds(2)).ok());
}

TEST(CircuitBreaker, FailedProbeReopensTheCircuit) {
  orb::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 1;
  policy.open_duration = seconds(1);
  orb::CircuitBreaker cb(policy);
  using State = orb::CircuitBreaker::State;

  EXPECT_TRUE(cb.on_failure(0));
  EXPECT_EQ(cb.state(), State::open);
  EXPECT_TRUE(cb.admit(seconds(2)).ok());  // probe
  EXPECT_TRUE(cb.on_failure(seconds(2)));
  EXPECT_EQ(cb.state(), State::open);
  EXPECT_FALSE(cb.admit(seconds(2) + milliseconds(500)).ok());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  orb::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 3;
  orb::CircuitBreaker cb(policy);
  EXPECT_FALSE(cb.on_failure(0));
  EXPECT_FALSE(cb.on_failure(0));
  cb.on_success();
  EXPECT_FALSE(cb.on_failure(0));
  EXPECT_FALSE(cb.on_failure(0));
  EXPECT_EQ(cb.state(), orb::CircuitBreaker::State::closed);
}

TEST(Resilience, BreakerOpensFailsFastAndRecovers) {
  orb::InvocationPolicies policies;
  policies.breaker.enabled = true;
  policies.breaker.failure_threshold = 3;
  policies.breaker.open_duration = seconds(1);
  auto p = make_resilient_pair(policies);
  p.scripted->fail_next = -1;
  using State = orb::CircuitBreaker::State;
  auto add_once = [&] {
    return p.base->client->call(p.base->calc, "add",
                                {orb::Value(std::int32_t{1}),
                                 orb::Value(std::int32_t{1})});
  };

  for (int i = 0; i < 3; ++i) EXPECT_FALSE(add_once().ok());
  EXPECT_EQ(p.base->client->breaker_state(p.base->calc.endpoint), State::open);
  EXPECT_EQ(
      p.base->client->metrics().counter("orb.breaker_opened").value(), 1u);

  // Open circuit: fail fast without touching the transport.
  const int calls_before = p.scripted->calls;
  auto rejected = add_once();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::refused);
  EXPECT_EQ(p.scripted->calls, calls_before);
  EXPECT_GE(
      p.base->client->metrics().counter("orb.breaker_rejected").value(), 1u);

  // After the cool-down a healthy probe closes the circuit again.
  p.base->clock.advance(seconds(1) + milliseconds(1));
  p.scripted->fail_next = 0;
  auto recovered = add_once();
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(p.base->client->breaker_state(p.base->calc.endpoint),
            State::closed);
}

// ------------------------------------------------- whole-network chaos runs

struct ChaosOutcome {
  int successes = 0;
  std::vector<fault::FaultEvent> events;
  bool all_joined = false;

  bool operator==(const ChaosOutcome&) const = default;
};

/// One seeded chaos scenario: three nodes, remote-bound calculator, 100
/// calls under an armed fault plan, then disarm and settle.
ChaosOutcome run_chaos_scenario(std::uint64_t seed) {
  core::LocalNetwork net;
  core::Node& a = net.add_node();
  core::Node& b = net.add_node();
  net.add_node();
  EXPECT_TRUE(a.install(testing::calculator_package()).ok());
  net.settle();

  auto bound = b.resolve("demo.calculator", VersionConstraint{},
                         core::Binding::remote);
  EXPECT_TRUE(bound.ok()) << bound.error().to_string();

  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.08;
  plan.reset_probability = 0.02;
  plan.corrupt_probability = 0.02;
  plan.delay_probability = 0.05;
  plan.delay_min = milliseconds(1);
  plan.delay_max = milliseconds(5);
  net.faults().injector().arm(plan);

  ChaosOutcome outcome;
  for (int i = 0; i < 100; ++i) {
    auto r = b.orb().call(bound->primary, "add",
                          {orb::Value(std::int32_t{i}),
                           orb::Value(std::int32_t{1})},
                          {.idempotent = true});
    if (r.ok() && *r == orb::Value(std::int32_t{i + 1})) ++outcome.successes;
  }
  outcome.events = net.faults().injector().events();
  net.faults().injector().disarm();

  // The cohesion layer lived through the same faults (its heartbeats and
  // queries crossed the decorator too); after the chaos window the network
  // must still be whole.
  net.settle();
  outcome.all_joined = true;
  for (core::Node* n : net.nodes())
    outcome.all_joined = outcome.all_joined && n->cohesion().joined();
  return outcome;
}

TEST(Chaos, RetriesKeepCallsSucceedingUnderSeededFaults) {
  const ChaosOutcome outcome = run_chaos_scenario(0xc4a05);
  // ~12% of messages are faulted; with 4 attempts per call the expected
  // failure rate is well under 1%.
  EXPECT_GE(outcome.successes, 97);
  EXPECT_FALSE(outcome.events.empty());
  EXPECT_TRUE(outcome.all_joined);
}

TEST(Chaos, IdenticalSeedsReplayIdenticalSchedulesAndOutcomes) {
  const ChaosOutcome first = run_chaos_scenario(0xd1ce);
  const ChaosOutcome second = run_chaos_scenario(0xd1ce);
  EXPECT_EQ(first, second);
  // And a different seed produces a different fault schedule.
  const ChaosOutcome other = run_chaos_scenario(0x0dd);
  EXPECT_NE(first.events, other.events);
}

// ------------------------------------------------------ simulator integration

class RecordingHost : public sim::SimHost {
 public:
  void on_message(NodeId, const Bytes& payload) override {
    received.push_back(payload);
  }
  std::vector<Bytes> received;
};

struct SimOutcome {
  std::vector<Bytes> delivered;
  std::vector<fault::FaultEvent> events;

  bool operator==(const SimOutcome&) const = default;
};

SimOutcome run_sim_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, 42);
  net.set_link_model({.base_latency = milliseconds(2),
                      .jitter = milliseconds(1),
                      .bytes_per_second = 0,
                      .drop_probability = 0});
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.1;
  plan.corrupt_probability = 0.2;
  plan.delay_probability = 0.2;
  plan.delay_min = milliseconds(1);
  plan.delay_max = milliseconds(20);
  injector.arm(plan);
  net.set_fault_injector(&injector);

  RecordingHost alice;
  RecordingHost bob;
  net.attach(NodeId{1}, &alice);
  net.attach(NodeId{2}, &bob);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_after(milliseconds(10) * static_cast<Duration>(i), [&net, i] {
      net.send(NodeId{1}, NodeId{2},
               Bytes{static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(i >> 8), 0x5A, 0x5A});
    });
  }
  sim.run_until(seconds(60));

  SimOutcome out;
  out.delivered = bob.received;
  out.events = injector.events();
  return out;
}

TEST(SimFaults, PlanDropsDelaysAndCorruptsSimulatedTraffic) {
  const SimOutcome out = run_sim_scenario(0x51f);
  // Some messages dropped...
  EXPECT_LT(out.delivered.size(), 200u);
  EXPECT_GT(out.delivered.size(), 100u);
  // ...and at least one delivered frame carries flipped bytes.
  int corrupted = 0;
  for (const Bytes& b : out.delivered)
    corrupted += b.size() == 4 && (b[2] != 0x5A || b[3] != 0x5A);
  EXPECT_GT(corrupted, 0);
  EXPECT_FALSE(out.events.empty());
}

TEST(SimFaults, SameSeedReplaysTheSimulationExactly) {
  const SimOutcome first = run_sim_scenario(0xace);
  const SimOutcome second = run_sim_scenario(0xace);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace clc
