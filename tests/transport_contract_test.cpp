// Concurrency tier: the one client contract every orb::Transport keeps.
//
// submit() is the only way a frame leaves an Orb. Each case wires one
// transport -- the loopback network inline and with its worker pool, TCP,
// and the fault decorator over loopback (disarmed, armed to drop, armed to
// reset) -- to a serving handler, and checks the same promises:
//   - a request completes with the handler's reply;
//   - a one-way runs the handler, delivers no reply and completes before
//     submit() returns;
//   - an unknown or closed endpoint fails both kinds with Errc::unreachable;
//   - every callback fires exactly once.
// An armed fault decides before the inner transport does, so on those
// cases every frame meets the fault first: a dropped request times out, a
// dropped one-way completes ok (lost, as on a real network), and a reset
// fails both kinds with Errc::unreachable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "fault/faulty_transport.hpp"
#include "fault/plan.hpp"
#include "orb/tcp.hpp"
#include "orb/transport.hpp"

namespace clc::orb {
namespace {

constexpr auto kWait = std::chrono::seconds(10);

/// One transport plus whatever serves its endpoints.
class Rig {
 public:
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  virtual ~Rig() = default;
  virtual Transport& transport() = 0;
  /// Serve `handler`; returns its endpoint.
  virtual std::string serve(MessageHandler handler) = 0;
  /// Stop serving `endpoint`; later submits to it find nobody.
  virtual void close(const std::string& endpoint) = 0;
  /// An endpoint nothing ever served.
  [[nodiscard]] virtual std::string unknown() const = 0;
  /// Messages the underlying network has carried, where it counts them.
  [[nodiscard]] virtual std::optional<std::uint64_t> messages() const {
    return std::nullopt;
  }
};

class LoopbackRig : public Rig {
 public:
  explicit LoopbackRig(std::size_t workers = 0)
      : net_(std::make_shared<LoopbackNetwork>()) {
    if (workers != 0) net_->start_async_workers(workers);
  }
  Transport& transport() override { return *net_; }
  std::string serve(MessageHandler handler) override {
    return net_->register_endpoint(std::move(handler));
  }
  void close(const std::string& endpoint) override { net_->detach(endpoint); }
  [[nodiscard]] std::string unknown() const override { return "loop:9999"; }
  [[nodiscard]] std::optional<std::uint64_t> messages() const override {
    return net_->stats().messages;
  }

 protected:
  std::shared_ptr<LoopbackNetwork> net_;
};

class TcpRig : public Rig {
 public:
  Transport& transport() override { return client_; }
  std::string serve(MessageHandler handler) override {
    auto server = std::make_unique<TcpServer>();
    auto ep = server->start(std::move(handler), 0, 2);
    EXPECT_TRUE(ep.ok());
    servers_.emplace(*ep, std::move(server));
    return *ep;
  }
  void close(const std::string& endpoint) override {
    servers_.at(endpoint)->stop();
    // Drop the pooled connection too, as after a peer went away: the next
    // submit reconnects and is refused.
    client_.reset();
  }
  [[nodiscard]] std::string unknown() const override {
    return "tcp:127.0.0.1:1";
  }

 private:
  // Declared before the client so the client's connections close first.
  std::map<std::string, std::unique_ptr<TcpServer>> servers_;
  TcpTransport client_;
};

class FaultyRig : public LoopbackRig {
 public:
  explicit FaultyRig(std::optional<double fault::FaultPlan::*> armed)
      : faulty_(net_) {
    if (armed) {
      fault::FaultPlan plan;
      plan.seed = 1;
      plan.*(*armed) = 1.0;
      faulty_.injector().arm(plan);
    }
  }
  Transport& transport() override { return faulty_; }

 private:
  fault::FaultyTransport faulty_;
};

struct Case {
  const char* name;
  std::function<std::unique_ptr<Rig>()> make;
  /// The armed fault every frame meets first: Errc::timeout for a drop,
  /// Errc::unreachable for a reset.
  std::optional<Errc> fault;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> all_cases() {
  using Knob = double fault::FaultPlan::*;
  return {
      {"LoopbackInline", [] { return std::make_unique<LoopbackRig>(); }, {}},
      {"LoopbackWorkers", [] { return std::make_unique<LoopbackRig>(4); }, {}},
      {"Tcp", [] { return std::make_unique<TcpRig>(); }, {}},
      {"FaultyDisarmed",
       [] { return std::make_unique<FaultyRig>(std::nullopt); },
       {}},
      {"FaultyDrop",
       [] {
         return std::make_unique<FaultyRig>(
             Knob{&fault::FaultPlan::drop_probability});
       },
       Errc::timeout},
      {"FaultyReset",
       [] {
         return std::make_unique<FaultyRig>(
             Knob{&fault::FaultPlan::reset_probability});
       },
       Errc::unreachable},
  };
}

/// Collects callbacks by key, failing the test on a second call for a key.
struct Outcomes {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<int, Result<Bytes>> done;

  ReplyCallback at(int key) {
    return [this, key](Result<Bytes> r) {
      std::lock_guard lock(mutex);
      EXPECT_TRUE(done.emplace(key, std::move(r)).second)
          << "callback " << key << " ran twice";
      cv.notify_all();
    };
  }
  bool wait_for(std::size_t n) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, kWait, [&] { return done.size() >= n; });
  }
  bool has(int key) {
    std::lock_guard lock(mutex);
    return done.count(key) != 0;
  }
  std::size_t size() {
    std::lock_guard lock(mutex);
    return done.size();
  }
  Result<Bytes> take(int key) {
    std::lock_guard lock(mutex);
    return done.at(key);
  }
};

/// The handler's answer: one marker byte, then the request echoed.
Bytes reply_to(BytesView request) {
  Bytes reply(request.size() + 1, 0xAB);
  std::copy(request.begin(), request.end(), reply.begin() + 1);
  return reply;
}

/// Counts the frames a handler consumed and answers each with reply_to().
struct Served {
  std::atomic<int> frames{0};

  MessageHandler handler() {
    return [this](BytesView frame) {
      frames.fetch_add(1);
      return reply_to(frame);
    };
  }
  bool wait_for(int n) {
    const auto until = std::chrono::steady_clock::now() + kWait;
    while (frames.load() < n) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }
};

class TransportContract : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override { rig_ = GetParam().make(); }
  void TearDown() override { rig_.reset(); }

  [[nodiscard]] const std::optional<Errc>& fault() const {
    return GetParam().fault;
  }
  Transport& transport() { return rig_->transport(); }

  // Outcomes outlive the rig: a late duplicate callback during teardown
  // still lands in a live object and fails the test.
  Outcomes out_;
  Served served_;
  std::unique_ptr<Rig> rig_;
};

TEST_P(TransportContract, RequestCompletesWithTheHandlersReply) {
  const std::string ep = rig_->serve(served_.handler());
  const Bytes request{1, 2, 3};
  transport().submit(ep, request, out_.at(0));
  ASSERT_TRUE(out_.wait_for(1));
  const auto r = out_.take(0);
  if (fault()) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, *fault());
    EXPECT_EQ(served_.frames.load(), 0);
    return;
  }
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, reply_to(request));
  EXPECT_EQ(served_.frames.load(), 1);
}

TEST_P(TransportContract, OnewayRunsTheHandlerAndCompletesBeforeSubmitReturns) {
  const std::string ep = rig_->serve(served_.handler());
  const auto messages_before = rig_->messages();
  transport().submit(ep, Bytes{7, 7}, out_.at(0), Delivery::oneway);
  ASSERT_TRUE(out_.has(0)) << "a one-way completed after submit() returned";
  const auto r = out_.take(0);
  if (fault() == Errc::unreachable) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::unreachable);
  } else {
    // Handed off (or, under a drop, lost): ok, and never a reply frame,
    // although the handler answers every frame it consumes.
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r->empty());
  }
  if (fault()) {
    EXPECT_EQ(served_.frames.load(), 0);
    return;
  }
  ASSERT_TRUE(served_.wait_for(1));
  if (messages_before) {
    // The request crossed the network; no reply message came back.
    EXPECT_EQ(*rig_->messages() - *messages_before, 1u);
  }
}

TEST_P(TransportContract, UnknownAndClosedEndpointsAreUnreachable) {
  const std::string closed = rig_->serve(served_.handler());
  rig_->close(closed);
  int key = 0;
  for (const std::string& ep : {rig_->unknown(), closed}) {
    SCOPED_TRACE(ep);
    const int request = key++;
    const int oneway = key++;
    transport().submit(ep, Bytes{1}, out_.at(request));
    transport().submit(ep, Bytes{2}, out_.at(oneway), Delivery::oneway);
    ASSERT_TRUE(out_.has(oneway));
    ASSERT_TRUE(out_.wait_for(static_cast<std::size_t>(key)));
    const auto r = out_.take(request);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, fault().value_or(Errc::unreachable));
    const auto o = out_.take(oneway);
    if (fault() == Errc::timeout) {
      EXPECT_TRUE(o.ok());  // the drop loses it before it finds nobody
    } else {
      ASSERT_FALSE(o.ok());
      EXPECT_EQ(o.error().code, Errc::unreachable);
    }
  }
  EXPECT_EQ(served_.frames.load(), 0);
}

TEST_P(TransportContract, EveryCallbackFiresExactlyOnceUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  const std::string ep = rig_->serve(served_.handler());
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int key = t * kPerThread + i;
        const Bytes frame{static_cast<std::uint8_t>(key),
                          static_cast<std::uint8_t>(t)};
        transport().submit(ep, frame, out_.at(key),
                           key % 2 == 0 ? Delivery::request_reply
                                        : Delivery::oneway);
      }
    });
  }
  for (auto& t : submitters) t.join();
  constexpr int kTotal = kThreads * kPerThread;
  ASSERT_TRUE(out_.wait_for(kTotal))
      << "only " << out_.size() << " callbacks ran";
  for (int key = 0; key < kTotal; ++key) {
    SCOPED_TRACE(key);
    const auto r = out_.take(key);
    const bool oneway = key % 2 != 0;
    if (fault() && !(oneway && fault() == Errc::timeout)) {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.error().code, *fault());
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    if (oneway) {
      EXPECT_TRUE(r->empty());
    } else {
      EXPECT_EQ(*r, reply_to(Bytes{static_cast<std::uint8_t>(key),
                                   static_cast<std::uint8_t>(key / kPerThread)}));
    }
  }
  if (!fault()) {
    EXPECT_TRUE(served_.wait_for(kTotal));
  }
  EXPECT_EQ(out_.size(), static_cast<std::size_t>(kTotal));
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportContract, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

}  // namespace
}  // namespace clc::orb
