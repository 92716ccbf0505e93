// Concurrency tier: TCP record framing at both ends of the transport.
//
// A raw socket plays the peer of a real TcpServer or TcpTransport and
// speaks framing v2 ([u32 len][u64 correlation][frame]) byte by byte, so
// these tests pin what the RecordReader accepts (records split across
// reads, many records per read, frames larger than its buffer, empty
// frames, bad length prefixes) and what the RecordWriter puts on the wire
// (exact bytes, coalesced replies from concurrent workers, teardown when
// the peer goes away mid-pipeline), that a one-way is a correlation-0
// record nobody answers, and that connections which come and go leave no
// descriptor behind at either end. Every blocking step has a timeout, so
// a framing bug fails a test instead of hanging it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "orb/tcp.hpp"
#include "support/golden_frames.hpp"
#include "util/rng.hpp"

namespace clc::orb {
namespace {

constexpr auto kWait = std::chrono::seconds(10);

void set_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// Owns one raw socket.
struct Socket {
  int fd = -1;
  explicit Socket(int f = -1) : fd(f) {}
  Socket(Socket&& o) noexcept : fd(std::exchange(o.fd, -1)) {}
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      reset();
      fd = std::exchange(o.fd, -1);
    }
    return *this;
  }
  ~Socket() { reset(); }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

Socket connect_raw(std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const int one = 1;
  ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  set_timeout(s.fd);
  return s;
}

/// Listening socket standing in for a server that speaks raw framing.
struct RawListener {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  std::uint16_t port = 0;

  RawListener() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    socklen_t len = sizeof addr;
    ::getsockname(sock.fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(sock.fd, 8), 0);
    set_timeout(sock.fd);  // bounds accept() too
  }
  [[nodiscard]] std::string endpoint() const {
    return "tcp:127.0.0.1:" + std::to_string(port);
  }
  Socket accept() {
    Socket s(::accept(sock.fd, nullptr, nullptr));
    EXPECT_GE(s.fd, 0) << "no connection within the timeout";
    if (s.fd >= 0) set_timeout(s.fd);
    return s;
  }
};

bool send_all(int fd, BytesView data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r <= 0) return false;
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Framing v2 with an explicit length word, so tests can also lie in it.
Bytes raw_record(std::uint32_t len, std::uint64_t correlation,
                 BytesView frame) {
  Bytes out;
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(len >> shift));
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(correlation >> shift));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

Bytes record(std::uint64_t correlation, BytesView frame) {
  return raw_record(static_cast<std::uint32_t>(frame.size()) + 8, correlation,
                    frame);
}

struct Record {
  std::uint64_t correlation = 0;
  Bytes frame;
};

std::optional<Record> recv_record(int fd) {
  std::uint8_t hdr[12];
  if (!recv_all(fd, hdr, sizeof hdr)) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n = (n << 8) | hdr[i];
  Record rec;
  for (int i = 4; i < 12; ++i) rec.correlation = (rec.correlation << 8) | hdr[i];
  if (n < 8) return std::nullopt;
  rec.frame.resize(n - 8);
  if (!recv_all(fd, rec.frame.data(), rec.frame.size())) return std::nullopt;
  return rec;
}

/// Discards what the peer sent; true once it has closed or reset the
/// connection, false if it is still open when the receive timeout expires.
bool peer_closed(int fd) {
  std::uint8_t buf[4096];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
  }
  return r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
}

Bytes payload_for(std::uint64_t correlation, std::size_t size) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::uint8_t>(correlation * 31 + i);
  return out;
}

/// Descriptors this process holds open.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

/// Waits until the process holds at most `limit` descriptors; false if it
/// still holds more when the timeout expires.
bool fds_settle_at_most(std::size_t limit) {
  const auto until = std::chrono::steady_clock::now() + kWait;
  while (open_fds() > limit) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A TcpServer whose handler echoes every frame back.
struct EchoServer {
  TcpServer server;
  std::atomic<int> handled{0};

  explicit EchoServer(std::size_t workers = 2,
                      std::chrono::microseconds max_delay = {}) {
    auto ep = server.start(
        [this, max_delay](BytesView frame) {
          if (max_delay.count() > 0) {
            // Vary service time so workers finish out of order.
            std::this_thread::sleep_for(
                max_delay * (frame.empty() ? 0 : frame[0] % 8) / 8);
          }
          handled.fetch_add(1);
          return Bytes(frame.begin(), frame.end());
        },
        0, workers);
    EXPECT_TRUE(ep.ok());
  }
};

/// Sends `count` echo requests on `s` and checks each reply's payload.
void expect_echo(int fd, std::uint64_t first_corr, int count) {
  Bytes batch;
  for (int i = 0; i < count; ++i) {
    const Bytes r = record(first_corr + i, payload_for(first_corr + i, 24));
    batch.insert(batch.end(), r.begin(), r.end());
  }
  ASSERT_TRUE(send_all(fd, batch));
  std::map<std::uint64_t, Bytes> replies;
  for (int i = 0; i < count; ++i) {
    auto rec = recv_record(fd);
    ASSERT_TRUE(rec.has_value()) << "reply " << i << " missing";
    EXPECT_TRUE(replies.emplace(rec->correlation, rec->frame).second)
        << "duplicate reply " << rec->correlation;
  }
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(count));
  for (const auto& [corr, frame] : replies) {
    ASSERT_GE(corr, first_corr);
    ASSERT_LT(corr, first_corr + count);
    EXPECT_EQ(frame, payload_for(corr, 24)) << "cross-wired reply " << corr;
  }
}

// ------------------------------------------------------------- TcpServer

TEST(TcpFramingServer, RecordDribbledOneBytePerWrite) {
  EchoServer echo;
  Socket s = connect_raw(echo.server.port());
  const Bytes rec = record(42, payload_for(42, 40));
  for (std::uint8_t b : rec) {
    ASSERT_TRUE(send_all(s.fd, BytesView(&b, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto reply = recv_record(s.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->correlation, 42u);
  EXPECT_EQ(reply->frame, payload_for(42, 40));
}

TEST(TcpFramingServer, SixtyFourRecordsInOneWrite) {
  EchoServer echo;
  Socket s = connect_raw(echo.server.port());
  expect_echo(s.fd, 1, 64);
  EXPECT_EQ(echo.handled.load(), 64);
}

TEST(TcpFramingServer, FrameLargerThanTheReadBuffer) {
  EchoServer echo;
  Socket s = connect_raw(echo.server.port());
  Rng rng(31);
  Bytes big(1u << 20);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u64());
  std::thread sender([&] { EXPECT_TRUE(send_all(s.fd, record(9, big))); });
  auto reply = recv_record(s.fd);
  sender.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->correlation, 9u);
  EXPECT_TRUE(reply->frame == big);
  // The connection keeps framing correctly after the large record.
  expect_echo(s.fd, 100, 4);
}

TEST(TcpFramingServer, ZeroLengthFrame) {
  EchoServer echo;
  Socket s = connect_raw(echo.server.port());
  ASSERT_TRUE(send_all(s.fd, record(5, {})));
  auto reply = recv_record(s.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->correlation, 5u);
  EXPECT_TRUE(reply->frame.empty());
  expect_echo(s.fd, 6, 2);
}

TEST(TcpFramingServer, BadLengthClosesOnlyThatConnection) {
  EchoServer echo;
  Socket good = connect_raw(echo.server.port());
  expect_echo(good.fd, 1, 2);
  for (const std::uint32_t len :
       {0u, 7u, RecordReader::kMaxFrame + 9, 0xffffffffu}) {
    SCOPED_TRACE(len);
    Socket bad = connect_raw(echo.server.port());
    ASSERT_TRUE(send_all(bad.fd, raw_record(len, 3, {})));
    EXPECT_TRUE(peer_closed(bad.fd));
    expect_echo(good.fd, 10, 3);
    Socket fresh = connect_raw(echo.server.port());
    expect_echo(fresh.fd, 20, 3);
  }
}

TEST(TcpFramingServer, CoalescedRepliesFromFourWorkersStayCorrelated) {
  EchoServer echo(4, std::chrono::microseconds(200));
  Socket s = connect_raw(echo.server.port());
  for (int round = 0; round < 4; ++round)
    expect_echo(s.fd, 1 + round * 1000, 128);
  EXPECT_EQ(echo.handled.load(), 4 * 128);
}

TEST(TcpFramingServer, OnewayRecordIsServedWithoutAReply) {
  EchoServer echo;
  Socket s = connect_raw(echo.server.port());
  // Correlation 0 marks a one-way: dispatched, never answered.
  Bytes batch = record(0, payload_for(0, 24));
  const Bytes request = record(7, payload_for(7, 24));
  batch.insert(batch.end(), request.begin(), request.end());
  ASSERT_TRUE(send_all(s.fd, batch));
  auto reply = recv_record(s.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->correlation, 7u);
  EXPECT_EQ(reply->frame, payload_for(7, 24));
  // The next record on the wire answers the next request: nothing for the
  // one-way slipped in between.
  expect_echo(s.fd, 8, 1);
  EXPECT_EQ(echo.handled.load(), 3);
}

TEST(TcpFramingServer, ConnectCloseCyclesLeaveNoDescriptorBehind) {
  const std::size_t before = open_fds();
  EchoServer echo;
  for (int i = 0; i < 50; ++i) {
    Socket s = connect_raw(echo.server.port());
    expect_echo(s.fd, 1, 1);
  }
  // Each reader sees its client leave and lets the socket close; only the
  // listening socket stays open.
  EXPECT_TRUE(fds_settle_at_most(before + 1))
      << open_fds() - before << " descriptors above the start";
}

// ----------------------------------------------------------- TcpTransport

/// Collects transport callbacks by key; waits with a timeout.
struct Outcomes {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<int, Result<Bytes>> done;

  ReplyCallback at(int key) {
    return [this, key](Result<Bytes> r) {
      // Notify under the lock: the waiter may destroy this object as soon
      // as it sees the outcome.
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
};

TEST(TcpFramingTransport, AddRequestBytesOnTheWire) {
  RawListener peer;
  TcpTransport transport;
  const Bytes request = testing::from_hex(testing::kGoldenRequest);
  Outcomes out;
  transport.submit(peer.endpoint(), request, out.at(0));
  Socket s = peer.accept();
  Bytes wire(12 + request.size());
  ASSERT_TRUE(recv_all(s.fd, wire.data(), wire.size()));
  // u32 length (8 + frame), u64 correlation 1 (the connection's first id),
  // then the golden CLCP frame unchanged.
  EXPECT_EQ(testing::to_hex(wire),
            "00000048" "0000000000000001" + std::string(testing::kGoldenRequest));
  const Bytes reply = testing::from_hex(testing::kGoldenReply);
  ASSERT_TRUE(send_all(s.fd, record(1, reply)));
  ASSERT_TRUE(out.wait_for(1));
  ASSERT_TRUE(out.done.at(0).ok());
  EXPECT_EQ(*out.done.at(0), reply);
}

TEST(TcpFramingTransport, DribbledCoalescedLargeAndEmptyReplies) {
  RawListener peer;
  TcpTransport transport;
  Outcomes out;
  constexpr int kCalls = 66;
  for (int i = 0; i < kCalls; ++i)
    transport.submit(peer.endpoint(), payload_for(i, 16), out.at(i));
  Socket s = peer.accept();
  std::map<std::uint64_t, int> key_of;  // correlation -> submit index
  for (int i = 0; i < kCalls; ++i) {
    auto rec = recv_record(s.fd);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->frame, payload_for(i, 16));  // one writer: submit order
    key_of[rec->correlation] = i;
  }
  ASSERT_EQ(key_of.size(), static_cast<std::size_t>(kCalls));
  auto corr = [&](int i) {
    for (const auto& [c, k] : key_of)
      if (k == i) return c;
    return std::uint64_t{0};
  };
  auto reply_for = [](int i) { return payload_for(1000 + i, 32); };
  // Call 0: its reply dribbled one byte per write.
  for (std::uint8_t b : record(corr(0), reply_for(0))) {
    ASSERT_TRUE(send_all(s.fd, BytesView(&b, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Calls 1..64: 64 replies in one write, in reverse order.
  Bytes batch;
  for (int i = 64; i >= 1; --i) {
    const Bytes r = record(corr(i), reply_for(i));
    batch.insert(batch.end(), r.begin(), r.end());
  }
  ASSERT_TRUE(send_all(s.fd, batch));
  // Call 65: a 1 MiB reply, larger than the read buffer; then one more
  // submit answered with an empty frame.
  Bytes big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(send_all(s.fd, record(corr(65), big)));
  transport.submit(peer.endpoint(), payload_for(66, 4), out.at(kCalls));
  auto last = recv_record(s.fd);
  ASSERT_TRUE(last.has_value());
  ASSERT_TRUE(send_all(s.fd, record(last->correlation, {})));

  ASSERT_TRUE(out.wait_for(kCalls + 1));
  for (int i = 0; i <= 64; ++i) {
    ASSERT_TRUE(out.done.at(i).ok()) << i;
    EXPECT_EQ(*out.done.at(i), reply_for(i)) << "cross-wired reply " << i;
  }
  ASSERT_TRUE(out.done.at(65).ok());
  EXPECT_TRUE(*out.done.at(65) == big);
  ASSERT_TRUE(out.done.at(kCalls).ok());
  EXPECT_TRUE(out.done.at(kCalls)->empty());
}

TEST(TcpFramingTransport, BadReplyLengthFailsPendingCalls) {
  for (const std::uint32_t len : {7u, RecordReader::kMaxFrame + 9}) {
    SCOPED_TRACE(len);
    RawListener peer;
    TcpTransport transport;
    Outcomes out;
    transport.submit(peer.endpoint(), payload_for(1, 8), out.at(0));
    transport.submit(peer.endpoint(), payload_for(2, 8), out.at(1));
    Socket s = peer.accept();
    ASSERT_TRUE(send_all(s.fd, raw_record(len, 1, {})));
    ASSERT_TRUE(out.wait_for(2));
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(out.done.at(i).ok());
      EXPECT_EQ(out.done.at(i).error().code, Errc::unreachable);
    }
    EXPECT_TRUE(peer_closed(s.fd));
  }
}

TEST(TcpFramingTransport, PeerClosingMidPipelineFailsEverySubmit) {
  auto peer = std::make_unique<RawListener>();
  const std::string endpoint = peer->endpoint();
  TcpTransport transport;
  Outcomes out;
  transport.submit(endpoint, payload_for(0, 64), out.at(0));
  Socket s = peer->accept();
  // Four threads keep submitting while the peer reads a little and leaves:
  // every call, pending or later, must fail -- none may hang behind a
  // writer that never finishes.
  constexpr int kThreads = 4, kPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        const int key = 1 + t * kPerThread + i;
        transport.submit(endpoint, payload_for(key, 64), out.at(key));
      }
    });
  }
  go.store(true);
  std::uint8_t some[256];
  ASSERT_TRUE(recv_all(s.fd, some, sizeof some));
  s.reset();
  peer.reset();  // later reconnects are refused
  for (auto& t : submitters) t.join();
  ASSERT_TRUE(out.wait_for(1 + kThreads * kPerThread))
      << "only " << out.done.size() << " callbacks ran";
  for (const auto& [key, r] : out.done) {
    ASSERT_FALSE(r.ok()) << key;
    EXPECT_EQ(r.error().code, Errc::unreachable) << key;
  }
  auto after = roundtrip(transport, endpoint, payload_for(9, 8));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, Errc::unreachable);
}

TEST(TcpFramingTransport, OnewayIsACorrelationZeroRecordCompleteOnceWritten) {
  RawListener peer;
  TcpTransport transport;
  const Bytes request = testing::from_hex(testing::kGoldenRequest);
  Outcomes out;
  transport.submit(peer.endpoint(), request, out.at(0), Delivery::oneway);
  {
    // Complete before submit() returned, with nothing yet accepted or read.
    std::lock_guard lock(out.mutex);
    ASSERT_EQ(out.done.size(), 1u);
    ASSERT_TRUE(out.done.at(0).ok());
    EXPECT_TRUE(out.done.at(0)->empty());
  }
  transport.submit(peer.endpoint(), request, out.at(1));
  Socket s = peer.accept();
  Bytes wire(2 * (12 + request.size()));
  ASSERT_TRUE(recv_all(s.fd, wire.data(), wire.size()));
  // The one-way takes no correlation id: the request after it still gets
  // the connection's first.
  EXPECT_EQ(testing::to_hex(wire),
            "00000048" "0000000000000000" + std::string(testing::kGoldenRequest) +
                "00000048" "0000000000000001" + testing::kGoldenRequest);
  const Bytes reply = testing::from_hex(testing::kGoldenReply);
  ASSERT_TRUE(send_all(s.fd, record(1, reply)));
  ASSERT_TRUE(out.wait_for(2));
  ASSERT_TRUE(out.done.at(1).ok());
  EXPECT_EQ(*out.done.at(1), reply);
}

TEST(TcpFramingTransport, PeerRestartsLeaveNoDescriptorBehind) {
  const std::size_t before = open_fds();
  TcpTransport transport;
  std::uint16_t port = 0;
  for (int i = 0; i < 20; ++i) {
    SCOPED_TRACE(i);
    TcpServer server;
    auto ep = server.start(
        [](BytesView frame) { return Bytes(frame.begin(), frame.end()); },
        port, 1);
    ASSERT_TRUE(ep.ok()) << ep.error().to_string();
    port = server.port();
    // The first call after a restart may still find the dead connection
    // to the previous server in the pool; it fails, and the retry
    // reconnects.
    auto r = roundtrip(transport, *ep, payload_for(i, 8));
    if (!r.ok()) r = roundtrip(transport, *ep, payload_for(i, 8));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(*r, payload_for(i, 8));
  }
  // Every server is gone; each dead connection's reader has ended and
  // let its socket close.
  EXPECT_TRUE(fds_settle_at_most(before))
      << open_fds() - before << " descriptors above the start";
}

// ----------------------------------------------------------- RecordReader

TEST(TcpFramingReader, LengthPrefixAloneAllocatesNoFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]), b(fds[1]);
  // Claims a 60 MiB frame, delivers 100 bytes of it, then hangs up.
  ASSERT_TRUE(send_all(a.fd, raw_record(60u << 20, 1, Bytes(100, 0xab))));
  a.reset();
  RecordReader reader(b.fd);
  std::uint64_t correlation = 0;
  Bytes frame;
  EXPECT_FALSE(reader.next(correlation, frame));
  EXPECT_LE(frame.capacity(), 1u << 20);
}

}  // namespace
}  // namespace clc::orb
