// Host speed probes: fixed reference work that shares no code with the
// program under test, shaped like a workload, timed on the CPUs the
// workload's world runs on.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kEchoDepth = 16;
constexpr int kEchoWarmup = 200;
constexpr int kEchoExchanges = 2000;
constexpr std::size_t kRequestBytes = 96;
constexpr std::size_t kReplyBytes = 48;

volatile std::uint64_t g_sink;

/// Ordered-map inserts and lookups under string keys built with
/// std::to_string, and short-lived string vectors: standard-library code
/// with the ORB's mix of small allocations, string compares and pointer
/// chasing, so it slows down with the same host contention.
std::uint64_t cpu_work() {
  std::map<std::string, int> m;
  std::uint64_t h = 0;
  for (int i = 0; i < 200; ++i) {
    std::string k = "perfbench::Calc::op" + std::to_string(i * 7919 % 1000);
    m[k] = i;
    const std::vector<std::string> v{k, k + "x"};
    h += v[1].size();
  }
  for (int i = 0; i < 400; ++i)
    h += m.count("perfbench::Calc::op" + std::to_string(i));
  return h;
}

bool read_full(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// A connected loopback TCP pair, closed on destruction.
struct SocketPair {
  int client = -1;
  int server = -1;

  SocketPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    const bool listening =
        listener >= 0 &&
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (listening) {
      client = ::socket(AF_INET, SOCK_STREAM, 0);
      if (client >= 0 &&
          ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        server = ::accept(listener, nullptr, nullptr);
    }
    if (listener >= 0) ::close(listener);
    if (server < 0) {
      close_all();
      throw std::runtime_error("echo probe: no loopback connection");
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~SocketPair() { close_all(); }

  void close_all() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
    client = server = -1;
  }
};

/// Time per exchange, in ns, of a loopback TCP echo with the shape of the
/// rpc_small_tcp world and none of its code: the calling thread writes
/// fixed-size requests with kEchoDepth outstanding, a client reader thread
/// collects the replies, a server reader hands each request to one of two
/// workers, which writes the reply. Threads sit on the workload's slots.
double echo_probe_ns() {
  SocketPair socks;
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::size_t queued = 0;
  bool closed = false;
  std::mutex write_mutex;
  std::counting_semaphore<kEchoDepth> window(kEchoDepth);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // server reader
    pin_thread(2);
    char buf[kRequestBytes];
    while (read_full(socks.server, buf, sizeof buf)) {
      std::lock_guard lock(queue_mutex);
      ++queued;
      queue_cv.notify_one();
    }
    std::lock_guard lock(queue_mutex);
    closed = true;
    queue_cv.notify_all();
  });
  for (std::size_t slot : {3, 2}) {
    threads.emplace_back([&, slot] {  // worker
      pin_thread(slot);
      const char reply[kReplyBytes] = {};
      for (;;) {
        {
          std::unique_lock lock(queue_mutex);
          queue_cv.wait(lock, [&] { return closed || queued > 0; });
          if (queued == 0) return;
          --queued;
        }
        std::lock_guard lock(write_mutex);
        if (!write_full(socks.server, reply, sizeof reply)) return;
      }
    });
  }
  threads.emplace_back([&] {  // client reader
    pin_thread(1);
    char buf[kReplyBytes];
    while (read_full(socks.client, buf, sizeof buf)) window.release();
  });

  pin_thread(0);
  const char request[kRequestBytes] = {};
  bool ok = true;
  auto exchange = [&] {
    ok = ok && window.try_acquire_for(std::chrono::seconds(5)) &&
         write_full(socks.client, request, sizeof request);
  };
  for (int i = 0; i < kEchoWarmup; ++i) exchange();
  const Ns t0 = now_ns();
  for (int i = 0; i < kEchoExchanges; ++i) exchange();
  for (std::size_t i = 0; ok && i < kEchoDepth; ++i)
    ok = window.try_acquire_for(std::chrono::seconds(5));
  const Ns t1 = now_ns();

  ::shutdown(socks.client, SHUT_RDWR);
  ::shutdown(socks.server, SHUT_RDWR);
  for (auto& t : threads) t.join();
  if (!ok) throw std::runtime_error("echo probe: exchange failed");
  return static_cast<double>(t1 - t0) / kEchoExchanges;
}

}  // namespace

double cpu_slowness_sample() {
  // Untimed first pass: the program's ops just evicted the probe's code and
  // data, and the timed pass should see the host, not the program's
  // footprint.
  g_sink = cpu_work();
  const Ns t0 = now_ns();
  g_sink = cpu_work();
  return static_cast<double>(now_ns() - t0) / kCpuNominalNs;
}

double echo_slowness() { return echo_probe_ns() / kEchoNominalNs; }

}  // namespace perfbench
