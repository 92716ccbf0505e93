// TCP transport: real sockets, for cross-process CORBA-LC networks.
//
// Framing (v2, multiplexed): 4-byte big-endian length prefix covering an
// 8-byte big-endian correlation id plus the message frame. The correlation
// id is transport-level (the CLCP frame inside stays byte-identical to the
// loopback wire): the client stamps each submitted request with a fresh id,
// the server echoes it on the matching reply, and that is what lets many
// requests be in flight on one connection at once -- true pipelining --
// with replies correlated as they arrive, in any order. Correlation id 0
// marks a one-way record: the server does not reply to it.
//
// Both ends share one read path and one write path. A RecordReader owns a
// small per-connection buffer: one read() fills it and next() hands out
// every complete record it holds before reading again; a body larger than
// the buffer goes straight into its frame, which grows only as its bytes
// arrive, so a length prefix alone never allocates. A RecordWriter
// coalesces: a thread appends its encoded record to the connection's
// outbox and, unless another thread is already writing, becomes the writer
// and sends the whole outbox with one send() per batch until it is empty.
//
// The server accepts connections on 127.0.0.1 (tests/benches run on one
// host); a per-connection reader thread decodes records and hands them to a
// small shared worker pool, so pipelined requests on one connection execute
// *concurrently*, and their replies coalesce in the connection's writer as
// each completes. The client keeps one pooled connection per endpoint with
// its own reader thread demultiplexing replies to the pending callbacks.
// submit() is the whole client contract: a one-way is a correlation-0
// record written inline, and a blocking call is the free orb::roundtrip()
// helper waiting on a submit(). At both ends a socket closes when the last
// owner of its connection lets go, and a finished reader thread is joined
// when the next connection spawns its own, so connections that come and
// go leave neither descriptors nor threads behind.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "orb/transport.hpp"

namespace clc::orb {

/// Reads [u32 len][u64 correlation][frame] records from one socket.
class RecordReader {
 public:
  /// Largest frame accepted: 64 MiB, far above any component package chunk.
  static constexpr std::uint32_t kMaxFrame = 64u << 20;
  /// Bodies up to this size are parsed in place; larger ones are read
  /// straight into their frame.
  static constexpr std::size_t kBufferSize = 16u << 10;

  explicit RecordReader(int fd) : fd_(fd), buf_(kBufferSize) {}

  /// The next record, from the buffer if it holds a complete one, else
  /// after reading more. False on EOF, on an i/o error and on a length
  /// prefix below 8 or above kMaxFrame + 8.
  bool next(std::uint64_t& correlation, Bytes& frame);

 private:
  /// Compact the buffer and read() once into its free space.
  bool fill();

  int fd_;
  Bytes buf_;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;    // one past the last byte read
};

/// Coalescing record writer for one socket, shared by every thread that
/// sends on it.
class RecordWriter {
 public:
  /// Batch capacity reserved up front: small records never allocate in the
  /// writer, however they happen to coalesce.
  static constexpr std::size_t kBatchReserve = 16u << 10;

  RecordWriter() {
    outbox_.reserve(kBatchReserve);
    sending_.reserve(kBatchReserve);
  }

  /// Queue one record. If no other thread is writing, send the outbox --
  /// this record and whatever others append meanwhile -- until it is empty.
  /// False only when this thread was the writer and a send() failed; the
  /// queued records are then dropped and the caller tears the connection
  /// down.
  bool write(int fd, std::uint64_t correlation, BytesView frame);

 private:
  std::mutex mutex_;
  Bytes outbox_;          // under mutex_
  bool writing_ = false;  // under mutex_: a thread is draining the outbox
  Bytes sending_;         // the writer's batch in flight, owned by the writer
};

/// Threads that end on their own -- one per connection reader -- and must
/// be joined by some other thread, since a thread cannot join itself.
/// spawn() first joins every thread that has already finished, so a
/// long-lived owner holds at most the threads still running plus the ones
/// that ended since its last spawn().
class ThreadSet {
 public:
  ThreadSet() = default;
  ThreadSet(const ThreadSet&) = delete;
  ThreadSet& operator=(const ThreadSet&) = delete;
  ~ThreadSet() { join_all(); }

  void spawn(std::function<void()> fn);
  /// Join every thread, running or not. The caller must hold no lock that
  /// a running thread needs to finish.
  void join_all();

 private:
  struct Entry {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex mutex_;
  std::list<Entry> entries_;  // a list: each thread holds its own entry
};

/// Listening side. Owns the accept thread, per-connection reader threads
/// and the shared dispatch worker pool.
class TcpServer {
 public:
  TcpServer() = default;
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind to 127.0.0.1:<port> (0 = ephemeral) and start serving `handler`.
  /// `workers` sizes the dispatch pool (0 = a small hardware-based default);
  /// pipelined requests on one connection dispatch concurrently across it.
  /// Returns the endpoint string "tcp:127.0.0.1:<actual-port>".
  Result<std::string> start(MessageHandler handler, std::uint16_t port = 0,
                            std::size_t workers = 0);
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_size_;
  }

 private:
  /// One accepted connection: replies from concurrent dispatches coalesce
  /// in `writer`; `open` flips once on teardown so late completions drop
  /// their reply instead of writing to a dead socket. The socket closes
  /// when the last owner -- the reader or a queued or running Job -- lets
  /// go, so no worker can write to a recycled descriptor.
  struct Connection {
    explicit Connection(int socket) : fd(socket) {}
    ~Connection();
    const int fd;
    RecordWriter writer;
    std::atomic<bool> open{true};
  };
  struct Job {
    std::shared_ptr<Connection> conn;
    std::uint64_t correlation = 0;
    Bytes frame;
  };

  void accept_loop();
  void read_loop(std::shared_ptr<Connection> conn);
  void dispatch_loop();

  MessageHandler handler_;
  // Atomic: stop() invalidates it while accept_loop() is reading it.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::size_t pool_size_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex state_mutex_;
  /// Connections whose reader is still running (for stop() to shut down).
  std::set<std::shared_ptr<Connection>> connections_;  // under state_mutex_
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  ThreadSet readers_;
  std::vector<std::thread> pool_;
};

/// Connecting side; implements Transport for "tcp:host:port" endpoints.
/// One pooled connection per endpoint carries any number of in-flight
/// requests, multiplexed by correlation id.
class TcpTransport final : public Transport {
 public:
  ~TcpTransport() override;

  /// A request registers its callback under a fresh correlation id and
  /// completes on the connection's reader thread; a one-way is a
  /// correlation-0 record that completes once written.
  void submit(const std::string& endpoint, BytesView frame, ReplyCallback cb,
              Delivery delivery = Delivery::request_reply) override;

  /// Drop pooled connections (e.g. after a peer restarted). Pending
  /// invocations fail with Errc::unreachable.
  void reset();

 private:
  /// One pooled connection. Its socket closes when the last owner -- the
  /// pool, the reader or a submit in progress -- lets go.
  struct Connection {
    Connection(std::string ep, int socket)
        : endpoint(std::move(ep)), fd(socket) {}
    ~Connection();
    const std::string endpoint;
    const int fd;
    RecordWriter writer;
    std::mutex pending_mutex;
    std::map<std::uint64_t, ReplyCallback> pending;
    std::uint64_t next_correlation = 1;  // under pending_mutex
    std::atomic<bool> failed{false};
  };

  Result<std::shared_ptr<Connection>> connection_for(
      const std::string& endpoint);
  void reader_loop(std::shared_ptr<Connection> conn);
  /// Tear a connection down once: shut the socket, evict it from the pool
  /// and fail every pending callback. Idempotent; safe from any thread.
  void fail_connection(const std::shared_ptr<Connection>& conn,
                       const std::string& why);

  std::mutex pool_mutex_;
  std::map<std::string, std::shared_ptr<Connection>> pool_;
  ThreadSet readers_;
};

}  // namespace clc::orb
