#include "orb/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace clc::orb {

namespace {

/// Read exactly n bytes; false on EOF/error.
bool read_exact(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that went away must surface as an error result,
    // not kill the process with SIGPIPE.
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

/// Frames past the read buffer grow this much beyond the bytes received.
constexpr std::size_t kFrameStep = 64u << 10;
/// A writer keeps at most this much batch capacity between drains.
constexpr std::size_t kMaxIdleOutbox = 64u << 10;

Result<int> connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Error{Errc::io_error, "socket() failed"};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{Errc::invalid_argument, "bad address " + host};
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Error{Errc::unreachable,
                 "connect to " + host + ":" + std::to_string(port) +
                     " failed: " + std::strerror(errno)};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Parse "tcp:host:port".
Result<std::pair<std::string, std::uint16_t>> parse_endpoint(
    const std::string& endpoint) {
  const auto parts = split(endpoint, ':');
  if (parts.size() != 3 || parts[0] != "tcp")
    return Error{Errc::invalid_argument, "bad tcp endpoint " + endpoint};
  const int port = std::atoi(parts[2].c_str());
  if (port <= 0 || port > 65535)
    return Error{Errc::invalid_argument, "bad port in " + endpoint};
  return std::make_pair(parts[1], static_cast<std::uint16_t>(port));
}

}  // namespace

// ---------------------------------------------------------------------------
// RecordReader / RecordWriter

bool RecordReader::fill() {
  if (begin_ != 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  for (;;) {
    const ssize_t r = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (r > 0) {
      end_ += static_cast<std::size_t>(r);
      return true;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
}

bool RecordReader::next(std::uint64_t& correlation, Bytes& frame) {
  while (end_ - begin_ < 12) {
    if (!fill()) return false;
  }
  const std::uint8_t* hdr = buf_.data() + begin_;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n = (n << 8) | hdr[i];
  if (n < 8 || n - 8 > kMaxFrame) return false;
  correlation = 0;
  for (int i = 4; i < 12; ++i) correlation = (correlation << 8) | hdr[i];
  begin_ += 12;
  const std::size_t body = n - 8;
  if (body <= buf_.size()) {
    while (end_ - begin_ < body) {
      if (!fill()) return false;
    }
    frame.assign(buf_.begin() + begin_, buf_.begin() + begin_ + body);
    begin_ += body;
    return true;
  }
  // Larger than the buffer: take what it holds, then read the rest straight
  // into the frame, growing it at most one step past the bytes received.
  frame.assign(buf_.begin() + begin_, buf_.begin() + end_);
  begin_ = end_ = 0;
  while (frame.size() < body) {
    const std::size_t got = frame.size();
    frame.resize(std::min(body, got + kFrameStep));
    if (!read_exact(fd_, frame.data() + got, frame.size() - got)) return false;
  }
  return true;
}

bool RecordWriter::write(int fd, std::uint64_t correlation, BytesView frame) {
  std::unique_lock lock(mutex_);
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size()) + 8;
  for (int shift = 24; shift >= 0; shift -= 8)
    outbox_.push_back(static_cast<std::uint8_t>(n >> shift));
  for (int shift = 56; shift >= 0; shift -= 8)
    outbox_.push_back(static_cast<std::uint8_t>(correlation >> shift));
  outbox_.insert(outbox_.end(), frame.begin(), frame.end());
  if (writing_) return true;  // the current writer sends it with its batch
  writing_ = true;
  bool ok = true;
  while (ok && !outbox_.empty()) {
    sending_.swap(outbox_);
    lock.unlock();
    ok = write_exact(fd, sending_.data(), sending_.size());
    sending_.clear();
    // A large frame must not pin its buffer for the connection's lifetime.
    if (sending_.capacity() > kMaxIdleOutbox) {
      sending_ = Bytes{};
      sending_.reserve(kBatchReserve);
    }
    lock.lock();
  }
  if (!ok) outbox_.clear();
  writing_ = false;
  return ok;
}

void ThreadSet::spawn(std::function<void()> fn) {
  std::lock_guard lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!it->done.load()) {
      ++it;
      continue;
    }
    it->thread.join();  // it has returned: no wait
    it = entries_.erase(it);
  }
  Entry& entry = entries_.emplace_back();
  entry.thread = std::thread([&entry, fn = std::move(fn)] {
    fn();
    entry.done.store(true);
  });
}

void ThreadSet::join_all() {
  std::list<Entry> all;
  {
    std::lock_guard lock(mutex_);
    all.swap(entries_);
  }
  for (auto& entry : all) entry.thread.join();
}

// ---------------------------------------------------------------------------
// TcpServer

TcpServer::Connection::~Connection() { ::close(fd); }

TcpServer::~TcpServer() { stop(); }

Result<std::string> TcpServer::start(MessageHandler handler,
                                     std::uint16_t port, std::size_t workers) {
  if (running_.load()) return Error{Errc::bad_state, "server already running"};
  handler_ = std::move(handler);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Error{Errc::io_error, "socket() failed"};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Error{Errc::io_error,
                 std::string("bind failed: ") + std::strerror(errno)};
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Error{Errc::io_error, "listen failed"};
  }
  listen_fd_.store(fd);
  pool_size_ = workers != 0
                   ? workers
                   : std::clamp<std::size_t>(
                         std::thread::hardware_concurrency(), 2, 8);
  running_.store(true);
  pool_.reserve(pool_size_);
  for (std::size_t i = 0; i < pool_size_; ++i)
    pool_.emplace_back([this] { dispatch_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void TcpServer::stop() {
  if (!running_.exchange(false)) return;
  // Shutdown wakes a blocked accept(); close only after the accept thread
  // is joined so the descriptor number cannot be recycled under it.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  {
    // Wake readers blocked in read() on their connection sockets.
    std::lock_guard lock(state_mutex_);
    for (const auto& conn : connections_) {
      conn->open.store(false);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  queue_cv_.notify_all();
  for (auto& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  readers_.join_all();
  // Every worker and reader is gone: the queued Jobs hold the last
  // references, and dropping them closes the remaining sockets.
  std::lock_guard lock(queue_mutex_);
  queue_.clear();
}

void TcpServer::accept_loop() {
  while (running_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket closed by stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard lock(state_mutex_);
      connections_.insert(conn);
    }
    readers_.spawn([this, conn = std::move(conn)] { read_loop(conn); });
  }
}

void TcpServer::read_loop(std::shared_ptr<Connection> conn) {
  RecordReader reader(conn->fd);
  std::uint64_t correlation = 0;
  Bytes frame;
  while (running_.load() && reader.next(correlation, frame)) {
    {
      std::lock_guard lock(queue_mutex_);
      queue_.push_back(Job{conn, correlation, std::move(frame)});
    }
    queue_cv_.notify_one();
    frame = Bytes{};
  }
  // EOF, an i/o error or a bad length prefix: close this connection only.
  conn->open.store(false);
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard lock(state_mutex_);
  connections_.erase(conn);
}

void TcpServer::dispatch_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !running_.load() || !queue_.empty(); });
      if (!running_.load()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    Bytes reply = handler_(job.frame);
    // Correlation 0 marks a one-way record: the client expects no reply.
    if (job.correlation == 0) continue;
    if (!job.conn->open.load()) continue;
    if (!job.conn->writer.write(job.conn->fd, job.correlation, reply)) {
      job.conn->open.store(false);
      ::shutdown(job.conn->fd, SHUT_RDWR);
    }
  }
}

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::~TcpTransport() { reset(); }

TcpTransport::Connection::~Connection() { ::close(fd); }

void TcpTransport::fail_connection(const std::shared_ptr<Connection>& conn,
                                   const std::string& why) {
  {
    // Evict before flagging: a connection anyone sees failed is already
    // out of the pool, so a retry after the failure reconnects.
    std::lock_guard lock(pool_mutex_);
    auto it = pool_.find(conn->endpoint);
    if (it != pool_.end() && it->second == conn) pool_.erase(it);
  }
  if (conn->failed.exchange(true)) return;
  ::shutdown(conn->fd, SHUT_RDWR);
  std::map<std::uint64_t, ReplyCallback> orphans;
  {
    std::lock_guard lock(conn->pending_mutex);
    orphans.swap(conn->pending);
  }
  for (auto& [corr, cb] : orphans)
    cb(Error{Errc::unreachable, why});
}

void TcpTransport::reset() {
  std::map<std::string, std::shared_ptr<Connection>> all;
  {
    std::lock_guard lock(pool_mutex_);
    all.swap(pool_);
  }
  for (auto& [endpoint, conn] : all) fail_connection(conn, "transport reset");
  // Every reader has had its socket shut down, so each returns promptly.
  readers_.join_all();
}

Result<std::shared_ptr<TcpTransport::Connection>> TcpTransport::connection_for(
    const std::string& endpoint) {
  {
    std::lock_guard lock(pool_mutex_);
    auto it = pool_.find(endpoint);
    if (it != pool_.end()) return it->second;
  }
  auto parsed = parse_endpoint(endpoint);
  if (!parsed) return parsed.error();
  auto fd = connect_to(parsed->first, parsed->second);
  if (!fd) return fd.error();
  auto conn = std::make_shared<Connection>(endpoint, *fd);
  {
    std::lock_guard lock(pool_mutex_);
    auto [it, inserted] = pool_.emplace(endpoint, conn);
    // Raced with another caller: use theirs; ours closes as it goes.
    if (!inserted) return it->second;
  }
  readers_.spawn([this, conn] { reader_loop(conn); });
  return conn;
}

void TcpTransport::reader_loop(std::shared_ptr<Connection> conn) {
  RecordReader reader(conn->fd);
  std::uint64_t correlation = 0;
  Bytes frame;
  while (reader.next(correlation, frame)) {
    ReplyCallback cb;
    {
      std::lock_guard lock(conn->pending_mutex);
      auto it = conn->pending.find(correlation);
      if (it != conn->pending.end()) {
        cb = std::move(it->second);
        conn->pending.erase(it);
      }
    }
    // Records with no pending entry (e.g. a reply to an abandoned one-way)
    // are silently discarded.
    if (cb) cb(std::move(frame));
    frame = Bytes{};
  }
  fail_connection(conn, "i/o failed on " + conn->endpoint);
}

void TcpTransport::submit(const std::string& endpoint, BytesView frame,
                          ReplyCallback cb, Delivery delivery) {
  auto conn = connection_for(endpoint);
  if (!conn) {
    cb(conn.error());
    return;
  }
  if (delivery == Delivery::oneway) {
    // Correlation 0: the server dispatches without replying, and nothing
    // waits behind the send -- a true one-way, complete once written.
    if (!(*conn)->writer.write((*conn)->fd, 0, frame)) {
      fail_connection(*conn, "i/o failed on " + endpoint);
      cb(Error{Errc::unreachable, "i/o failed on " + endpoint});
      return;
    }
    cb(Bytes{});
    return;
  }
  std::uint64_t correlation = 0;
  {
    std::lock_guard lock((*conn)->pending_mutex);
    correlation = (*conn)->next_correlation++;
    (*conn)->pending.emplace(correlation, std::move(cb));
  }
  if ((*conn)->failed.load()) {
    // The reader died between lookup and registration; its drain may have
    // run before our insert, so fail our own entry if it is still there.
    ReplyCallback mine;
    {
      std::lock_guard lock((*conn)->pending_mutex);
      auto it = (*conn)->pending.find(correlation);
      if (it != (*conn)->pending.end()) {
        mine = std::move(it->second);
        (*conn)->pending.erase(it);
      }
    }
    if (mine) mine(Error{Errc::unreachable, "connection closed"});
    return;
  }
  // On write failure the teardown path fails every pending callback --
  // including the one just registered -- exactly once.
  if (!(*conn)->writer.write((*conn)->fd, correlation, frame))
    fail_connection(*conn, "i/o failed on " + endpoint);
}

}  // namespace clc::orb
