#include "service/net_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/window.hpp"
#include "service/net.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define PATHSEP_HAVE_EPOLL 1
#endif

namespace pathsep::service {

/// Per-connection state, owned by the event-loop thread.
struct NetServer::Conn {
  int fd = -1;
  bool want_epollin = true;    ///< EPOLLIN currently armed for this fd
  bool want_epollout = false;  ///< EPOLLOUT currently armed for this fd
  bool peer_eof = false;       ///< read side closed; flush then tear down
  /// Unparsed request bytes: less than one maximal frame plus one read.
  std::vector<std::uint8_t> in;
  /// Encoded responses awaiting the socket: at most kMaxPendingOutput plus
  /// the answers to one read's worth of frames.
  std::vector<std::uint8_t> out;
  // Reused per frame so steady-state serving does not allocate.
  std::vector<Query> queries;
  std::vector<graph::Weight> answers;
};

#if PATHSEP_HAVE_EPOLL

namespace {

/// Bytes one recv asks for.
constexpr std::size_t kReadChunk = 16 * 1024;
/// The longest frame, header included; `in` is read only while shorter.
constexpr std::size_t kMaxFrameTotal = 4 + wire::kMaxFrameBytes;
/// Pending output above which a connection is not read: a peer that does
/// not take its replies stops being read instead of growing `out`.
constexpr std::size_t kMaxPendingOutput = 2 * wire::kMaxFrameBytes;
/// How long a listening socket paused at descriptor exhaustion waits for a
/// connection to close before accept() is tried again.
constexpr int kAcceptRetryMs = 100;

obs::LatencyHistogram& phase_histogram(ShardedEngine& engine,
                                       const char* phase) {
  return engine.metrics().histogram("net_frame_phase_ns", {{"phase", phase}});
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

NetServer::NetServer(ShardedEngine& engine, NetServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      decode_ns_(&phase_histogram(engine, "decode")),
      engine_ns_(&phase_histogram(engine, "engine")),
      encode_ns_(&phase_histogram(engine, "encode")),
      write_ns_(&phase_histogram(engine, "write")),
      connections_open_(&engine.metrics().gauge("net_connections_open")),
      connections_accepted_(
          &engine.metrics().counter("net_connections_accepted_total")),
      protocol_errors_(&engine.metrics().counter("net_protocol_errors_total")),
      bytes_in_(&engine.metrics().counter("net_bytes_in_total")),
      bytes_out_(&engine.metrics().counter("net_bytes_out_total")) {}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running_.load(std::memory_order_acquire))
    throw std::runtime_error("NetServer already running");
  stop_requested_.store(false, std::memory_order_release);
  accept_paused_ = false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("bind/listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
  epoll_fd_ = ::epoll_create1(0);
  if (stop_fd_ < 0 || epoll_fd_ < 0) {
    stop();
    throw std::runtime_error("eventfd/epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = stop_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev);

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (stop_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false, std::memory_order_release);
  for (int* fd : {&listen_fd_, &stop_fd_, &epoll_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  conns_.clear();
}

void NetServer::update_events(Conn& conn) {
  const bool want_in =
      !conn.peer_eof && conn.out.size() <= kMaxPendingOutput;
  const bool want_out = !conn.out.empty();
  if (want_in == conn.want_epollin && want_out == conn.want_epollout) return;
  epoll_event ev{};
  ev.events = (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_epollin = want_in;
  conn.want_epollout = want_out;
}

bool NetServer::flush_conn(Conn& conn) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + sent, conn.out.size() - sent,
               MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      bytes_out_->inc(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone / hard error
  }
  conn.out.erase(conn.out.begin(),
                 conn.out.begin() + static_cast<std::ptrdiff_t>(sent));
  return true;
}

bool NetServer::service_conn(Conn& conn) {
  // Drain the socket into the intake buffer, but only while the peer takes
  // its replies (backpressure: a peer that stops reading is not read, so
  // `out` stays bounded) and while `in` holds less than one maximal frame
  // (so `in` stays bounded too). Epoll is level-triggered: bytes left in
  // the socket report the fd again once reading resumes.
  while (!conn.peer_eof && conn.out.size() <= kMaxPendingOutput &&
         conn.in.size() < kMaxFrameTotal) {
    std::uint8_t chunk[kReadChunk];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      bytes_in_->inc(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  // Answer every complete frame already buffered (also the ones that raced
  // in just before EOF), timing each phase with chained clock readings.
  std::size_t offset = 0;
  std::uint64_t t = obs::window_now_ns();
  bool answered = false;
  for (;;) {
    wire::ParsedRequest request;
    // Ids are checked against the engine's snapshot here, before the
    // engine indexes labels with them.
    const wire::ParseStatus status = wire::parse_request(
        conn.in, offset, engine_.num_vertices(), request, conn.queries);
    if (status == wire::ParseStatus::kIncomplete) break;
    if (status == wire::ParseStatus::kMalformed) {
      protocol_errors_->inc();
      return false;
    }
    offset += request.frame_bytes;
    const std::uint64_t decoded = obs::window_now_ns();
    decode_ns_->record(decoded - t);
    conn.answers.resize(conn.queries.size());
    engine_.query_batch_into(conn.queries, conn.answers.data());
    const std::uint64_t computed = obs::window_now_ns();
    engine_ns_->record(computed - decoded);
    wire::append_response(conn.out, request.request_id, conn.answers);
    t = obs::window_now_ns();
    encode_ns_->record(t - computed);
    answered = true;
  }
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(offset));

  const bool flushed = flush_conn(conn);
  if (answered) write_ns_->record(obs::window_now_ns() - t);
  if (!flushed) return false;
  if (conn.peer_eof && conn.out.empty()) return false;  // clean teardown
  update_events(conn);
  return true;
}

void NetServer::close_conn(int fd) {
  for (std::unique_ptr<Conn>& conn : conns_) {
    if (conn && conn->fd == fd) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      conn.reset();
      connections_open_->sub(1);
      if (accept_paused_) resume_accepting();  // a descriptor just freed up
      return;
    }
  }
}

void NetServer::pause_accepting() {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_retry_at_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(kAcceptRetryMs);
}

void NetServer::resume_accepting() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  accept_paused_ = false;
}

void NetServer::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  auto find_conn = [this](int fd) -> Conn* {
    for (std::unique_ptr<Conn>& conn : conns_)
      if (conn && conn->fd == fd) return conn.get();
    return nullptr;
  };
  auto pending_output = [this] {
    for (const std::unique_ptr<Conn>& conn : conns_)
      if (conn && !conn->out.empty()) return true;
    return false;
  };

  for (;;) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      // Graceful shutdown: stop accepting, give buffered responses a bounded
      // window to flush, then tear everything down.
      draining = true;
      drain_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accept_paused_ = false;  // nothing may watch it again
    }
    if (draining &&
        (!pending_output() ||
         std::chrono::steady_clock::now() >= drain_deadline)) {
      for (std::unique_ptr<Conn>& conn : conns_) {
        if (!conn) continue;
        ::close(conn->fd);
        connections_open_->sub(1);
        conn.reset();
      }
      return;
    }

    if (accept_paused_ && std::chrono::steady_clock::now() >= accept_retry_at_)
      resume_accepting();
    const int timeout_ms =
        draining ? 50 : accept_paused_ ? kAcceptRetryMs : -1;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_fd_) {
        std::uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(stop_fd_, &drained, sizeof(drained));
        continue;  // stop_requested_ is checked at the loop head
      }
      if (fd == listen_fd_) {
        for (;;) {
          const int client = ::accept(listen_fd_, nullptr, nullptr);
          if (client < 0) {
            // Out of descriptors or kernel memory: the pending connection
            // keeps the level-triggered socket readable, so stop watching
            // it until a connection closes or kAcceptRetryMs passes.
            // Anything else (EAGAIN, an aborted handshake) waits for the
            // next event.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM)
              pause_accepting();
            break;
          }
          set_nonblocking(client);
          int one = 1;
          ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_unique<Conn>();
          conn->fd = client;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = client;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev);
          connections_accepted_->inc();
          connections_open_->add(1);
          // Reuse a freed table slot before growing the table.
          bool placed = false;
          for (std::unique_ptr<Conn>& slot : conns_) {
            if (!slot) {
              slot = std::move(conn);
              placed = true;
              break;
            }
          }
          if (!placed) conns_.push_back(std::move(conn));
        }
        continue;
      }
      Conn* conn = find_conn(fd);
      if (conn == nullptr) continue;  // already closed this wakeup
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        close_conn(fd);
        continue;
      }
      if (!service_conn(*conn)) close_conn(fd);
    }
  }
}

#else  // !PATHSEP_HAVE_EPOLL

NetServer::NetServer(ShardedEngine& engine, NetServerOptions options)
    : engine_(engine), options_(std::move(options)) {}
NetServer::~NetServer() = default;
void NetServer::start() {
  throw std::runtime_error("NetServer requires Linux epoll");
}
void NetServer::stop() {}
void NetServer::loop() {}
bool NetServer::service_conn(Conn&) { return false; }
bool NetServer::flush_conn(Conn&) { return false; }
void NetServer::close_conn(int) {}
void NetServer::pause_accepting() {}
void NetServer::resume_accepting() {}
void NetServer::update_events(Conn&) {}

#endif  // PATHSEP_HAVE_EPOLL

}  // namespace pathsep::service
