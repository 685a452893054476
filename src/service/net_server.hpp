// Epoll-based network front-end for the sharded query engine.
//
// One event-loop thread owns the listening socket, an eventfd used as the
// stop wakeup, and every connection. Connections are nonblocking; reads
// append to a per-connection intake buffer, complete frames (see
// service/net.hpp for the wire format) are decoded and answered
// synchronously through ShardedEngine::query_batch_into — the loop is the
// producer, the shard workers are the parallelism — and responses append to
// a per-connection write buffer flushed opportunistically, with EPOLLOUT
// armed only while a partial write is outstanding.
//
// Backpressure: a connection is not read while more than two maximal
// frames of its responses wait for the socket, and its intake buffer never
// holds more than one maximal frame plus one read. A peer that sends
// without reading its replies therefore fills its own socket buffers and
// blocks (or sees EAGAIN), instead of growing the server's memory; reading
// resumes once its output drains.
//
// Phase timers: each answered frame adds one sample to each of the engine
// registry's net_frame_phase_ns{phase="decode"|"engine"|"encode"} histograms
// (parse and id check, ShardedEngine::query_batch_into, response encode),
// and each read event that answered frames adds one phase="write" sample
// (the flush of its responses). The readings are chained, so a read event
// answering one frame costs five clock reads.
//
// Counts: every serving count lives in the engine's registry. Frames are
// the count of net_frame_phase_ns{phase="engine"} (one sample per answered
// frame, empty ones included), queries the engine's queries_total. The
// loop also keeps net_connections_accepted_total, the
// net_connections_open gauge (closed = accepted - open),
// net_protocol_errors_total and net_bytes_{in,out}_total.
//
// Descriptor exhaustion: when accept() fails for want of a file
// descriptor or kernel memory (EMFILE, ENFILE, ENOBUFS, ENOMEM), the
// connection stays pending and the level-triggered listening socket stays
// readable, so the loop would spin on epoll_wait. It stops watching the
// socket instead, and watches it again as soon as one of its connections
// closes, or after 100 ms in case a descriptor freed up elsewhere.
//
// Graceful shutdown: stop() writes the eventfd; the loop stops accepting,
// answers every complete frame already buffered, flushes pending responses
// for up to ~2 seconds, then closes everything and exits. A malformed frame
// (bad length, or a vertex id the snapshot does not have) closes only the
// offending connection (counted in net_protocol_errors_total).
//
// Linux-only (epoll + eventfd): on other platforms start() throws.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/sharded_engine.hpp"

namespace pathsep::service {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port from port() after start().
  std::uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
};

class NetServer {
 public:
  /// The engine must outlive the server.
  NetServer(ShardedEngine& engine, NetServerOptions options = {});

  /// stop()s if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread. Throws
  /// std::runtime_error on failure (port in use, unsupported platform, ...).
  void start();

  /// Requests shutdown and joins the loop thread. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (valid after start(); resolves an ephemeral request).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

 private:
  struct Conn;

  void loop();
  /// Drains readable bytes, answers complete frames, flushes what it can.
  /// Returns false when the connection should be torn down.
  bool service_conn(Conn& conn);
  bool flush_conn(Conn& conn);
  void close_conn(int fd);
  /// Stops / resumes watching the listening socket (see "Descriptor
  /// exhaustion" in the header comment).
  void pause_accepting();
  void resume_accepting();
  /// Arms EPOLLIN while the connection may be read (see the header
  /// comment) and EPOLLOUT while output is pending.
  void update_events(Conn& conn);

  ShardedEngine& engine_;
  NetServerOptions options_;
  /// net_frame_phase_ns{phase} in the engine's registry (see the header).
  obs::LatencyHistogram* decode_ns_ = nullptr;
  obs::LatencyHistogram* engine_ns_ = nullptr;
  obs::LatencyHistogram* encode_ns_ = nullptr;
  obs::LatencyHistogram* write_ns_ = nullptr;
  /// net_connections_open in the engine's registry: up on accept, down on
  /// close.
  obs::Gauge* connections_open_ = nullptr;
  /// The engine registry's net_*_total counters (see the header).
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd the stop() side writes to wake the loop
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Loop-thread state: the listening socket is out of the epoll set until
  // a connection closes or accept_retry_at_ passes.
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_retry_at_{};

  // Connection table keyed by fd; touched only by the loop thread.
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace pathsep::service
