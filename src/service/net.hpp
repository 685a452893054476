// Binary wire protocol for the query service, plus the blocking client the
// load generator and tests drive it with.
//
// Framing (all integers little-endian):
//
//   frame            := u32 payload_len | payload        (len counts payload
//                                                         bytes only)
//   request payload  := u32 request_id | n x { u32 u | u32 v }
//   response payload := u32 request_id | n x f64 distance
//
// n is implied by payload_len: (payload_len - 4) / 8 for both directions (a
// pair and a double are both 8 bytes). A request with payload_len < 4, a
// pair section not divisible by 8, payload_len > kMaxFrameBytes, or a vertex
// id outside the served snapshot is a protocol error; the server closes the
// connection. request_id is opaque to the server and echoed verbatim —
// clients use it to match pipelined responses to send timestamps. An empty
// batch (n = 0) is valid and answered with an empty response (a ping).
//
// The codec moves each field as one whole word through a little-endian
// store/load helper (a plain copy on little-endian hosts, a byte swap chosen
// at compile time elsewhere), so the format is identical on any host
// endianness, and a frame is encoded into one resize of the output buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/answer_path.hpp"

namespace pathsep::service::wire {

/// Ceiling on one frame's payload; a peer announcing more is malformed
/// (protects the server from a single 4-byte header allocating gigabytes).
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;
/// Bytes per (u, v) pair in a request / per distance in a response.
inline constexpr std::size_t kEntryBytes = 8;
/// Frame header (payload_len) plus payload prefix (request_id).
inline constexpr std::size_t kHeaderBytes = 8;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value);
void append_f64(std::vector<std::uint8_t>& out, double value);
std::uint32_t read_u32(const std::uint8_t* p);
double read_f64(const std::uint8_t* p);

/// Appends one request frame for `queries` to `out`.
void append_request(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                    std::span<const Query> queries);

/// Appends one response frame for `distances` to `out`.
void append_response(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                     std::span<const graph::Weight> distances);

/// One parsed request frame (views into the connection buffer are copied
/// out; the scratch vectors are caller-owned and reused across frames).
struct ParsedRequest {
  std::uint32_t request_id = 0;
  std::size_t frame_bytes = 0;  ///< total bytes consumed, header included
};

enum class ParseStatus : std::uint8_t {
  kIncomplete,  ///< need more bytes
  kRequest,     ///< one frame parsed; queries filled
  kMalformed,   ///< protocol error — close the connection
};

/// Attempts to parse one request frame from buffer[offset:]. On kRequest,
/// fills `request` and replaces `queries`'s contents with the frame's pairs.
/// A complete frame carrying any vertex id >= num_vertices is kMalformed.
ParseStatus parse_request(std::span<const std::uint8_t> buffer,
                          std::size_t offset, std::size_t num_vertices,
                          ParsedRequest& request, std::vector<Query>& queries);

/// Blocking client over one TCP connection. Supports pipelining: send any
/// number of requests before receiving; responses arrive in server order
/// (the server answers frames sequentially per connection) and carry the
/// echoed request_id. Not thread-safe per instance, but one thread may send
/// while another receives (the two directions touch disjoint state).
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to host:port; throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);

  /// Sends one request frame (blocking until the kernel accepts it all).
  void send_request(std::uint32_t request_id, std::span<const Query> queries);

  /// Receives one response frame (blocking); resizes `distances` to the
  /// response's batch and returns the echoed request_id. Throws on EOF or a
  /// malformed frame.
  std::uint32_t recv_response(std::vector<graph::Weight>& distances);

  /// Convenience round-trip: send + receive, asserting the echoed id.
  void query_batch(std::span<const Query> queries,
                   std::vector<graph::Weight>& distances);

  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  void read_exact(std::uint8_t* out, std::size_t bytes);

  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint8_t> send_buf_;
  std::vector<std::uint8_t> recv_buf_;
};

}  // namespace pathsep::service::wire
