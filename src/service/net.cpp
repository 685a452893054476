#include "service/net.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#if defined(__linux__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#define PATHSEP_HAVE_SOCKETS 1
#endif

namespace pathsep::service::wire {
namespace {

/// `value` in little-endian byte order (the identity on little-endian
/// hosts; decided at compile time, so there is one code path per build).
template <typename U>
U little_endian(U value) {
  static_assert(sizeof(U) == 4 || sizeof(U) == 8);
  if constexpr (std::endian::native == std::endian::little)
    return value;
  else if constexpr (sizeof(U) == 4)
    return __builtin_bswap32(value);
  else
    return __builtin_bswap64(value);
}

template <typename U>
void store_le(std::uint8_t* p, U value) {
  value = little_endian(value);
  std::memcpy(p, &value, sizeof(value));
}

template <typename U>
U load_le(const std::uint8_t* p) {
  U value = 0;
  std::memcpy(&value, p, sizeof(value));
  return little_endian(value);
}

/// Grows `out` by `bytes` and returns where the new bytes start.
std::uint8_t* extend(std::vector<std::uint8_t>& out, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  return out.data() + at;
}

/// Writes a frame header: payload length (request id plus `entries`
/// 8-byte entries), then the request id.
std::uint8_t* store_header(std::uint8_t* p, std::uint32_t request_id,
                           std::size_t entries) {
  store_le(p, static_cast<std::uint32_t>(4 + entries * kEntryBytes));
  store_le(p + 4, request_id);
  return p + kHeaderBytes;
}

}  // namespace

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  store_le(extend(out, 4), value);
}

void append_f64(std::vector<std::uint8_t>& out, double value) {
  store_le(extend(out, 8), std::bit_cast<std::uint64_t>(value));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return load_le<std::uint32_t>(p);
}

double read_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(load_le<std::uint64_t>(p));
}

void append_request(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                    std::span<const Query> queries) {
  std::uint8_t* p = store_header(
      extend(out, kHeaderBytes + queries.size() * kEntryBytes), request_id,
      queries.size());
  for (const Query& q : queries) {
    store_le(p, static_cast<std::uint32_t>(q.u));
    store_le(p + 4, static_cast<std::uint32_t>(q.v));
    p += kEntryBytes;
  }
}

void append_response(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                     std::span<const graph::Weight> distances) {
  std::uint8_t* p = store_header(
      extend(out, kHeaderBytes + distances.size() * kEntryBytes), request_id,
      distances.size());
  for (const graph::Weight d : distances) {
    store_le(p, std::bit_cast<std::uint64_t>(d));
    p += kEntryBytes;
  }
}

ParseStatus parse_request(std::span<const std::uint8_t> buffer,
                          std::size_t offset, std::size_t num_vertices,
                          ParsedRequest& request, std::vector<Query>& queries) {
  const std::size_t available = buffer.size() - offset;
  if (available < 4) return ParseStatus::kIncomplete;
  const std::uint8_t* base = buffer.data() + offset;
  const std::uint32_t payload_len = read_u32(base);
  if (payload_len < 4 || payload_len > kMaxFrameBytes ||
      (payload_len - 4) % kEntryBytes != 0)
    return ParseStatus::kMalformed;
  if (available < 4 + static_cast<std::size_t>(payload_len))
    return ParseStatus::kIncomplete;
  request.request_id = read_u32(base + 4);
  request.frame_bytes = 4 + static_cast<std::size_t>(payload_len);
  const std::size_t n = (payload_len - 4) / kEntryBytes;
  queries.resize(n);
  const std::uint8_t* p = base + 8;
  for (std::size_t i = 0; i < n; ++i, p += kEntryBytes) {
    queries[i] = Query{static_cast<graph::Vertex>(load_le<std::uint32_t>(p)),
                       static_cast<graph::Vertex>(
                           load_le<std::uint32_t>(p + 4))};
    if (queries[i].u >= num_vertices || queries[i].v >= num_vertices)
      return ParseStatus::kMalformed;
  }
  return ParseStatus::kRequest;
}

#if PATHSEP_HAVE_SOCKETS

NetClient::~NetClient() { close(); }

void NetClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    close();
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(err));
  }
  // Frames are already batched; trading latency for Nagle coalescing here
  // would double small-batch round-trip time.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void NetClient::send_request(std::uint32_t request_id,
                             std::span<const Query> queries) {
  if (fd_ < 0) throw std::runtime_error("not connected");
  send_buf_.clear();
  append_request(send_buf_, request_id, queries);
  std::size_t sent = 0;
  while (sent < send_buf_.size()) {
    const ssize_t n =
        ::send(fd_, send_buf_.data() + sent, send_buf_.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void NetClient::read_exact(std::uint8_t* out, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::recv(fd_, out + got, bytes - got, 0);
    if (n == 0) throw std::runtime_error("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv failed: ") +
                               std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
}

std::uint32_t NetClient::recv_response(std::vector<graph::Weight>& distances) {
  if (fd_ < 0) throw std::runtime_error("not connected");
  std::uint8_t header[4];
  read_exact(header, sizeof(header));
  const std::uint32_t payload_len = read_u32(header);
  if (payload_len < 4 || payload_len > kMaxFrameBytes ||
      (payload_len - 4) % kEntryBytes != 0)
    throw std::runtime_error("malformed response frame");
  recv_buf_.resize(payload_len);
  read_exact(recv_buf_.data(), payload_len);
  const std::uint32_t request_id = read_u32(recv_buf_.data());
  const std::size_t n = (payload_len - 4) / kEntryBytes;
  distances.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    distances[i] = read_f64(recv_buf_.data() + 4 + i * kEntryBytes);
  return request_id;
}

void NetClient::query_batch(std::span<const Query> queries,
                            std::vector<graph::Weight>& distances) {
  const std::uint32_t id = next_id_++;
  send_request(id, queries);
  const std::uint32_t echoed = recv_response(distances);
  if (echoed != id)
    throw std::runtime_error("response id mismatch (pipelining misuse?)");
  if (distances.size() != queries.size())
    throw std::runtime_error("response batch size mismatch");
}

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

#else  // !PATHSEP_HAVE_SOCKETS

NetClient::~NetClient() = default;
void NetClient::connect(const std::string&, std::uint16_t) {
  throw std::runtime_error("NetClient requires POSIX sockets");
}
void NetClient::send_request(std::uint32_t, std::span<const Query>) {
  throw std::runtime_error("NetClient requires POSIX sockets");
}
std::uint32_t NetClient::recv_response(std::vector<graph::Weight>&) {
  throw std::runtime_error("NetClient requires POSIX sockets");
}
void NetClient::query_batch(std::span<const Query>,
                            std::vector<graph::Weight>&) {
  throw std::runtime_error("NetClient requires POSIX sockets");
}
void NetClient::close() {}
void NetClient::read_exact(std::uint8_t*, std::size_t) {}

#endif  // PATHSEP_HAVE_SOCKETS

}  // namespace pathsep::service::wire
