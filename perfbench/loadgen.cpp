// Wire-protocol load generator for the oracle-service benchmark.
//
// Speaks the length-prefixed binary protocol of `query_server --serve`
// (framing documented in src/service/net.hpp) with its own socket code, so it
// depends on the wire format only, never on the program's C++ API. Every
// answer is checked against the exact distance in the unit-weight side x side
// grid the server was built from (Manhattan distance between row-major ids):
// an answer must never underestimate and must stay within (1 + eps) of it.
//
// The traffic is the closed loop of `bench_service --loadgen`: one connection
// sends a frame of 512 pairs, awaits its answer, then sends the next; one
// latency sample per frame (the round trip). --mode picks the pairs:
//   uniform  drawn uniformly from all vertex pairs, so the server's result
//            cache misses;
//   zipf     query_server's pair mix, Zipf(1.1) ranks over a pool of 100000
//            uniform pairs, so the result cache hits.
// Everything derives from --seed.
//
// Frames sent in the first kWarmupS seconds are checked but not timed; the
// timed window lasts --seconds. Prints one JSON object on stdout; exits 1 on
// any I/O or protocol error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- arguments

constexpr const char* kHost = "127.0.0.1";
constexpr double kEps = 0.25;          // the servers' --eps
constexpr double kWarmupS = 1.0;       // untimed lead of the loop
constexpr std::size_t kFrame = 512;    // bench_service --loadgen's --batch
constexpr std::size_t kPool = 100000;  // zipf: query_server's --pairs
constexpr double kZipf = 1.1;          // zipf: query_server's --zipf

struct Options {
  int port = 0;
  std::string mode;
  std::uint64_t side = 0;
  std::uint64_t seed = 1;
  double seconds = 10;
};

Options parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::runtime_error("expected --name=value, got " + arg);
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  Options o;
  auto take = [&kv](const char* name, auto& out) {
    const auto it = kv.find(name);
    if (it == kv.end()) return;
    using T = std::decay_t<decltype(out)>;
    if constexpr (std::is_same_v<T, std::string>)
      out = it->second;
    else if constexpr (std::is_floating_point_v<T>)
      out = std::stod(it->second);
    else
      out = static_cast<T>(std::stoll(it->second));
    kv.erase(it);
  };
  take("port", o.port);
  take("mode", o.mode);
  take("side", o.side);
  take("seed", o.seed);
  take("seconds", o.seconds);
  if (!kv.empty())
    throw std::runtime_error("unknown flag --" + kv.begin()->first);
  if (o.port <= 0 || o.port > 65535) throw std::runtime_error("bad --port");
  if (o.side < 2 || o.side > 60000) throw std::runtime_error("bad --side");
  if (o.mode != "uniform" && o.mode != "zipf")
    throw std::runtime_error("--mode must be uniform or zipf");
  return o;
}

// ------------------------------------------------------------------ inputs

/// splitmix64: the whole input stream is a function of --seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Pair {
  std::uint32_t u = 0, v = 0;
};

Pair random_pair(Rng& rng, std::uint64_t vertices) {
  return {static_cast<std::uint32_t>(rng.below(vertices)),
          static_cast<std::uint32_t>(rng.below(vertices))};
}

/// The pair sequence of --mode: fresh uniform pairs, or Zipf(kZipf) ranks
/// sampled by inverse CDF over a pool of kPool uniform pairs.
class PairStream {
 public:
  explicit PairStream(const Options& o)
      : vertices_(o.side * o.side), rng_{o.seed} {
    if (o.mode != "zipf") return;
    pool_.resize(kPool);
    for (Pair& p : pool_) p = random_pair(rng_, vertices_);
    cdf_.resize(kPool);
    double total = 0;
    for (std::size_t k = 0; k < kPool; ++k)
      cdf_[k] = (total += 1.0 / std::pow(static_cast<double>(k + 1), kZipf));
    for (double& c : cdf_) c /= total;
  }
  Pair next() {
    if (pool_.empty()) return random_pair(rng_, vertices_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.unit());
    return pool_[std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), kPool - 1)];
  }

 private:
  std::uint64_t vertices_;
  Rng rng_;
  std::vector<Pair> pool_;
  std::vector<double> cdf_;
};

// --------------------------------------------------------------- wire codec

void put_u32(std::uint8_t* p, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

double get_f64(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Request frame: u32 payload_len | u32 request_id | n x (u32 u, u32 v).
void encode_request(std::vector<std::uint8_t>& out, std::uint32_t id,
                    const std::vector<Pair>& pairs) {
  out.resize(8 + 8 * pairs.size());
  put_u32(out.data(), static_cast<std::uint32_t>(4 + 8 * pairs.size()));
  put_u32(out.data() + 4, id);
  std::uint8_t* p = out.data() + 8;
  for (const Pair& pair : pairs) {
    put_u32(p, pair.u);
    put_u32(p + 4, pair.v);
    p += 8;
  }
}

class Conn {
 public:
  explicit Conn(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, kHost, &addr.sin_addr);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(err));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0)
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads one response frame; returns its request id, answers in `out`.
  std::uint32_t recv_response(std::vector<double>& out) {
    std::uint8_t header[8];
    read_exact(header, sizeof(header));
    const std::uint32_t len = get_u32(header);
    if (len < 4 || (len - 4) % 8 != 0 || len > (1u << 20))
      throw std::runtime_error("malformed response frame");
    const std::size_t n = (len - 4) / 8;
    buf_.resize(n * 8);
    read_exact(buf_.data(), buf_.size());
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = get_f64(buf_.data() + 8 * i);
    return get_u32(header + 4);
  }

 private:
  void read_exact(std::uint8_t* out, std::size_t bytes) {
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::recv(fd_, out + got, bytes - got, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) throw std::runtime_error("connection closed by server");
      if (n < 0)
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      got += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
};

// ------------------------------------------------------------ verification

/// Counts answers outside [d, (1 + eps) d] for the exact grid distance d.
std::uint64_t count_wrong(const std::vector<Pair>& pairs,
                          const std::vector<double>& answers,
                          std::uint64_t side) {
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto ru = static_cast<std::int64_t>(pairs[i].u / side);
    const auto cu = static_cast<std::int64_t>(pairs[i].u % side);
    const auto rv = static_cast<std::int64_t>(pairs[i].v / side);
    const auto cv = static_cast<std::int64_t>(pairs[i].v % side);
    const auto d =
        static_cast<double>(std::llabs(ru - rv) + std::llabs(cu - cv));
    const double a = answers[i];
    if (!(a >= d * (1 - 1e-12) && a <= d * (1 + kEps) * (1 + 1e-12))) ++wrong;
  }
  return wrong;
}

// ----------------------------------------------------------------- results

/// One timed frame: when its answer arrived and its round trip.
struct Sample {
  std::int64_t done_ns = 0;
  double latency_us = 0;
};

struct Tally {
  std::uint64_t checked = 0;  // every answer checked, warmup included
  std::uint64_t wrong = 0;
  std::vector<Sample> samples;  // one per timed frame
  std::int64_t encode_ns = 0, send_ns = 0, wait_ns = 0, verify_ns = 0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Rates and latency quantiles of the timed window. The window is cut into
/// slices of about a second by answer time and each figure is the median over
/// the slices, so a stall of the shared machine that spoils a few slices does
/// not move the result; a stall the server causes in every slice does.
struct Summary {
  double qps = 0, p50_us = 0, p90_us = 0, p99_us = 0, max_us = 0;
};

Summary summarize(const std::vector<Sample>& samples, std::int64_t t_begin,
                  std::int64_t t_end) {
  const double span_ns = static_cast<double>(t_end - t_begin);
  const double windows = std::max(1.0, std::round(span_ns / 1e9));
  const double width_ns = span_ns / windows;
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(windows));
  Summary s;
  for (const Sample& sample : samples) {
    const double slot =
        std::floor(static_cast<double>(sample.done_ns - t_begin) / width_ns);
    if (slot < 0 || slot >= windows) continue;
    latency[static_cast<std::size_t>(slot)].push_back(sample.latency_us);
    s.max_us = std::max(s.max_us, sample.latency_us);
  }
  std::vector<double> qps, p50, p90, p99;
  for (const std::vector<double>& slice : latency) {
    qps.push_back(static_cast<double>(slice.size() * kFrame) * 1e9 / width_ns);
    p50.push_back(quantile(slice, 0.50));
    p90.push_back(quantile(slice, 0.90));
    p99.push_back(quantile(slice, 0.99));
  }
  s.qps = quantile(qps, 0.5);
  s.p50_us = quantile(p50, 0.5);
  s.p90_us = quantile(p90, 0.5);
  s.p99_us = quantile(p99, 0.5);
  return s;
}

// ------------------------------------------------------------------- loop

Tally run_loop(const Options& o, std::int64_t t_measure, std::int64_t t_end) {
  PairStream stream(o);
  Tally t;
  Conn conn(o.port);
  std::vector<std::uint8_t> frame;
  std::vector<double> answers;
  std::vector<Pair> batch(kFrame);
  for (std::uint32_t id = 1;; ++id) {
    const std::int64_t t0 = now_ns();
    if (t0 >= t_end) break;
    for (Pair& p : batch) p = stream.next();
    encode_request(frame, id, batch);
    const std::int64_t t1 = now_ns();
    conn.send_all(frame);
    const std::int64_t t2 = now_ns();
    if (conn.recv_response(answers) != id || answers.size() != batch.size())
      throw std::runtime_error("response does not match request");
    const std::int64_t t3 = now_ns();
    t.wrong += count_wrong(batch, answers, o.side);
    t.checked += batch.size();
    const std::int64_t t4 = now_ns();
    if (t0 >= t_measure) {
      t.samples.push_back({t3, static_cast<double>(t3 - t0) / 1e3});
      t.encode_ns += t1 - t0;
      t.send_ns += t2 - t1;
      t.wait_ns += t3 - t2;
      t.verify_ns += t4 - t3;
    }
  }
  return t;
}

int run(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const auto t_measure = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  const auto t_end = t_measure + static_cast<std::int64_t>(o.seconds * 1e9);
  const Tally t = run_loop(o, t_measure, t_end);
  const Summary s = summarize(t.samples, t_measure, t_end);
  const double frames = static_cast<double>(t.samples.size());
  const double per_frame = frames > 0 ? 1.0 / frames : 0;
  std::printf(
      "{\"frames\": %zu, \"checked\": %llu, \"wrong\": %llu, "
      "\"qps\": %.3f, \"lat_p50_us\": %.3f, \"lat_p90_us\": %.3f, "
      "\"lat_p99_us\": %.3f, \"lat_max_us\": %.3f, "
      "\"encode_ns_per_frame\": %.1f, \"send_ns_per_frame\": %.1f, "
      "\"wait_ns_per_frame\": %.1f, \"verify_ns_per_frame\": %.1f}\n",
      t.samples.size(), static_cast<unsigned long long>(t.checked),
      static_cast<unsigned long long>(t.wrong), s.qps, s.p50_us, s.p90_us,
      s.p99_us, s.max_us, static_cast<double>(t.encode_ns) * per_frame,
      static_cast<double>(t.send_ns) * per_frame,
      static_cast<double>(t.wait_ns) * per_frame,
      static_cast<double>(t.verify_ns) * per_frame);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
}
