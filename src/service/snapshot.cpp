// pathsep-lint: deterministic — snapshot bytes must be identical for every
// run and thread count (label_digest equality tests depend on it), so
// nothing here may iterate a hash container into the output.
#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"

namespace pathsep::service {

static_assert(std::endian::native == std::endian::little,
              "the snapshot format stores the arena arrays as they are in "
              "memory, which is little-endian only on a little-endian host");

namespace {

using oracle::ColdEntry;
using oracle::HotEntry;
using oracle::LabelArena;
using oracle::LabelPart;

// The arrays are copied as raw bytes: every element must be trivially
// copyable, a whole number of 8-byte words, and free of padding bytes.
static_assert(std::is_trivially_copyable_v<LabelPart> &&
              sizeof(LabelPart) == 16);
static_assert(std::is_trivially_copyable_v<HotEntry> &&
              sizeof(HotEntry) == 16);
static_assert(std::is_trivially_copyable_v<ColdEntry> &&
              sizeof(ColdEntry) == 8);

constexpr char kMagic[8] = {'P', 'S', 'E', 'P', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 56;
constexpr std::size_t kChecksumBytes = 8;

/// FNV-1a-style hash over 64-bit words, with an xorshift after each
/// multiply so high-bit differences also reach the low bits. Word i feeds
/// lane i % 4, so four independent multiply chains run side by side.
/// Streaming: add() takes consecutive pieces, each a whole number of words,
/// and the result does not depend on how the input was split.
class WordChecksum {
 public:
  void add(std::span<const std::uint8_t> bytes) {
    PATHSEP_STAGE_TIMER("snapshot_checksum_ns");
    const std::uint8_t* p = bytes.data();
    std::size_t words = bytes.size() / 8;
    for (; words > 0 && words_ % 4 != 0; --words, p += 8)
      mix(lanes_[words_++ % 4], load(p));
    for (; words >= 4; words -= 4, p += 32, words_ += 4) {
      mix(lanes_[0], load(p));
      mix(lanes_[1], load(p + 8));
      mix(lanes_[2], load(p + 16));
      mix(lanes_[3], load(p + 24));
    }
    for (; words > 0; --words, p += 8) mix(lanes_[words_++ % 4], load(p));
  }

  std::uint64_t value() const {
    std::uint64_t hash = words_;
    for (const std::uint64_t lane : lanes_) mix(hash, lane);
    return hash;
  }

 private:
  static std::uint64_t load(const std::uint8_t* p) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    return word;
  }
  static void mix(std::uint64_t& hash, std::uint64_t word) {
    hash = (hash ^ word) * 0x100000001b3ULL;
    hash ^= hash >> 32;
  }

  std::uint64_t lanes_[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                             0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL};
  std::uint64_t words_ = 0;
};

std::uint64_t get_u64(std::span<const std::uint8_t> bytes,
                      std::size_t offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

void put_u64(std::uint8_t* out, std::size_t offset, std::uint64_t value) {
  std::memcpy(out + offset, &value, sizeof(value));
}

template <typename T>
std::span<const std::uint8_t> bytes_of(const std::vector<T>& array) {
  return {reinterpret_cast<const std::uint8_t*>(array.data()),
          array.size() * sizeof(T)};
}

template <typename T>
std::span<std::uint8_t> bytes_of(std::vector<T>& array) {
  return {reinterpret_cast<std::uint8_t*>(array.data()),
          array.size() * sizeof(T)};
}

/// Calls fn on the arena's arrays in file order.
template <typename Arena, typename Fn>
void for_each_section(Arena& arena, Fn&& fn) {
  fn(arena.part_offsets);
  fn(arena.parts);
  fn(arena.hot);
  fn(arena.cold);
}

/// Byte size of the whole file for the given counts, or 0 if some count
/// cannot fit in `limit` bytes. The limit is capped at SIZE_MAX / 4, so each
/// of the three section sizes is at most a quarter of SIZE_MAX and their sum
/// cannot wrap.
std::size_t file_bytes(std::uint64_t n, std::uint64_t parts,
                       std::uint64_t conns, std::size_t limit) {
  limit = std::min(limit, SIZE_MAX / 4);
  if (n >= limit / sizeof(std::uint64_t) ||
      parts >= limit / sizeof(LabelPart) ||
      conns > limit / (sizeof(HotEntry) + sizeof(ColdEntry)))
    return 0;
  return kHeaderBytes + (n + 1) * sizeof(std::uint64_t) +
         (parts + 1) * sizeof(LabelPart) +
         conns * (sizeof(HotEntry) + sizeof(ColdEntry)) + kChecksumBytes;
}

/// Checks magic, version and that the header counts account for exactly
/// `file_size` bytes. `head` holds the file's first min(file_size,
/// kHeaderBytes) bytes; nothing past the header is read.
SnapshotInfo read_header(std::span<const std::uint8_t> head,
                         std::size_t file_size) {
  if (head.size() < 16 || std::memcmp(head.data(), kMagic, 8) != 0)
    throw std::runtime_error("snapshot magic mismatch");
  SnapshotInfo info;
  std::memcpy(&info.version, head.data() + 8, sizeof(info.version));
  if (info.version == 1 || info.version == 2)
    throw std::runtime_error(
        "snapshot format version " + std::to_string(info.version) +
        (info.version == 1 ? " (varint-coded labels)"
                           : " (part headers without depths)") +
        " is no longer readable; rebuild the snapshot from the graph "
        "(query_server --save)");
  if (info.version != kSnapshotVersion || get_u64(head, 8) >> 32 != 0)
    throw std::runtime_error("unsupported snapshot version " +
                             std::to_string(info.version) +
                             " (this build reads version " +
                             std::to_string(kSnapshotVersion) + ")");
  if (head.size() < kHeaderBytes || file_size < kHeaderBytes + kChecksumBytes)
    throw std::runtime_error("snapshot too short for header");
  std::memcpy(&info.epsilon, head.data() + 16, sizeof(info.epsilon));
  if (!(info.epsilon > 0) || !std::isfinite(info.epsilon))
    throw std::runtime_error("snapshot epsilon is not a positive number");
  const std::uint64_t n = get_u64(head, 24);
  const std::uint64_t nodes = get_u64(head, 32);
  const std::uint64_t parts = get_u64(head, 40);
  const std::uint64_t conns = get_u64(head, 48);
  if (file_bytes(n, parts, conns, file_size) != file_size)
    throw std::runtime_error(
        "snapshot size " + std::to_string(file_size) +
        " does not match its header counts (n=" + std::to_string(n) +
        ", parts=" + std::to_string(parts) +
        ", connections=" + std::to_string(conns) + ")");
  // Every decomposition node removes at least one vertex, so a node count
  // above n is corruption; bounding it here keeps the per-node depth table
  // the validator allocates no larger than the part_offsets the file paid
  // for.
  if (nodes > n)
    throw std::runtime_error("snapshot node count " + std::to_string(nodes) +
                             " exceeds its vertex count " + std::to_string(n));
  info.num_vertices = static_cast<std::size_t>(n);
  info.num_nodes = static_cast<std::size_t>(nodes);
  info.num_parts = static_cast<std::size_t>(parts);
  info.num_connections = static_cast<std::size_t>(conns);
  info.total_bytes = file_size;
  return info;
}

/// An arena with zeroed arrays sized for `info`.
LabelArena sized_arena(const SnapshotInfo& info) {
  LabelArena arena;
  arena.num_nodes = info.num_nodes;
  arena.part_offsets.resize(info.num_vertices + 1);
  arena.parts.resize(info.num_parts + 1);
  arena.hot.resize(info.num_connections);
  arena.cold.resize(info.num_connections);
  return arena;
}

/// Validates a loaded arena (the PathOracle constructor runs
/// oracle::validate_arena before it reads any label, so no unvalidated
/// offset is ever followed).
oracle::PathOracle adopt(LabelArena arena, double epsilon) {
  PATHSEP_STAGE_TIMER("snapshot_validate_ns");
  oracle::PathOracle loaded(std::move(arena), epsilon);
  // A snapshot that passes the checksum and the structural validator can
  // still have been written by a corrupted producer; the deep audit also
  // checks decoded distances.
  PATHSEP_AUDIT(check::audit_labels(loaded.arena()));
  return loaded;
}

void check_checksum(std::uint64_t computed, std::uint64_t stored) {
  if (computed != stored)
    throw std::runtime_error("snapshot checksum mismatch");
}

/// Owns a file descriptor. close() reports the result the destructor
/// would otherwise drop (a failed close can lose written data).
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }
  bool close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

/// Reads exactly out.size() bytes, looping on short reads and EINTR.
void read_fully(int fd, std::span<std::uint8_t> out, const std::string& path) {
  for (std::size_t done = 0; done < out.size();) {
    const ssize_t got = ::read(fd, out.data() + done, out.size() - done);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0)
      throw std::runtime_error("cannot read " + path + ": " +
                               std::strerror(errno));
    if (got == 0)
      throw std::runtime_error("short read from " + path +
                               " (file changed while loading?)");
    done += static_cast<std::size_t>(got);
  }
}

/// The one snapshot parser, over any byte source of `file_size` bytes:
/// read(out) fills `out` with the source's next out.size() bytes or throws.
/// The header's counts are checked against file_size before anything is
/// allocated; then each section is read straight into its arena array, the
/// stored checksum is compared, and the arena is validated.
template <typename Read>
oracle::PathOracle parse_snapshot(std::size_t file_size, Read&& read) {
  const auto timed_read = [&](std::span<std::uint8_t> out) {
    PATHSEP_STAGE_TIMER("snapshot_io_ns");
    read(out);
  };
  std::uint8_t head[kHeaderBytes] = {};
  std::uint8_t stored[kChecksumBytes] = {};
  const std::span<std::uint8_t> head_bytes(head,
                                           std::min(file_size, kHeaderBytes));
  timed_read(head_bytes);
  const SnapshotInfo info = read_header(head_bytes, file_size);
  LabelArena arena = sized_arena(info);
  for_each_section(arena, [&](auto& array) { timed_read(bytes_of(array)); });
  timed_read(stored);
  WordChecksum checksum;
  checksum.add(head);
  for_each_section(arena, [&](const auto& array) {
    checksum.add(bytes_of(array));
  });
  check_checksum(checksum.value(), get_u64(stored, 0));
  return adopt(std::move(arena), info.epsilon);
}

}  // namespace

std::vector<std::uint8_t> serialize_oracle(const oracle::PathOracle& oracle) {
  const LabelArena& arena = oracle.arena();
  const std::size_t size =
      file_bytes(arena.num_vertices(), arena.num_parts(),
                 arena.num_connections(), SIZE_MAX);
  PATHSEP_ASSERT(size != 0, "label arena too large to serialize");
  std::vector<std::uint8_t> out;
  {
    PATHSEP_STAGE_TIMER("snapshot_encode_ns");
    std::uint8_t head[kHeaderBytes] = {};
    std::memcpy(head, kMagic, sizeof(kMagic));
    put_u64(head, 8, kSnapshotVersion);
    const double epsilon = oracle.epsilon();
    std::memcpy(head + 16, &epsilon, sizeof(epsilon));
    put_u64(head, 24, arena.num_vertices());
    put_u64(head, 32, arena.num_nodes);
    put_u64(head, 40, arena.num_parts());
    put_u64(head, 48, arena.num_connections());
    // Appended into reserved space, so no byte is zeroed and then copied.
    out.reserve(size);
    out.insert(out.end(), std::begin(head), std::end(head));
    for_each_section(arena, [&](const auto& array) {
      const std::span<const std::uint8_t> section = bytes_of(array);
      out.insert(out.end(), section.begin(), section.end());
    });
  }
  std::uint8_t sum[kChecksumBytes] = {};
  put_u64(sum, 0, snapshot_checksum(out));
  out.insert(out.end(), std::begin(sum), std::end(sum));
  PATHSEP_DCHECK(out.size() == size);
  return out;
}

std::uint64_t snapshot_checksum(std::span<const std::uint8_t> body) {
  WordChecksum checksum;
  checksum.add(body);
  return checksum.value();
}

SnapshotInfo peek_snapshot(std::span<const std::uint8_t> head,
                           std::size_t file_size) {
  return read_header(head, file_size);
}

oracle::PathOracle deserialize_oracle(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  return parse_snapshot(bytes.size(), [&](std::span<std::uint8_t> out) {
    if (out.size() > bytes.size() - offset)
      throw std::runtime_error("snapshot truncated");
    if (!out.empty())
      std::memcpy(out.data(), bytes.data() + offset, out.size());
    offset += out.size();
  });
}

void save_snapshot(const oracle::PathOracle& oracle, const std::string& path,
                   bool validate) {
  const std::vector<std::uint8_t> bytes = serialize_oracle(oracle);
  if (validate) {
    // Round trip without a second copy: parse the image's header and
    // checksum back, then demand every section equal, byte for byte, the
    // arrays that pass oracle::validate_arena — so loading the image runs
    // the same validator to the same verdict and rebuilds this exact arena.
    const std::span<const std::uint8_t> image(bytes);
    const SnapshotInfo info = read_header(image, image.size());
    check_checksum(
        snapshot_checksum(image.first(image.size() - kChecksumBytes)),
        get_u64(image, image.size() - kChecksumBytes));
    PATHSEP_STAGE_TIMER("snapshot_validate_ns");
    const LabelArena& arena = oracle.arena();
    oracle::validate_arena(arena);
    bool same = std::bit_cast<std::uint64_t>(info.epsilon) ==
                    std::bit_cast<std::uint64_t>(oracle.epsilon()) &&
                info.num_nodes == arena.num_nodes &&
                info.num_vertices == arena.num_vertices() &&
                info.num_parts == arena.num_parts() &&
                info.num_connections == arena.num_connections();
    std::size_t offset = kHeaderBytes;
    for_each_section(arena, [&](const auto& array) {
      const std::span<const std::uint8_t> section = bytes_of(array);
      same = same && (section.empty() ||
                      std::memcmp(image.data() + offset, section.data(),
                                  section.size()) == 0);
      offset += section.size();
    });
    if (!same)
      throw std::runtime_error(
          "snapshot round-trip does not reproduce the oracle's arena");
  }
  PATHSEP_STAGE_TIMER("snapshot_io_ns");
  FileDescriptor file(
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (file.get() < 0)
    throw std::runtime_error("cannot open " + path + " for writing: " +
                             std::strerror(errno));
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t wrote =
        ::write(file.get(), bytes.data() + done, bytes.size() - done);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0)
      throw std::runtime_error("short write to " + path + ": " +
                               std::strerror(errno));
    done += static_cast<std::size_t>(wrote);
  }
  if (!file.close())
    throw std::runtime_error("cannot close " + path + ": " +
                             std::strerror(errno));
}

oracle::PathOracle load_snapshot(const std::string& path) {
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0)
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  struct stat st {};
  if (::fstat(file.get(), &st) != 0)
    throw std::runtime_error("cannot stat " + path + ": " +
                             std::strerror(errno));
  if (!S_ISREG(st.st_mode) || st.st_size < 0)
    throw std::runtime_error(path + " is not a regular file");
  return parse_snapshot(static_cast<std::size_t>(st.st_size),
                        [&](std::span<std::uint8_t> out) {
                          read_fully(file.get(), out, path);
                        });
}

}  // namespace pathsep::service
