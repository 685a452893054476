// Whole-oracle snapshot: the oracle's label arena, written as it is.
//
// serialize.hpp ships one label at a time (the distributed Theorem-2 view);
// a serving engine instead wants the whole centralized oracle persisted so a
// restarted process cold-starts from disk instead of rebuilding the
// decomposition hierarchy. The file is the oracle::LabelArena arrays plus a
// fixed header and a checksum, so saving copies arrays out and loading reads
// them back with no per-label decode. Format version 3, every field
// little-endian (the only byte order this code builds for; see the
// static_assert in snapshot.cpp):
//
//   offset 0   magic "PSEPSNAP"
//          8   u32 version (3), u32 zero
//         16   f64 epsilon
//         24   u64 n (vertices), u64 num_nodes, u64 P (parts), u64 C
//              (connections)
//         56   part_offsets  (n + 1) x u64
//              parts         (P + 1) x {i32 node, u32 path | depth << 16,
//                            u64 begin}, the last one the {0, 0, C}
//                            sentinel; depth is the node's depth in the
//                            decomposition tree, which the merge walk's
//                            exit reads
//              hot           C x {f64 prefix, f64 dist}
//              cold          C x {u32 path_index, u32 next_hop}
//   size - 8   u64 checksum
//
// Every element is a whole number of 8-byte words, so every section starts
// 8-byte aligned and the only padding is the zero word half after the
// version; the bytes are a function of the oracle alone. The checksum is
// an FNV-style multiply-xorshift over all preceding 64-bit words — it
// catches accidental corruption, not forgery, so loading never trusts it:
// the header counts must exactly account for the file size before anything
// is allocated, num_nodes must not exceed n, and oracle::validate_arena
// checks the arrays before any label is read. Any failure throws
// std::runtime_error. Version-1 files (varint-coded labels) and version-2
// files (part headers without depths) are rejected with a message to
// rebuild them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oracle/path_oracle.hpp"

namespace pathsep::service {

inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Parsed header of a snapshot buffer (cheap; reads no labels).
struct SnapshotInfo {
  std::uint32_t version = 0;
  double epsilon = 0.0;
  std::size_t num_vertices = 0;
  std::size_t num_nodes = 0;
  std::size_t num_parts = 0;
  std::size_t num_connections = 0;
  std::size_t total_bytes = 0;
};

std::vector<std::uint8_t> serialize_oracle(const oracle::PathOracle& oracle);

/// Parses a snapshot image. Throws std::runtime_error on bad magic,
/// unsupported version, a size the header does not account for, checksum
/// mismatch, or an arena that fails oracle::validate_arena. The same parser
/// as load_snapshot, reading from memory instead of a file.
oracle::PathOracle deserialize_oracle(std::span<const std::uint8_t> bytes);

/// The checksum stored in a snapshot's last 8 bytes, computed over `body`
/// (everything before them; a whole number of 8-byte words). Public so
/// tests can forge well-checksummed files: anyone can, which is why the
/// loader never relies on it.
std::uint64_t snapshot_checksum(std::span<const std::uint8_t> body);

/// Header fields of a snapshot of `file_size` bytes whose first bytes are
/// `head` (at least the 56-byte header); reads no labels. Runs the
/// loader's header checks, so the counts must account for exactly
/// `file_size` bytes.
SnapshotInfo peek_snapshot(std::span<const std::uint8_t> head,
                           std::size_t file_size);

/// Writes serialize_oracle(oracle) to `path`. With `validate` (the default),
/// the image is checked first, so a bad image never replaces the snapshot
/// already on disk: its header and checksum are parsed back, the source
/// arena passes oracle::validate_arena, and every section of the image
/// equals the source's array byte for byte. Throws on I/O failure.
void save_snapshot(const oracle::PathOracle& oracle, const std::string& path,
                   bool validate = true);

/// fstat for the file size, then the deserialize_oracle parser reading the
/// file section by section straight into the arena's arrays (looping on
/// short reads); nothing is allocated before the header's counts are
/// checked against the file size.
oracle::PathOracle load_snapshot(const std::string& path);

}  // namespace pathsep::service
