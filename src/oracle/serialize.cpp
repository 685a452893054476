#include "oracle/serialize.hpp"

#include <cstring>
#include <stdexcept>

namespace pathsep::oracle {

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                          std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (offset >= bytes.size())
      throw std::runtime_error("varint truncated");
    const std::uint8_t byte = bytes[offset++];
    if (shift >= 64) throw std::runtime_error("varint overflow");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return value;
    shift += 7;
  }
}

void append_double(std::vector<std::uint8_t>& out, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

double read_double(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  if (offset + 8 > bytes.size())
    throw std::runtime_error("double truncated");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(bytes[offset + static_cast<std::size_t>(i)])
            << (8 * i);
  offset += 8;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

namespace {

/// A node or depth delta (the value minus the previous part's, 0 before the
/// first part) as a sign-extended 64-bit varint value.
std::uint64_t delta(std::int32_t value, std::int32_t prev) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(value) - prev);
}

/// The label wire format, written once: the header (vertex id, part count),
/// then per part its node delta, path, depth delta and connection count,
/// and per connection its path index, next hop + 1 (0 for none) and the
/// dist and prefix doubles. Appends to `out`; with `sections`, also records
/// the header's byte count and then each part's.
void encode_label(const LabelView& label, std::vector<std::uint8_t>& out,
                  std::vector<std::size_t>* sections) {
  std::size_t section_start = out.size();
  const auto end_section = [&] {
    if (sections == nullptr) return;
    sections->push_back(out.size() - section_start);
    section_start = out.size();
  };
  append_varint(out, label.vertex());
  append_varint(out, label.num_parts());
  end_section();
  std::int32_t prev_node = 0;
  std::int32_t prev_depth = 0;
  for (std::size_t p = 0; p < label.num_parts(); ++p) {
    const LabelPart& part = label.part(p);
    // Parts are sorted by (node, path) and descend the chain: node ids and
    // depths delta-encode compactly.
    append_varint(out, delta(part.node, prev_node));
    prev_node = part.node;
    append_varint(out, static_cast<std::uint64_t>(part.path()));
    append_varint(out, delta(part.depth(), prev_depth));
    prev_depth = part.depth();
    const std::span<const HotEntry> hot = label.hot(p);
    const std::span<const ColdEntry> cold = label.cold(p);
    append_varint(out, hot.size());
    for (std::size_t c = 0; c < hot.size(); ++c) {
      append_varint(out, cold[c].path_index);
      append_varint(out, cold[c].next_hop == graph::kInvalidVertex
                             ? 0
                             : static_cast<std::uint64_t>(cold[c].next_hop) + 1);
      append_double(out, hot[c].dist);
      append_double(out, hot[c].prefix);
    }
    end_section();
  }
}

}  // namespace

std::vector<std::uint8_t> serialize_label(const LabelView& label) {
  std::vector<std::uint8_t> out;
  encode_label(label, out, nullptr);
  return out;
}

std::size_t serialized_bits(const LabelView& label) {
  return serialize_label(label).size() * 8;
}

std::vector<std::size_t> serialized_section_bytes(const LabelView& label) {
  std::vector<std::uint8_t> out;
  std::vector<std::size_t> sections;
  encode_label(label, out, &sections);
  return sections;
}

DistanceLabel deserialize_label(std::span<const std::uint8_t> bytes) {
  DistanceLabel label;
  std::size_t offset = 0;
  label.vertex = static_cast<Vertex>(read_varint(bytes, offset));
  const std::uint64_t num_parts = read_varint(bytes, offset);
  // A part encodes at least 4 varint bytes; a connection at least 2 varint
  // bytes plus two 8-byte doubles. Counts exceeding what the remaining
  // buffer could possibly hold are corruption — reject them up front so a
  // flipped bit in a count can neither drive a near-endless parse loop nor
  // balloon allocations.
  if (num_parts > (bytes.size() - std::min(offset, bytes.size())) / 4)
    throw std::runtime_error("label part count exceeds buffer");
  std::int32_t prev_node = 0;
  std::int32_t prev_depth = 0;
  std::vector<Connection> connections;
  // Deltas wrap modulo 2^32 (as the encoder's do), so a hostile delta
  // cannot overflow; validity of the node ids is the caller's concern.
  const auto add_delta = [&](std::int32_t& prev) {
    prev = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(prev) +
        static_cast<std::uint32_t>(read_varint(bytes, offset)));
    return prev;
  };
  for (std::uint64_t p = 0; p < num_parts; ++p) {
    const std::int32_t node = add_delta(prev_node);
    const std::uint64_t path = read_varint(bytes, offset);
    const std::int32_t depth = add_delta(prev_depth);
    const std::uint64_t num_conns = read_varint(bytes, offset);
    if (num_conns > (bytes.size() - std::min(offset, bytes.size())) / 18)
      throw std::runtime_error("connection count exceeds buffer");
    connections.clear();
    for (std::uint64_t c = 0; c < num_conns; ++c) {
      Connection conn;
      conn.path_index = static_cast<std::uint32_t>(read_varint(bytes, offset));
      const std::uint64_t hop = read_varint(bytes, offset);
      conn.next_hop = hop == 0 ? graph::kInvalidVertex
                               : static_cast<Vertex>(hop - 1);
      conn.dist = read_double(bytes, offset);
      conn.prefix = read_double(bytes, offset);
      connections.push_back(conn);
    }
    // A path or depth past its bits throws std::overflow_error, a
    // std::runtime_error like every other rejection here.
    label.add_part(node, static_cast<std::int64_t>(path), depth, connections);
  }
  if (offset != bytes.size())
    throw std::runtime_error("trailing bytes after label");
  return label;
}

}  // namespace pathsep::oracle
