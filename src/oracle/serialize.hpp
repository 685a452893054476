// Binary wire format for distance labels.
//
// Theorem 2 distributes the oracle as per-vertex labels; this module makes
// that literal: a label serializes to a compact byte string (varint ids,
// delta-coded part keys and depths, IEEE doubles for distances) that a node
// could ship in a handshake, and deserializes back to an equivalent
// DistanceLabel that answers queries on its own (the depths drive the merge
// walk's exit).
// The serialized size is the honest "label size in bits" reported by E3.
// The whole-oracle snapshot (service/snapshot.hpp) does not use this codec:
// it stores the label arena's arrays as they are.
#pragma once

#include <cstdint>
#include <vector>

#include "oracle/labels.hpp"

namespace pathsep::oracle {

std::vector<std::uint8_t> serialize_label(const LabelView& label);

/// Throws std::runtime_error on malformed input.
DistanceLabel deserialize_label(std::span<const std::uint8_t> bytes);

/// serialize_label(label).size() * 8 without materializing the buffer.
std::size_t serialized_bits(const LabelView& label);

// Exposed for tests and for the per-level byte accounting (obs/report).
void append_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
/// The varint-coded node delta of a part (its node id minus the previous
/// part's, 0 before the first part), as a sign-extended 64-bit value; the
/// depth delta that follows the path index is coded the same way.
std::uint64_t node_delta(std::int32_t node, std::int32_t prev_node);
/// Encoded size of append_varint(value) in bytes; the per-level byte
/// accounting in obs/report.cpp replays the wire format with it.
std::size_t varint_size(std::uint64_t value);
std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                          std::size_t& offset);
void append_double(std::vector<std::uint8_t>& out, double value);
double read_double(std::span<const std::uint8_t> bytes, std::size_t& offset);

}  // namespace pathsep::oracle
