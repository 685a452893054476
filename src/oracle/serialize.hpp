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

/// serialize_label(label).size() * 8.
std::size_t serialized_bits(const LabelView& label);

/// serialize_label(label).size() split by section: [0] is the header
/// (vertex id and part count), [1 + p] is part p. The per-level byte
/// accounting (obs/report) sums these.
std::vector<std::size_t> serialized_section_bytes(const LabelView& label);

// Exposed for tests.
void append_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                          std::size_t& offset);
void append_double(std::vector<std::uint8_t>& out, double value);
double read_double(std::span<const std::uint8_t> bytes, std::size_t& offset);

}  // namespace pathsep::oracle
