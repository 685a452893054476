#include "oracle/serialize.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "oracle/path_oracle.hpp"
#include "separator/finders.hpp"

namespace pathsep::oracle {
namespace {

TEST(Varint, RoundTripsRepresentativeValues) {
  for (std::uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xffffffffull, 0xffffffffffffffffull}) {
    std::vector<std::uint8_t> buf;
    append_varint(buf, value);
    std::size_t offset = 0;
    EXPECT_EQ(read_varint(buf, offset), value);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 42);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 1u << 20);
  buf.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(read_varint(buf, offset), std::runtime_error);
}

DistanceLabel sample_label() {
  DistanceLabel label;
  label.vertex = 17;
  const Connection first[] = {{5, 9, 1.25, 0.5},
                              {7, graph::kInvalidVertex, 0.0, 2.5}};
  label.add_part(3, 1, 2, first);
  const Connection second[] = {{0, 2, 3.75, 0.0}};
  label.add_part(12, 0, 4, second);
  return label;
}

TEST(LabelSerialization, RoundTripPreservesEverything) {
  const DistanceLabel owned = sample_label();
  const LabelView label = owned.view();
  const auto bytes = serialize_label(label);
  const DistanceLabel decoded = deserialize_label(bytes);
  const LabelView back = decoded.view();
  ASSERT_EQ(back.vertex(), label.vertex());
  ASSERT_EQ(back.num_parts(), label.num_parts());
  for (std::size_t p = 0; p < label.num_parts(); ++p) {
    EXPECT_EQ(back.part(p).node, label.part(p).node);
    EXPECT_EQ(back.part(p).path(), label.part(p).path());
    EXPECT_EQ(back.part(p).depth(), label.part(p).depth());
    ASSERT_EQ(back.hot(p).size(), label.hot(p).size());
    for (std::size_t c = 0; c < label.hot(p).size(); ++c) {
      const Connection want = label.connection(p, c);
      const Connection got = back.connection(p, c);
      EXPECT_EQ(got.path_index, want.path_index);
      EXPECT_EQ(got.next_hop, want.next_hop);
      EXPECT_DOUBLE_EQ(got.dist, want.dist);
      EXPECT_DOUBLE_EQ(got.prefix, want.prefix);
    }
  }
}

TEST(LabelSerialization, BitsMatchesBufferSize) {
  const DistanceLabel label = sample_label();
  EXPECT_EQ(serialized_bits(label.view()),
            serialize_label(label.view()).size() * 8);
}

TEST(LabelSerialization, TrailingBytesRejected) {
  auto bytes = serialize_label(sample_label().view());
  bytes.push_back(0);
  EXPECT_THROW(deserialize_label(bytes), std::runtime_error);
}

TEST(LabelSerialization, TruncationRejected) {
  auto bytes = serialize_label(sample_label().view());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_label(bytes), std::runtime_error);
}

TEST(LabelSerialization, DeserializedLabelsAnswerQueries) {
  util::Rng rng(3);
  const auto gg = graph::random_apollonian(60, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const PathOracle oracle(tree, 0.4);
  for (Vertex u = 0; u < 60; u += 7)
    for (Vertex v = 1; v < 60; v += 11) {
      const DistanceLabel lu =
          deserialize_label(serialize_label(oracle.label(u)));
      const DistanceLabel lv =
          deserialize_label(serialize_label(oracle.label(v)));
      EXPECT_EQ(query_labels(lu.view(), lv.view()), oracle.query(u, v));
    }
}

TEST(LabelSerialization, WireSizeBeatsWordAccounting) {
  // Varint encoding should cost fewer bits than the canonical 64-bit word
  // count for real labels (ids are small).
  util::Rng rng(5);
  const auto gg = graph::random_apollonian(200, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const PathOracle oracle(tree, 0.25);
  for (Vertex v = 0; v < 200; v += 23) {
    const LabelView label = oracle.label(v);
    EXPECT_LT(serialized_bits(label), label.size_in_words() * 64);
  }
}

// Fuzz-style hardening: deserialize_label must never crash, hang, or
// over-read on adversarial input — it either parses or throws
// std::runtime_error.

std::vector<std::uint8_t> realistic_label_bytes() {
  util::Rng rng(9);
  const auto gg = graph::random_apollonian(80, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const PathOracle oracle(tree, 0.3);
  return serialize_label(oracle.label(37));
}

TEST(LabelSerializationFuzz, EveryProperPrefixThrows) {
  const auto bytes = realistic_label_bytes();
  ASSERT_GT(bytes.size(), 2u);
  // The part/connection counts are declared up front, so no proper prefix
  // can be self-consistent: each must throw, never return or crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW(deserialize_label(prefix), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(LabelSerializationFuzz, SingleBitFlipsNeverCrash) {
  const auto bytes = realistic_label_bytes();
  util::Rng rng(21);
  for (int trial = 0; trial < 2000; ++trial) {
    auto corrupt = bytes;
    const std::size_t byte = rng.next_below(corrupt.size());
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      // A flip in a double payload parses to a different value; anything
      // structural must surface as std::runtime_error. Round-tripping the
      // parse proves no out-of-bounds state escaped.
      const DistanceLabel parsed = deserialize_label(corrupt);
      const auto reserialized = serialize_label(parsed.view());
      EXPECT_FALSE(reserialized.empty());
    } catch (const std::runtime_error&) {
      // expected for structural corruption
    }
  }
}

TEST(LabelSerializationFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(33);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.next_below(300));
    for (auto& byte : garbage)
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      (void)deserialize_label(garbage);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(LabelSerializationFuzz, ImplausibleCountsRejectedUpFront) {
  // A count varint claiming far more parts/connections than the buffer
  // could hold must be rejected immediately (no giant allocation, no long
  // parse loop).
  std::vector<std::uint8_t> bytes;
  append_varint(bytes, 1);                      // vertex
  append_varint(bytes, 0xffffffffffffull);      // absurd part count
  EXPECT_THROW(deserialize_label(bytes), std::runtime_error);

  bytes.clear();
  append_varint(bytes, 1);   // vertex
  append_varint(bytes, 1);   // one part
  append_varint(bytes, 0);   // node delta
  append_varint(bytes, 0);   // path
  append_varint(bytes, 0);   // depth delta
  append_varint(bytes, 0xffffffffffffull);  // absurd connection count
  EXPECT_THROW(deserialize_label(bytes), std::runtime_error);
}

TEST(LabelSerialization, EmptyLabel) {
  DistanceLabel label;
  label.vertex = 0;
  const DistanceLabel back = deserialize_label(serialize_label(label.view()));
  EXPECT_EQ(back.vertex, 0u);
  EXPECT_EQ(back.view().num_parts(), 0u);
}

}  // namespace
}  // namespace pathsep::oracle
