// Randomized stress: mixed families, mixed sizes (including the tiny
// degenerate ones), full pipeline with Definition 1 validation at every
// node, oracle spot-checks against Dijkstra. Complements the per-module
// suites by exploring parameter corners no hand-written case covers. The
// SnapshotFuzz and WireFuzz suites feed forged snapshot files and mutated
// wire frames to the production parsers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/path_oracle.hpp"
#include "separator/finders.hpp"
#include "separator/validate.hpp"
#include "service/net.hpp"
#include "service/snapshot.hpp"
#include "sssp/dijkstra.hpp"

namespace pathsep {
namespace {

using graph::Graph;
using graph::Vertex;

TEST(Fuzz, TinyGraphsThroughEveryApplicableFinder) {
  // n = 1..6 across families; every finder must produce a valid separator
  // and the hierarchy must terminate.
  for (std::size_t n = 1; n <= 6; ++n) {
    {
      util::Rng rng(n);
      const Graph g = graph::random_tree(n, rng);
      const auto s = separator::TreeCentroidSeparator().find(g);
      EXPECT_TRUE(separator::validate(g, s).ok) << "tree n=" << n;
      hierarchy::DecompositionTree tree(g,
                                        separator::TreeCentroidSeparator());
      EXPECT_GE(tree.nodes().size(), 1u);
    }
    if (n >= 1) {
      const graph::GridGraph gg = graph::grid(1, n);
      const auto s = separator::GridLineSeparator(1, n).find(gg.graph);
      EXPECT_TRUE(separator::validate(gg.graph, s).ok) << "grid 1x" << n;
    }
    if (n >= 3) {
      util::Rng rng(n);
      const auto gg = graph::random_apollonian(n, rng);
      separator::PlanarCycleSeparator finder(gg.positions);
      const auto s = finder.find(gg.graph);
      EXPECT_TRUE(separator::validate(gg.graph, s).ok) << "apollonian n=" << n;
    }
    if (n >= 2) {
      util::Rng rng(n);
      const Graph g = graph::random_series_parallel(n, rng);
      const auto s = separator::TreewidthBagSeparator().find(g);
      EXPECT_TRUE(separator::validate(g, s).ok) << "sp n=" << n;
    }
  }
}

struct FuzzCase {
  std::uint64_t seed;
};

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, RandomFamilyRandomSizeFullStack) {
  util::Rng rng(GetParam() * 7919 + 13);
  const std::size_t pick = rng.next_below(6);
  const std::size_t n = 20 + rng.next_below(300);
  Graph g;
  std::unique_ptr<separator::SeparatorFinder> finder;
  switch (pick) {
    case 0:
      g = graph::random_tree(n, rng, graph::WeightSpec::uniform_real(0.5, 7));
      finder = std::make_unique<separator::TreeCentroidSeparator>();
      break;
    case 1: {
      auto gg = graph::random_apollonian(std::max<std::size_t>(n, 3), rng,
                                         graph::WeightSpec::euclidean());
      g = std::move(gg.graph);
      finder = std::make_unique<separator::PlanarCycleSeparator>(gg.positions);
      break;
    }
    case 2: {
      const std::size_t k = 1 + rng.next_below(4);
      g = graph::random_ktree(std::max(n, k + 2), k, rng,
                              graph::WeightSpec::uniform_real(1, 3));
      finder = std::make_unique<separator::TreewidthBagSeparator>();
      break;
    }
    case 3: {
      auto gg = graph::random_outerplanar(std::max<std::size_t>(n, 3), rng,
                                          rng.next_double());
      g = std::move(gg.graph);
      finder = std::make_unique<separator::PlanarCycleSeparator>(gg.positions);
      break;
    }
    case 4: {
      const std::size_t side = 3 + rng.next_below(14);
      auto gg = graph::road_network(side, side, rng);
      g = std::move(gg.graph);
      finder = std::make_unique<separator::PlanarCycleSeparator>(gg.positions);
      break;
    }
    default:
      g = graph::gnm_random(n, n + rng.next_below(3 * n), rng, true,
                            graph::WeightSpec::uniform_real(0.2, 5));
      finder = std::make_unique<separator::GreedyPathSeparator>(GetParam());
      break;
  }

  hierarchy::DecompositionTree::Options options;
  options.validate_separators = true;
  const hierarchy::DecompositionTree tree(g, *finder, options);
  EXPECT_LE(tree.height(),
            static_cast<std::uint32_t>(std::log2(
                static_cast<double>(g.num_vertices()))) + 2);

  const double eps = 0.2 + rng.next_double() * 0.8;
  const oracle::PathOracle oracle(tree, eps);
  for (int i = 0; i < 25; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    const auto v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    const graph::Weight est = oracle.query(u, v);
    const graph::Weight truth = sssp::distance(g, u, v);
    if (u == v) {
      EXPECT_EQ(est, 0.0);
      continue;
    }
    EXPECT_GE(est, truth - 1e-9) << "family " << pick << " seed " << GetParam();
    EXPECT_LE(est, (1 + eps) * truth + 1e-9)
        << "family " << pick << " n " << g.num_vertices() << " eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Parser fuzzing (graph/io.cpp). Hostile input — truncation, lying counts,
// bad weights, random garbage — must throw std::exception, never crash,
// over-read or allocate absurd amounts.
// ---------------------------------------------------------------------------

std::string binary_bytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  graph::write_binary_graph(os, g);
  return os.str();
}

Graph binary_graph(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return graph::read_binary_graph(is);
}

std::uint64_t fnv1a64(const std::string& bytes, std::size_t count) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    hash ^= static_cast<std::uint8_t>(bytes[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Rewrites the trailing checksum so structural lies (huge counts, bad
/// records) are exercised instead of being masked by a checksum mismatch.
void fix_checksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), 8u);
  const std::uint64_t sum = fnv1a64(bytes, bytes.size() - 8);
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(sum >> (8 * i));
}

void poke_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>(value >> (8 * i));
}

TEST(ParserFuzz, TextRejectsMalformedInput) {
  const char* cases[] = {
      "",                                    // empty stream
      "p 4",                                 // truncated header
      "p 4 2 7\ne 0 1 1\ne 1 2 1\n",        // trailing token in header
      "p 99999999999999999999 1\ne 0 1 1",  // count overflows size_t
      "p 1073741825 0\n",                    // vertex count above cap
      "p 10 1073741825\n",                   // edge count above cap
      "p 3 9\n",                             // impossible m for n
      "p 2 1\ne 0 1 -3\n",                   // negative weight
      "p 2 1\ne 0 1 0\n",                    // zero weight
      "p 2 1\ne 0 1 x\n",                    // unparsable weight
      "p 2 1\ne 0 1 1 junk\n",               // trailing token in edge
      "p 2 1\ne 0 0 1\n",                    // self-loop
      "p 2 1\ne 0 7 1\n",                    // endpoint out of range
      "p 2 1\ne -1 1 1\n",                   // negative vertex id
      "p 2 1\ne 0 1\n",                      // missing weight
      "p 2 1\np 2 1\ne 0 1 1\n",             // duplicate header
      "e 0 1 1\n",                           // edge before header
      "p 3 1\ne 0 1 1\ne 1 2 1\n",           // more edges than declared
      "p 3 2\ne 0 1 1\n",                    // fewer edges than declared
      "q 1 2 3\n",                           // unknown tag
  };
  for (const char* text : cases) {
    std::istringstream is(text);
    EXPECT_THROW(graph::read_edge_list(is), std::exception)
        << "accepted: " << text;
  }
}

TEST(ParserFuzz, TextRandomGarbageNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed * 31 + 5);
    std::string text;
    const std::size_t len = rng.next_below(400);
    // Bias toward format-adjacent bytes so the parser gets past the first
    // character often enough to stress the deeper paths.
    const std::string alphabet = "pe 0123456789.-#\ninf nan";
    for (std::size_t i = 0; i < len; ++i)
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    std::istringstream is(text);
    try {
      const Graph g = graph::read_edge_list(is);
      EXPECT_LE(g.num_vertices(), graph::kMaxSerializedCount);
    } catch (const std::exception&) {
      // rejection is the expected outcome
    }
  }
}

TEST(ParserFuzz, BinaryRoundTripAcrossFamilies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 5 + rng.next_below(120);
    const std::size_t m =
        std::min(10 + rng.next_below(300), n * (n - 1) / 2);
    const Graph g = graph::gnm_random(n, m, rng, true,
                                      graph::WeightSpec::uniform_real(0.1, 9));
    EXPECT_TRUE(g == binary_graph(binary_bytes(g))) << "seed " << seed;
  }
  // Degenerate sizes round-trip too.
  const Graph empty = graph::GraphBuilder(0).build();
  EXPECT_TRUE(empty == binary_graph(binary_bytes(empty)));
  util::Rng rng(3);
  const Graph one = graph::random_tree(1, rng);
  EXPECT_TRUE(one == binary_graph(binary_bytes(one)));
}

TEST(ParserFuzz, BinaryEveryTruncationThrows) {
  util::Rng rng(11);
  const Graph g = graph::random_tree(9, rng);
  const std::string bytes = binary_bytes(g);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(binary_graph(bytes.substr(0, len)), std::exception)
        << "accepted prefix of length " << len;
}

TEST(ParserFuzz, BinaryBitFlipsThrow) {
  util::Rng rng(13);
  const Graph g = graph::random_tree(12, rng);
  const std::string bytes = binary_bytes(g);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      EXPECT_THROW(binary_graph(mutated), std::exception)
          << "accepted flip at byte " << i << " bit " << bit;
    }
}

TEST(ParserFuzz, BinaryLyingHeadersThrowWithoutAllocating) {
  util::Rng rng(17);
  const Graph g = graph::random_tree(6, rng);
  const std::string bytes = binary_bytes(g);
  const std::size_t n_off = 8, m_off = 16;

  // Huge vertex count — checksum valid, must be rejected by the cap.
  std::string huge_n = bytes;
  poke_u64(huge_n, n_off, std::uint64_t{1} << 40);
  fix_checksum(huge_n);
  EXPECT_THROW(binary_graph(huge_n), std::exception);

  // Huge edge count — byte-count cross-check must fire before any
  // per-edge loop could walk off the end of the buffer.
  std::string huge_m = bytes;
  poke_u64(huge_m, m_off, std::uint64_t{1} << 40);
  fix_checksum(huge_m);
  EXPECT_THROW(binary_graph(huge_m), std::exception);

  // Off-by-one edge count with a valid checksum.
  std::string off_m = bytes;
  poke_u64(off_m, m_off, g.num_edges() + 1);
  fix_checksum(off_m);
  EXPECT_THROW(binary_graph(off_m), std::exception);

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  fix_checksum(bad_magic);
  EXPECT_THROW(binary_graph(bad_magic), std::exception);

  // Non-finite weight in the first edge record, checksum made valid again:
  // the weight validation itself must reject it.
  std::string bad_weight = bytes;
  poke_u64(bad_weight, 24 + 8, 0x7ff0000000000000ULL);  // +infinity
  fix_checksum(bad_weight);
  EXPECT_THROW(binary_graph(bad_weight), std::exception);
}

TEST(ParserFuzz, BinaryRandomGarbageNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed * 97 + 1);
    std::string bytes;
    const std::size_t len = rng.next_below(300);
    for (std::size_t i = 0; i < len; ++i)
      bytes.push_back(static_cast<char>(rng.next_below(256)));
    EXPECT_THROW(binary_graph(bytes), std::exception);
  }
}

TEST(ParserFuzz, BinaryFileRoundTrip) {
  util::Rng rng(23);
  const Graph g = graph::random_tree(20, rng,
                                     graph::WeightSpec::uniform_real(0.5, 4));
  const std::string path = ::testing::TempDir() + "/pathsep_fuzz.bgraph";
  graph::save_binary_graph(path, g);
  EXPECT_TRUE(g == graph::load_binary_graph(path));
  EXPECT_THROW(graph::load_binary_graph(path + ".missing"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Snapshot fuzzing (service/snapshot.cpp), mirroring the binary graph
// reader's cases: truncation, bit flips, lying counts and offsets behind a
// recomputed checksum, and random garbage must throw std::runtime_error (or,
// for flips the checksum cannot see, load labels that pass the audits) —
// never crash, read out of bounds or allocate past the input's size.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> snapshot_bytes() {
  util::Rng rng(31);
  const auto gg = graph::random_apollonian(40, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  return service::serialize_oracle(oracle::PathOracle(tree, 0.5));
}

/// Rewrites the trailing checksum so the structural lie is what the loader
/// sees, not a checksum mismatch.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t sum = service::snapshot_checksum(
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 8));
  std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
}

void poke_u64(std::vector<std::uint8_t>& bytes, std::size_t offset,
              std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, 8);
}

std::uint64_t peek_u64(const std::vector<std::uint8_t>& bytes,
                       std::size_t offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, 8);
  return value;
}

/// Every sampled query of a loaded oracle answers (in bounds: the
/// sanitizer builds would flag a stray read) with a non-negative distance.
void expect_queries_answer(const oracle::PathOracle& loaded) {
  const auto n = static_cast<Vertex>(loaded.num_vertices());
  for (Vertex u = 0; u < n; u += 3)
    for (Vertex v = 0; v < n; v += 5) EXPECT_GE(loaded.query(u, v), 0.0);
}

/// Loads `bytes` through load_snapshot (the file path query_server --load
/// takes) and through deserialize_oracle: both must throw, or both must
/// load oracles with the same answers. The other cases feed the in-memory
/// parser; this one shows the file loader is the same parser.
void expect_file_and_buffer_agree(std::span<const std::uint8_t> bytes) {
  const std::string path = ::testing::TempDir() + "/pathsep_fuzz.snapshot";
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  std::optional<oracle::PathOracle> from_file;
  std::optional<oracle::PathOracle> from_buffer;
  try {
    from_file.emplace(service::load_snapshot(path));
  } catch (const std::runtime_error&) {
  }
  try {
    from_buffer.emplace(service::deserialize_oracle(bytes));
  } catch (const std::runtime_error&) {
  }
  std::remove(path.c_str());
  ASSERT_EQ(from_file.has_value(), from_buffer.has_value())
      << "file loader and buffer parser disagree on " << bytes.size()
      << " bytes";
  if (!from_file) return;
  const auto n = static_cast<Vertex>(from_file->num_vertices());
  ASSERT_EQ(from_buffer->num_vertices(), n);
  for (Vertex u = 0; u < n; u += 3)
    for (Vertex v = 0; v < n; v += 5)
      EXPECT_EQ(from_file->query(u, v), from_buffer->query(u, v));
}

TEST(SnapshotFuzz, FileLoaderAgreesWithTheBufferParser) {
  const auto bytes = snapshot_bytes();
  const std::span<const std::uint8_t> all(bytes);
  expect_file_and_buffer_agree(all);
  for (std::size_t len = 0; len < bytes.size(); len += 1 + len / 8)
    expect_file_and_buffer_agree(all.first(len));
  for (const std::size_t cut : {55, 56, 57, 64})
    expect_file_and_buffer_agree(all.first(cut));
  expect_file_and_buffer_agree(all.first(bytes.size() - 1));
  util::Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    auto flipped = bytes;
    flipped[rng.next_below(flipped.size() - 8)] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    if (trial % 2 == 0) reseal(flipped);
    expect_file_and_buffer_agree(flipped);
  }
  for (const std::size_t at : {24, 32, 40, 48}) {
    auto forged = bytes;
    poke_u64(forged, at, peek_u64(bytes, at) + 1);
    reseal(forged);
    expect_file_and_buffer_agree(forged);
  }
}

TEST(SnapshotFuzz, EveryTruncationThrows) {
  const auto bytes = snapshot_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(service::deserialize_oracle(
                     std::span<const std::uint8_t>(bytes).first(len)),
                 std::runtime_error)
        << "accepted prefix of length " << len;
}

TEST(SnapshotFuzz, BitFlipsThrowOrLoadAuditedLabels) {
  const auto bytes = snapshot_bytes();
  util::Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    auto flipped = bytes;
    flipped[rng.next_below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      const oracle::PathOracle loaded = service::deserialize_oracle(flipped);
      EXPECT_NO_THROW(check::audit_labels(loaded.arena()));
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SnapshotFuzz, ResealedBitFlipsThrowOrLoadInBounds) {
  // With the checksum recomputed, every flip reaches the structural
  // validator: it rejects the flip or the oracle it admits stays in bounds.
  const auto bytes = snapshot_bytes();
  util::Rng rng(43);
  std::size_t loaded_count = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto flipped = bytes;
    flipped[rng.next_below(flipped.size() - 8)] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    reseal(flipped);
    try {
      const oracle::PathOracle loaded = service::deserialize_oracle(flipped);
      ++loaded_count;
      expect_queries_answer(loaded);
    } catch (const std::runtime_error&) {
    }
  }
  // Flips in distances and cold fields are valid data; some must load.
  EXPECT_GT(loaded_count, 0u);
}

TEST(SnapshotFuzz, LyingCountsAndOffsetsThrowWithoutAllocating) {
  const auto bytes = snapshot_bytes();
  const service::SnapshotInfo info = service::peek_snapshot(bytes, bytes.size());
  const std::size_t n = info.num_vertices;
  const std::size_t parts = info.num_parts;
  const std::size_t offsets_at = 56;
  const std::size_t parts_at = offsets_at + 8 * (n + 1);
  const std::size_t hot_at = parts_at + 16 * (parts + 1);
  const auto lie = [&](std::size_t offset, std::uint64_t value) {
    auto forged = bytes;
    poke_u64(forged, offset, value);
    reseal(forged);
    // A loader that believed a count would allocate terabytes (bad_alloc,
    // or a sanitizer abort), not throw std::runtime_error.
    EXPECT_THROW(service::deserialize_oracle(forged), std::runtime_error)
        << "accepted " << value << " at byte " << offset;
  };
  // Header counts: absurd, and off by one (the node count is an upper
  // bound, so its smallest lie is one past the vertex count).
  for (const std::size_t at : {24, 32, 40, 48}) {
    lie(at, std::uint64_t{1} << 40);
    lie(at, ~std::uint64_t{0});
    lie(at, at == 32 ? n + 1 : peek_u64(bytes, at) + 1);
  }
  lie(16, 0);  // epsilon 0.0
  // Offsets inside the sections, with every count still consistent.
  lie(offsets_at, 1);                           // first offset not 0
  lie(offsets_at + 8 * n, parts + 1);           // last offset past the parts
  lie(offsets_at + 8 * (n / 2), ~std::uint64_t{0});
  lie(parts_at + 8, 1);                         // first part's begin not 0
  lie(parts_at + 16 * 3 + 8, ~std::uint64_t{0});  // a part's begin
  lie(parts_at + 16 * parts + 8, info.num_connections + 1);  // sentinel
  lie(parts_at, 0x7ffffff0u);                   // node 0x7ffffff0, path 0
  lie(hot_at + 8, 0xfff8000000000000ULL);       // NaN distance
  lie(hot_at, 0xbff0000000000000ULL);           // prefix -1.0
}

TEST(SnapshotFuzz, LyingDepthsThrowOrAnswerInBounds) {
  // The depth in a part header steers the merge walk's exit. Behind a
  // recomputed checksum, a depth that breaks the chain or disagrees with
  // another part of its node is rejected; one that passes may stop a walk
  // early (a wrong answer), never send it past either label.
  const auto bytes = snapshot_bytes();
  const service::SnapshotInfo info = service::peek_snapshot(bytes, bytes.size());
  const std::size_t parts_at = 56 + 8 * (info.num_vertices + 1);
  util::Rng rng(59);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto forged = bytes;
    const std::size_t word = parts_at + 16 * rng.next_below(info.num_parts) + 4;
    std::uint32_t path_depth = 0;
    std::memcpy(&path_depth, forged.data() + word, 4);
    const auto depth = static_cast<std::uint32_t>(
        trial % 4 == 0 ? 0x7fff : rng.next_below(info.num_nodes + 2));
    path_depth = (path_depth & 0xffffu) | depth << 16;
    std::memcpy(forged.data() + word, &path_depth, 4);
    reseal(forged);
    try {
      expect_queries_answer(service::deserialize_oracle(forged));
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SnapshotFuzz, FlippedPathBitsThrowOrAnswerInBounds) {
  // Every bit of a part's path-and-depth word, flipped behind a recomputed
  // checksum: the top bit no 15-bit depth sets, the depth bits and the path
  // bits are each rejected or load an oracle whose walks stay in bounds.
  const auto bytes = snapshot_bytes();
  const service::SnapshotInfo info = service::peek_snapshot(bytes, bytes.size());
  const std::size_t parts_at = 56 + 8 * (info.num_vertices + 1);
  util::Rng rng(61);
  for (int bit = 0; bit < 32; ++bit) {
    auto forged = bytes;
    const std::size_t word = parts_at + 16 * rng.next_below(info.num_parts) + 4;
    forged[word + static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    reseal(forged);
    if (bit == 31) {
      EXPECT_THROW(service::deserialize_oracle(forged), std::runtime_error);
      continue;
    }
    try {
      expect_queries_answer(service::deserialize_oracle(forged));
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SnapshotFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(47);
  for (int trial = 0; trial < 300; ++trial) {
    // Random bytes of a size some header could account for. Odd trials
    // keep the random header (rejected early); even ones get a valid header
    // and checksum, so the garbage reaches the section validator.
    const std::uint64_t n = rng.next_below(6);
    const std::uint64_t nodes = rng.next_below(n + 1);
    const std::uint64_t parts = rng.next_below(6);
    const std::uint64_t conns = rng.next_below(10);
    std::vector<std::uint8_t> bytes(56 + 8 * (n + 1) + 16 * (parts + 1) +
                                 24 * conns + 8);
    for (auto& byte : bytes)
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    if (trial % 2 == 0) {
      std::memcpy(bytes.data(), "PSEPSNAP", 8);
      poke_u64(bytes, 8, service::kSnapshotVersion);
      poke_u64(bytes, 16, 0x3fe0000000000000ULL);  // 0.5
      poke_u64(bytes, 24, n);
      poke_u64(bytes, 32, nodes);
      poke_u64(bytes, 40, parts);
      poke_u64(bytes, 48, conns);
      reseal(bytes);
    }
    try {
      expect_queries_answer(service::deserialize_oracle(bytes));
    } catch (const std::runtime_error&) {
    }
  }
}

// ------------------------------------------------------------- wire frames

/// The status the wire spec (service/net.hpp) gives buffer[offset:].
service::wire::ParseStatus expected_status(
    std::span<const std::uint8_t> buffer, std::size_t offset,
    std::size_t num_vertices) {
  using service::wire::ParseStatus;
  const std::size_t available = buffer.size() - offset;
  if (available < 4) return ParseStatus::kIncomplete;
  const std::uint32_t len = service::wire::read_u32(&buffer[offset]);
  if (len < 4 || len > service::wire::kMaxFrameBytes || (len - 4) % 8 != 0)
    return ParseStatus::kMalformed;
  if (available < 4 + std::size_t{len}) return ParseStatus::kIncomplete;
  for (std::size_t at = offset + 8; at < offset + 4 + len; at += 4)
    if (service::wire::read_u32(&buffer[at]) >= num_vertices)
      return ParseStatus::kMalformed;
  return ParseStatus::kRequest;
}

/// Parses `buffer` frame by frame from `offset`, as the server does, and
/// checks every parse against the spec: one of the three statuses, a frame
/// that fits the bytes available, and only in-range ids. Counts each
/// status in `seen`.
void expect_frames_parse_safely(std::span<const std::uint8_t> buffer,
                                std::size_t offset, std::size_t num_vertices,
                                std::array<std::size_t, 3>& seen) {
  using service::wire::ParseStatus;
  service::wire::ParsedRequest request;
  std::vector<service::Query> queries;
  while (offset <= buffer.size()) {
    const ParseStatus status = service::wire::parse_request(
        buffer, offset, num_vertices, request, queries);
    ASSERT_TRUE(status == ParseStatus::kIncomplete ||
                status == ParseStatus::kRequest ||
                status == ParseStatus::kMalformed);
    ++seen[static_cast<std::size_t>(status)];
    ASSERT_EQ(status, expected_status(buffer, offset, num_vertices))
        << "at offset " << offset << " of " << buffer.size();
    if (status != ParseStatus::kRequest) return;
    ASSERT_GE(request.frame_bytes, 8u);
    ASSERT_LE(request.frame_bytes, buffer.size() - offset);
    ASSERT_EQ(queries.size(), (request.frame_bytes - 8) / 8);
    for (const service::Query& q : queries) {
      ASSERT_LT(q.u, num_vertices);
      ASSERT_LT(q.v, num_vertices);
    }
    offset += request.frame_bytes;
  }
}

TEST(WireFuzz, MutatedFramesParseToOneStatusWithinBounds) {
  constexpr std::size_t kVertices = 1000;
  util::Rng rng(59);
  std::array<std::size_t, 3> seen{};
  for (int trial = 0; trial < 3000; ++trial) {
    // One to three valid frames back to back, then one mutation.
    std::vector<std::uint8_t> bytes;
    const std::size_t frames = 1 + rng.next_below(3);
    for (std::size_t f = 0; f < frames; ++f) {
      std::vector<service::Query> pairs(rng.next_below(40));
      for (service::Query& q : pairs)
        q = {static_cast<Vertex>(rng.next_below(kVertices)),
             static_cast<Vertex>(rng.next_below(kVertices))};
      service::wire::append_request(
          bytes, static_cast<std::uint32_t>(rng.next_below(1u << 31)), pairs);
    }
    // The start of the frame the mutation aims at (the first, usually).
    const std::size_t at =
        trial % 4 == 0 ? 0 : 4 * rng.next_below(bytes.size() / 4);
    switch (trial % 5) {
      case 0:  // truncation
        bytes.resize(rng.next_below(bytes.size() + 1));
        break;
      case 1:  // bit flips
        for (std::size_t k = 1 + rng.next_below(4); k > 0; --k)
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 2: {  // a lying payload_len
        const std::uint32_t truth = service::wire::read_u32(&bytes[0]);
        const std::uint32_t lies[] = {
            0,
            3,
            truth + 1,
            truth - 8,
            truth + 8,
            truth + 8 * static_cast<std::uint32_t>(rng.next_below(64)),
            static_cast<std::uint32_t>(service::wire::kMaxFrameBytes),
            static_cast<std::uint32_t>(service::wire::kMaxFrameBytes) + 4,
            ~std::uint32_t{0},
            static_cast<std::uint32_t>(rng.next_below(1ull << 32))};
        const std::uint32_t lie = lies[rng.next_below(std::size(lies))];
        for (int b = 0; b < 4; ++b)
          bytes[static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(lie >> (8 * b));
        break;
      }
      case 3: {  // an out-of-range id in some pair slot
        const std::uint32_t id =
            rng.next_below(2) == 0
                ? static_cast<std::uint32_t>(kVertices +
                                             rng.next_below(1000))
                : ~std::uint32_t{0} -
                      static_cast<std::uint32_t>(rng.next_below(4));
        if (bytes.size() >= 12) {
          const std::size_t slot =
              8 + 4 * rng.next_below((bytes.size() - 8) / 4);
          for (int b = 0; b < 4; ++b)
            bytes[slot + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(id >> (8 * b));
        }
        break;
      }
      default:  // random garbage over a random span
        for (std::size_t i = at; i < bytes.size() && i < at + 16; ++i)
          bytes[i] = static_cast<std::uint8_t>(rng.next_below(256));
        break;
    }
    expect_frames_parse_safely(bytes, 0, kVertices, seen);
    if (!bytes.empty())
      expect_frames_parse_safely(bytes, rng.next_below(bytes.size() + 1),
                                 kVertices, seen);
  }
  // The mutations reach every status, not just the parser's first check.
  for (const std::size_t count : seen) EXPECT_GT(count, 500u);
}

}  // namespace
}  // namespace pathsep
