// Mutation tests for the contract layer (src/check/): every deep validator
// must accept the structures the real pipeline produces and reject
// deliberately corrupted copies with a structured, useful failure report.
// This is the guard that keeps the audits honest — a validator that never
// fires is indistinguishable from no validator at all.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/labels.hpp"
#include "oracle/portals.hpp"
#include "separator/finders.hpp"
#include "service/result_cache.hpp"
#include "util/thread_pool.hpp"

namespace pathsep {
namespace {

using check::CheckFailure;
using graph::Graph;
using graph::Vertex;
using graph::Weight;

// --------------------------------------------------------------------------
// Macro layer
// --------------------------------------------------------------------------

TEST(CheckMacros, AssertPassesOnTrueCondition) {
  EXPECT_NO_THROW(PATHSEP_ASSERT(1 + 1 == 2));
  EXPECT_NO_THROW(PATHSEP_ASSERT(true, "context ", 42));
}

TEST(CheckMacros, AssertThrowsStructuredReport) {
  const int bad = 7;
  try {
    PATHSEP_ASSERT(bad < 5, "bad is ", bad, ", limit is 5");
    FAIL() << "PATHSEP_ASSERT did not throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PATHSEP_ASSERT failed"), std::string::npos) << what;
    EXPECT_NE(what.find("bad < 5"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("bad is 7, limit is 5"), std::string::npos) << what;
  }
}

TEST(CheckMacros, CheckFailureIsLogicError) {
  EXPECT_THROW(PATHSEP_ASSERT(false), std::logic_error);
}

TEST(CheckMacros, DcheckMatchesBuildMode) {
#ifdef NDEBUG
  EXPECT_NO_THROW(PATHSEP_DCHECK(false, "compiled out under NDEBUG"));
#else
  EXPECT_THROW(PATHSEP_DCHECK(false, "live in debug builds"), CheckFailure);
#endif
}

TEST(CheckMacros, AuditStatementGatedOnAuditEnabled) {
  bool ran = false;
  PATHSEP_AUDIT(ran = true);
  EXPECT_EQ(ran, check::audit_enabled());
}

TEST(CheckMacrosDeathTest, AbortModePrintsReportAndDies) {
  EXPECT_DEATH(
      {
        check::abort_on_failure();
        PATHSEP_ASSERT(false, "tool-mode corruption");
      },
      "PATHSEP_ASSERT failed");
}

// --------------------------------------------------------------------------
// Graph CSR audit
// --------------------------------------------------------------------------

class AuditGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(7);
    g_ = graph::random_tree(12, rng, graph::WeightSpec::uniform_real(1, 3));
    offsets_.assign(g_.raw_offsets().begin(), g_.raw_offsets().end());
    arcs_.assign(g_.raw_arcs().begin(), g_.raw_arcs().end());
  }

  Graph g_;
  std::vector<std::size_t> offsets_;
  std::vector<graph::Arc> arcs_;
};

TEST_F(AuditGraphTest, AcceptsBuiltGraph) {
  EXPECT_NO_THROW(check::audit_graph(g_));
  EXPECT_NO_THROW(check::audit_csr(offsets_, arcs_));
}

TEST_F(AuditGraphTest, RejectsAsymmetricWeight) {
  arcs_[0].weight += 1.0;  // u->v no longer matches v->u
  EXPECT_THROW(check::audit_csr(offsets_, arcs_), CheckFailure);
}

TEST_F(AuditGraphTest, RejectsSelfLoop) {
  // Point vertex 0's first arc back at vertex 0.
  arcs_[offsets_[0]].to = 0;
  EXPECT_THROW(check::audit_csr(offsets_, arcs_), CheckFailure);
}

TEST_F(AuditGraphTest, RejectsNonPositiveAndNonFiniteWeights) {
  auto corrupt = arcs_;
  corrupt[1].weight = -2.0;
  EXPECT_THROW(check::audit_csr(offsets_, corrupt), CheckFailure);
  corrupt = arcs_;
  corrupt[1].weight = std::numeric_limits<Weight>::infinity();
  EXPECT_THROW(check::audit_csr(offsets_, corrupt), CheckFailure);
}

TEST_F(AuditGraphTest, RejectsBrokenOffsets) {
  auto corrupt = offsets_;
  corrupt.back() -= 1;  // offsets no longer span the arc array
  EXPECT_THROW(check::audit_csr(corrupt, arcs_), CheckFailure);
  corrupt = offsets_;
  corrupt[0] = 1;  // must start at zero
  EXPECT_THROW(check::audit_csr(corrupt, arcs_), CheckFailure);
}

TEST_F(AuditGraphTest, RejectsOutOfRangeTarget) {
  arcs_[0].to = static_cast<Vertex>(offsets_.size());  // >= n
  EXPECT_THROW(check::audit_csr(offsets_, arcs_), CheckFailure);
}

// --------------------------------------------------------------------------
// Separator audit
// --------------------------------------------------------------------------

TEST(AuditSeparator, AcceptsCentroidSeparatorAndRejectsNonSeparator) {
  util::Rng rng(11);
  const Graph g = graph::random_tree(15, rng);
  const auto good = separator::TreeCentroidSeparator().find(g);
  EXPECT_NO_THROW(check::audit_separator(g, good));

  // A single leaf is a legal path but leaves a component of n-1 > n/2:
  // P3 of Definition 1 is violated and the audit must say so.
  Vertex leaf = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.neighbors(v).size() == 1) leaf = v;
  separator::PathSeparator bad;
  bad.stages = {{{leaf}}};
  try {
    check::audit_separator(g, bad);
    FAIL() << "non-separating set accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("Definition 1"), std::string::npos)
        << e.what();
  }
}

TEST(AuditSeparator, RejectsNonPathStage) {
  util::Rng rng(13);
  const Graph g = graph::random_tree(10, rng);
  // Two distant leaves glued into one "path" are not adjacent, so the stage
  // is not a path of g at all.
  std::vector<Vertex> leaves;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.neighbors(v).size() == 1) leaves.push_back(v);
  ASSERT_GE(leaves.size(), 2u);
  if (g.edge_weight(leaves[0], leaves[1]) != graph::kInfiniteWeight)
    GTEST_SKIP() << "leaves happen to be adjacent";
  separator::PathSeparator bad;
  bad.stages = {{{leaves[0], leaves[1]}}};
  EXPECT_THROW(check::audit_separator(g, bad), CheckFailure);
}

// --------------------------------------------------------------------------
// Decomposition tree audit
// --------------------------------------------------------------------------

class AuditTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(17);
    g_ = graph::random_tree(40, rng, graph::WeightSpec::uniform_real(1, 2));
    tree_ = std::make_unique<hierarchy::DecompositionTree>(
        g_, separator::TreeCentroidSeparator());
    nodes_ = tree_->nodes();  // mutable copy for corruption
  }

  Graph g_;
  std::unique_ptr<hierarchy::DecompositionTree> tree_;
  std::vector<hierarchy::DecompositionNode> nodes_;
};

TEST_F(AuditTreeTest, AcceptsBuiltTree) {
  EXPECT_NO_THROW(check::audit_decomposition(*tree_));
  EXPECT_NO_THROW(check::audit_decomposition_nodes(nodes_));
}

TEST_F(AuditTreeTest, RejectsCorruptPrefixSums) {
  ASSERT_FALSE(nodes_[0].paths.empty());
  auto& prefix = nodes_[0].paths[0].prefix;
  prefix.back() += 0.5;  // no longer matches the path's edge weights
  EXPECT_THROW(check::audit_decomposition_nodes(nodes_), CheckFailure);
}

TEST_F(AuditTreeTest, RejectsBrokenParentLink) {
  ASSERT_FALSE(nodes_[0].children.empty());
  nodes_[static_cast<std::size_t>(nodes_[0].children[0])].parent = -1;
  EXPECT_THROW(check::audit_decomposition_nodes(nodes_), CheckFailure);
}

TEST_F(AuditTreeTest, RejectsWrongDepth) {
  ASSERT_FALSE(nodes_[0].children.empty());
  nodes_[static_cast<std::size_t>(nodes_[0].children[0])].depth = 7;
  EXPECT_THROW(check::audit_decomposition_nodes(nodes_), CheckFailure);
}

TEST_F(AuditTreeTest, RejectsOutOfRangeStage) {
  ASSERT_FALSE(nodes_[0].paths.empty());
  nodes_[0].paths[0].stage = nodes_[0].num_stages + 3;
  EXPECT_THROW(check::audit_decomposition_nodes(nodes_), CheckFailure);
}

TEST_F(AuditTreeTest, RejectsVertexClaimedByTwoChildren) {
  // Find a node with two children and graft a vertex of the second child
  // into the first child's root_ids: cover/disjointness must fire.
  for (auto& node : nodes_) {
    if (node.children.size() < 2) continue;
    auto& a = nodes_[static_cast<std::size_t>(node.children[0])];
    const auto& b = nodes_[static_cast<std::size_t>(node.children[1])];
    ASSERT_FALSE(a.root_ids.empty());
    ASSERT_FALSE(b.root_ids.empty());
    a.root_ids[0] = b.root_ids[0];
    EXPECT_THROW(check::audit_decomposition_nodes(nodes_), CheckFailure);
    return;
  }
  GTEST_SKIP() << "no node with two children in this tree";
}

// --------------------------------------------------------------------------
// Label and connection audit
// --------------------------------------------------------------------------

class AuditLabelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(19);
    g_ = graph::random_tree(30, rng, graph::WeightSpec::uniform_real(1, 4));
    tree_ = std::make_unique<hierarchy::DecompositionTree>(
        g_, separator::TreeCentroidSeparator());
    labels_ = oracle::build_labels(*tree_, 0.5);
  }

  /// First part (arena index) of a vertex with at least `count` parts.
  std::size_t first_part_of_label_with(std::size_t count) const {
    for (std::size_t v = 0; v < labels_.num_vertices(); ++v)
      if (labels_.part_offsets[v + 1] - labels_.part_offsets[v] >= count)
        return labels_.part_offsets[v];
    ADD_FAILURE() << "no label with " << count << " parts";
    return 0;
  }

  Graph g_;
  std::unique_ptr<hierarchy::DecompositionTree> tree_;
  oracle::LabelArena labels_;
};

TEST_F(AuditLabelsTest, AcceptsBuiltLabels) {
  EXPECT_NO_THROW(check::audit_labels(labels_));
  EXPECT_NO_THROW(check::audit_built_labels(labels_, *tree_));
}

TEST_F(AuditLabelsTest, RejectsDominatedConnection) {
  // Real weights keep several portals per part, so a connection can be
  // made dominated by its left neighbour without touching anything else.
  util::Rng rng(17);
  const auto gg = graph::random_apollonian(200, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const oracle::LabelArena built = oracle::build_labels(tree, 0.25);
  ASSERT_NO_THROW(check::audit_built_labels(built, tree));
  std::size_t c = built.num_connections();
  for (std::size_t p = 0; p < built.num_parts() && c == built.num_connections();
       ++p)
    if (built.parts[p + 1].begin - built.parts[p].begin >= 2)
      c = built.parts[p].begin;
  ASSERT_LT(c, built.num_connections()) << "no part with two connections";

  // d(c+1) = d(c) + (prefix(c+1) - prefix(c)) + 1: a route through c's
  // portal is shorter for every partner.
  oracle::LabelArena dominated = built;
  dominated.hot[c + 1].dist =
      built.hot[c].dist + (built.hot[c + 1].prefix - built.hot[c].prefix) + 1;
  EXPECT_NO_THROW(check::audit_labels(dominated));
  EXPECT_THROW(check::audit_built_labels(dominated, tree), CheckFailure);

  // Two equal connections dominate each other; the build keeps only one.
  oracle::LabelArena twins = built;
  twins.hot[c + 1] = twins.hot[c];
  EXPECT_NO_THROW(check::audit_labels(twins));
  EXPECT_THROW(check::audit_built_labels(twins, tree), CheckFailure);
}

TEST_F(AuditLabelsTest, RejectsNonMonotonePartOffsets) {
  // Vertex 1's part range ends before it starts.
  ASSERT_GE(labels_.num_vertices(), 3u);
  labels_.part_offsets[2] = labels_.part_offsets[1] - 1;
  EXPECT_THROW(check::audit_labels(labels_), CheckFailure);
}

TEST_F(AuditLabelsTest, RejectsNegativeDistance) {
  ASSERT_FALSE(labels_.hot.empty()) << "no connection to corrupt";
  labels_.hot[0].dist = -1.0;
  EXPECT_THROW(check::audit_labels(labels_), CheckFailure);
}

TEST_F(AuditLabelsTest, RejectsUnsortedParts) {
  const std::size_t p = first_part_of_label_with(2);
  std::swap(labels_.parts[p].node, labels_.parts[p + 1].node);
  std::swap(labels_.parts[p].path_depth, labels_.parts[p + 1].path_depth);
  EXPECT_THROW(check::audit_labels(labels_), CheckFailure);
}

TEST_F(AuditLabelsTest, RejectsDuplicateParts) {
  const std::size_t p = first_part_of_label_with(2);
  labels_.parts[p + 1].node = labels_.parts[p].node;
  labels_.parts[p + 1].path_depth = labels_.parts[p].path_depth;
  EXPECT_THROW(check::audit_labels(labels_), CheckFailure);
}

/// validate_arena's verdict on `arena`: the message of its rejection, or
/// "" when it passes.
std::string validation_error(const oracle::LabelArena& arena) {
  try {
    oracle::validate_arena(arena);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST_F(AuditLabelsTest, RejectsADepthPastItsBits) {
  labels_.parts[first_part_of_label_with(1)].path_depth |= 1u << 31;
  EXPECT_NE(validation_error(labels_).find("out of range"), std::string::npos);
  EXPECT_THROW(check::audit_labels(labels_), CheckFailure);
}

TEST_F(AuditLabelsTest, RejectsADepthThatDoesNotRiseWithTheNode) {
  // The first two parts of a label on two different nodes: give the deeper
  // one its predecessor's depth.
  for (std::size_t v = 0; v < labels_.num_vertices(); ++v)
    for (std::size_t p = labels_.part_offsets[v] + 1;
         p < labels_.part_offsets[v + 1]; ++p)
      if (labels_.parts[p].node != labels_.parts[p - 1].node) {
        labels_.parts[p] =
            oracle::LabelPart::make(labels_.parts[p].node,
                                    labels_.parts[p].path(),
                                    labels_.parts[p - 1].depth(),
                                    labels_.parts[p].begin);
        EXPECT_NE(validation_error(labels_).find("does not descend"),
                  std::string::npos)
            << validation_error(labels_);
        return;
      }
  FAIL() << "no label spans two nodes";
}

TEST_F(AuditLabelsTest, RejectsOneNodeAtTwoDepths) {
  // Vertex 0's label reaches the root first; another label's root part
  // claiming depth 1 contradicts it (and still rises along its own label
  // only if its next part is deeper, which the check does not need).
  const std::size_t last = labels_.num_vertices() - 1;
  const std::size_t p = labels_.part_offsets[last];
  ASSERT_EQ(labels_.parts[p].node, 0);
  ASSERT_EQ(labels_.parts[labels_.part_offsets[0]].node, 0);
  labels_.parts[p].path_depth += 1u << 16;
  EXPECT_NE(validation_error(labels_).find("another part at 0"),
            std::string::npos)
      << validation_error(labels_);
}

TEST_F(AuditLabelsTest, BuiltLabelsCarryTheirNodesDepths) {
  // Every depth shifted by one still descends every chain and agrees per
  // node, so only the audit against the tree can see it.
  for (oracle::LabelPart& part : labels_.parts)
    if (&part != &labels_.parts.back()) part.path_depth += 1u << 16;
  ASSERT_EQ(validation_error(labels_), "");
  EXPECT_NO_THROW(check::audit_labels(labels_));
  EXPECT_THROW(check::audit_built_labels(labels_, *tree_), CheckFailure);
}

TEST(AuditConnections, RejectsBrokenPortalOrder) {
  // A grid's separator is a full grid line — a long path — and a fine
  // epsilon forces multi-portal ladders, so there is an ordering to corrupt.
  const graph::GridGraph gg = graph::grid(8, 8);
  const hierarchy::DecompositionTree tree(gg.graph,
                                          separator::GridLineSeparator(8, 8));
  const auto& root = tree.node(0);
  oracle::NodeConnections conns = oracle::compute_connections(root, 0.05);
  EXPECT_NO_THROW(check::audit_connections(root, conns));
  for (std::size_t pi = 0; pi < conns.paths.size(); ++pi)
    for (Vertex v = 0; v < root.graph.num_vertices(); ++v)
      if (const std::span<oracle::Connection> list = conns.list(pi, v);
          list.size() >= 2) {
        std::swap(list.front(), list.back());
        EXPECT_THROW(check::audit_connections(root, conns), CheckFailure);
        return;
      }
  GTEST_SKIP() << "no vertex with two connections";
}

// --------------------------------------------------------------------------
// Routing table audit
// --------------------------------------------------------------------------

TEST(AuditRouting, RejectsCorruptNextHop) {
  util::Rng rng(23);
  const Graph g = graph::random_tree(30, rng,
                                     graph::WeightSpec::uniform_real(1, 4));
  const hierarchy::DecompositionTree tree(g,
                                          separator::TreeCentroidSeparator());
  oracle::LabelArena labels = oracle::build_labels(tree, 0.5);
  EXPECT_NO_THROW(check::audit_routing_tables(tree, labels));

  for (std::size_t p = 0; p < labels.num_parts(); ++p)
    for (std::uint64_t c = labels.parts[p].begin; c < labels.parts[p + 1].begin;
         ++c)
      if (labels.cold[c].next_hop != graph::kInvalidVertex) {
        // A hop the vertex is not adjacent to can never forward a packet.
        labels.cold[c].next_hop = static_cast<Vertex>(
            tree.node(labels.parts[p].node).graph.num_vertices());
        EXPECT_THROW(check::audit_routing_tables(tree, labels), CheckFailure);
        return;
      }
  FAIL() << "no connection with a next hop";
}

TEST(AuditRouting, RejectsPortalOffPath) {
  util::Rng rng(29);
  const Graph g = graph::random_tree(25, rng);
  const hierarchy::DecompositionTree tree(g,
                                          separator::TreeCentroidSeparator());
  oracle::LabelArena labels = oracle::build_labels(tree, 0.5);
  ASSERT_FALSE(labels.cold.empty()) << "no connection to corrupt";
  labels.cold[0].path_index = 100000;
  EXPECT_THROW(check::audit_routing_tables(tree, labels), CheckFailure);
}

// --------------------------------------------------------------------------
// Serving layer contracts
// --------------------------------------------------------------------------

TEST(AuditCache, PutRejectsNonCanonicalKeyAndBadValues) {
  service::ResultCache cache(64);
  cache.put(service::ResultCache::key(2, 1), 3.5);
  EXPECT_NO_THROW(check::audit_result_cache(cache));
  EXPECT_EQ(cache.get(service::ResultCache::key(1, 2)).value_or(-1), 3.5);

  // key() always packs (min << 32) | max; a hand-packed (2,1) is corrupt.
  const std::uint64_t non_canonical = (std::uint64_t{2} << 32) | 1;
  EXPECT_THROW(cache.put(non_canonical, 1.0), CheckFailure);
  EXPECT_THROW(cache.put(service::ResultCache::key(0, 1), -0.5), CheckFailure);
  EXPECT_THROW(cache.put(service::ResultCache::key(0, 1),
                         std::nan("")), CheckFailure);
  // The cache itself is still intact after the rejected puts.
  EXPECT_NO_THROW(check::audit_result_cache(cache));
}

TEST(AuditPool, SubmitRejectsNullTask) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.submit(std::function<void()>{}), CheckFailure);
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_NO_THROW(check::audit_thread_pool(pool));
}

}  // namespace
}  // namespace pathsep
