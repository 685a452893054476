// The parallel construction pipeline: task-parallel DecompositionTree build,
// shared-pool parallel_for, and the determinism guarantee — the serialized
// oracle must be byte-identical for every thread count. Labeled `parallel`
// in CTest; scripts/check.sh runs this suite under ThreadSanitizer alongside
// the `service` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/audit_hierarchy.hpp"
#include "check/audit_oracle.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "oracle/labels.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "service/snapshot.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/workspace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pathsep {
namespace {

using graph::Graph;
using graph::Vertex;
using hierarchy::DecompositionTree;

DecompositionTree::Options with_threads(std::size_t threads,
                                        bool validate = false) {
  DecompositionTree::Options o;
  o.threads = threads;
  o.validate_separators = validate;
  return o;
}

/// Serialized bytes of the whole oracle (tree shape + every label), built
/// with the given thread count end to end.
std::vector<std::uint8_t> build_serialized(
    const Graph& g, const separator::SeparatorFinder& finder,
    std::size_t threads, double epsilon = 0.5) {
  const DecompositionTree tree(g, finder, with_threads(threads));
  const oracle::LabelArena labels =
      oracle::build_labels(tree, epsilon, threads);
  std::vector<std::uint8_t> bytes;
  // Tree shape participates too: node ids, parents, chain order.
  oracle::append_varint(bytes, tree.nodes().size());
  for (const auto& node : tree.nodes()) {
    oracle::append_varint(bytes,
                          static_cast<std::uint64_t>(node.parent + 1));
    oracle::append_varint(bytes, node.paths.size());
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (const auto& [node_id, local] : tree.chain(v)) {
      oracle::append_varint(bytes, static_cast<std::uint64_t>(node_id));
      oracle::append_varint(bytes, local);
    }
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    const std::vector<std::uint8_t> one =
        oracle::serialize_label(labels.label(v));
    oracle::append_varint(bytes, one.size());
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  return bytes;
}

// ------------------------------------------------------------- determinism

TEST(ParallelBuild, GridOracleBytesIdenticalAcrossThreadCounts) {
  const graph::GridGraph gg = graph::grid(16, 16);
  const separator::GridLineSeparator finder(16, 16);
  const auto serial = build_serialized(gg.graph, finder, 1);
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 2));
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 8));
}

TEST(ParallelBuild, SnapshotBytesIdenticalAcrossThreadCounts) {
  // The snapshot file is the label arena byte for byte, so every array —
  // including bytes no query reads — must come out the same at every thread
  // count (perfbench counts differing snapshot digests as failures).
  util::Rng rng(73);
  const auto gg = graph::random_apollonian(300, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const auto snapshot = [&](std::size_t threads) {
    const DecompositionTree tree(gg.graph, finder, with_threads(threads));
    return service::serialize_oracle(oracle::PathOracle(
        oracle::build_labels(tree, 0.5, threads), 0.5));
  };
  const auto serial = snapshot(1);
  EXPECT_TRUE(serial == snapshot(2));
  EXPECT_TRUE(serial == snapshot(8));
}

TEST(ParallelBuild, PlanarOracleBytesIdenticalAcrossThreadCounts) {
  util::Rng rng(71);
  const auto gg = graph::random_apollonian(400, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const auto serial = build_serialized(gg.graph, finder, 1);
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 8));
}

TEST(ParallelBuild, KTreeOracleBytesIdenticalAcrossThreadCounts) {
  util::Rng rng(73);
  const Graph g = graph::random_ktree(250, 3, rng);
  const separator::TreewidthBagSeparator finder;
  EXPECT_EQ(build_serialized(g, finder, 1), build_serialized(g, finder, 8));
}

TEST(ParallelBuild, GreedyFallbackBytesIdenticalAcrossThreadCounts) {
  // The greedy finder seeds its RNG from each subgraph, so it too must be
  // reproducible under concurrent subtree separation.
  util::Rng rng(77);
  const Graph g = graph::gnm_random(300, 900, rng, true);
  const separator::GreedyPathSeparator finder;
  EXPECT_EQ(build_serialized(g, finder, 1), build_serialized(g, finder, 8));
}

TEST(ParallelBuild, TreeStructureMatchesSerialBuild) {
  util::Rng rng(79);
  const auto gg = graph::random_apollonian(300, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const DecompositionTree serial(gg.graph, finder, with_threads(1));
  const DecompositionTree parallel(gg.graph, finder, with_threads(8));
  ASSERT_EQ(serial.nodes().size(), parallel.nodes().size());
  EXPECT_EQ(serial.height(), parallel.height());
  EXPECT_EQ(serial.total_paths(), parallel.total_paths());
  for (std::size_t id = 0; id < serial.nodes().size(); ++id) {
    const auto& a = serial.nodes()[id];
    const auto& b = parallel.nodes()[id];
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.children, b.children);
    EXPECT_EQ(a.root_ids, b.root_ids);
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (std::size_t pi = 0; pi < a.paths.size(); ++pi) {
      EXPECT_EQ(a.paths[pi].verts, b.paths[pi].verts);
      EXPECT_EQ(a.paths[pi].prefix, b.paths[pi].prefix);
      EXPECT_EQ(a.paths[pi].stage, b.paths[pi].stage);
    }
  }
  for (Vertex v = 0; v < gg.graph.num_vertices(); ++v)
    EXPECT_EQ(serial.chain(v), parallel.chain(v));
}

TEST(ParallelBuild, GridDigestIdenticalAcrossThreadsForTightEpsilon) {
  // A second epsilon value exercises different ladder sizes, hence different
  // request/portal groupings, through the same fixed-slot write paths.
  const graph::GridGraph gg = graph::grid(16, 16);
  const separator::GridLineSeparator finder(16, 16);
  const auto serial = build_serialized(gg.graph, finder, 1, 0.2);
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 2, 0.2));
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 8, 0.2));
}

TEST(ParallelBuild, PlanarDigestIdenticalAcrossThreadsForTightEpsilon) {
  util::Rng rng(71);
  const auto gg = graph::random_apollonian(400, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const auto serial = build_serialized(gg.graph, finder, 1, 0.2);
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 2, 0.2));
  EXPECT_EQ(serial, build_serialized(gg.graph, finder, 8, 0.2));
}

TEST(ParallelBuild, PlanarDigestIdenticalAtTwoThreads) {
  // threads=2 is the interesting boundary on a small pool: one helper plus
  // the cooperative caller.
  util::Rng rng(71);
  const auto gg = graph::random_apollonian(400, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  EXPECT_EQ(build_serialized(gg.graph, finder, 1),
            build_serialized(gg.graph, finder, 2));
}

// ---------------------------------------------- early-terminated Dijkstras

/// Property over random masked graphs: a run early-terminated once all of
/// its targets settle must report, for every target, exactly the distance
/// and parent the exhaustive run produces (Dijkstra settles in
/// non-decreasing distance order, so settled values are final).
TEST(EarlyTermination, MatchesFullRunOnRandomMaskedGraphs) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 40 + rng.next_below(160);
    const std::size_t m = n + rng.next_below(3 * n);
    const Graph g = graph::gnm_random(n, m, rng, true);
    std::vector<bool> removed(n, false);
    for (Vertex v = 0; v < n; ++v) removed[v] = rng.next_bool(0.2);
    const Vertex source = static_cast<Vertex>(rng.next_below(n));
    removed[source] = false;
    std::vector<Vertex> targets;
    const int num_targets = static_cast<int>(rng.next_int(1, 12));
    for (int i = 0; i < num_targets; ++i)
      targets.push_back(static_cast<Vertex>(rng.next_below(n)));
    targets.push_back(targets.front());  // duplicates must be harmless

    const Vertex sources[] = {source};
    sssp::DijkstraWorkspace full, early;
    sssp::dijkstra_masked(g, sources, removed, full);
    sssp::dijkstra_masked_until(g, sources, removed, targets, early);
    for (Vertex t : targets) {
      if (!full.reached(t)) continue;  // unreachable: early run may skip it
      EXPECT_EQ(early.dist(t), full.dist(t)) << "trial " << trial;
      EXPECT_EQ(early.parent(t), full.parent(t)) << "trial " << trial;
    }
  }
}

TEST(EarlyTermination, FreshWorkspaceAndEmptyTargetsWork) {
  // Regression: set_targets on a workspace that never ran anything used to
  // size its stamp array from the (empty) main stamp array and crash — the
  // exact state of a pool thread's workspace on its first portal task.
  const graph::GridGraph gg = graph::grid(8, 8);
  const std::vector<bool> removed(64, false);
  const Vertex sources[] = {0};
  const Vertex targets[] = {63};
  sssp::DijkstraWorkspace fresh;
  sssp::dijkstra_masked_until(gg.graph, sources, removed, targets, fresh);
  EXPECT_TRUE(fresh.reached(63));

  // An empty target set means "no early termination": the run must settle
  // every reachable vertex, same as the plain masked entry point.
  sssp::DijkstraWorkspace exhaustive;
  sssp::dijkstra_masked_until(gg.graph, sources, removed, {}, exhaustive);
  for (Vertex v = 0; v < 64; ++v) EXPECT_TRUE(exhaustive.reached(v));
}

/// dijkstra_project's anchors: every reached vertex reports the source whose
/// canonical shortest-path tree contains it — its distance equals the
/// multi-source distance, and anchors are inherited from the parent.
TEST(EarlyTermination, ProjectionAnchorsAreConsistent) {
  util::Rng rng(515);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 60 + rng.next_below(100);
    const Graph g = graph::gnm_random(n, 3 * n, rng, true);
    std::vector<bool> removed(n, false);
    for (Vertex v = 0; v < n; ++v) removed[v] = rng.next_bool(0.15);
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < n && sources.size() < 5; ++v)
      if (!removed[v]) sources.push_back(v);
    ASSERT_FALSE(sources.empty());

    sssp::DijkstraWorkspace ws;
    sssp::dijkstra_project(g, sources, removed, ws);
    for (Vertex v = 0; v < n; ++v) {
      if (!ws.reached(v)) continue;
      const std::uint32_t a = ws.anchor(v);
      ASSERT_LT(a, sources.size());
      const Vertex p = ws.parent(v);
      if (p == graph::kInvalidVertex) {
        EXPECT_EQ(sources[a], v);  // a source anchors to itself
      } else {
        EXPECT_EQ(ws.anchor(p), a);  // anchors flow down the SPT
      }
      // The anchor's own single-source distance realizes the multi-source
      // distance (no closer source exists by definition of the tree).
      sssp::DijkstraWorkspace single;
      const Vertex one[] = {sources[a]};
      sssp::dijkstra_masked(g, one, removed, single);
      EXPECT_DOUBLE_EQ(single.dist(v), ws.dist(v));
    }
  }
}

/// dijkstra_project's reached-list channel: the list the portal exporters
/// iterate instead of scanning all n slots must contain exactly the reached
/// set, free of duplicates, at any mask density.
TEST(EarlyTermination, ProjectionReachedListMatchesReachedFlags) {
  util::Rng rng(929);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 60 + rng.next_below(100);
    const Graph g = graph::gnm_random(n, 3 * n, rng, true);
    std::vector<bool> removed(n, false);
    for (Vertex v = 0; v < n; ++v) removed[v] = rng.next_bool(0.25);
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < n && sources.size() < 4; ++v)
      if (!removed[v]) sources.push_back(v);
    ASSERT_FALSE(sources.empty());

    sssp::DijkstraWorkspace ws;
    sssp::dijkstra_project(g, sources, removed, ws);

    std::vector<bool> listed(n, false);
    for (const Vertex v : ws.reached_list()) {
      ASSERT_LT(v, n);
      EXPECT_FALSE(listed[v]) << "duplicate " << v << " in reached list";
      listed[v] = true;
      EXPECT_TRUE(ws.reached(v));
    }
    for (Vertex v = 0; v < n; ++v)
      EXPECT_EQ(listed[v], ws.reached(v)) << v;
  }
}

// ------------------------------------------------------------------ audits

TEST(ParallelBuild, ParallelTreePassesDeepAudits) {
  util::Rng rng(83);
  const auto gg = graph::random_apollonian(350, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const DecompositionTree tree(gg.graph, finder, with_threads(8, true));
  check::audit_decomposition(tree);
  const auto labels = oracle::build_labels(tree, 0.5, 8);
  check::audit_labels(labels);
}

// -------------------------------------------------------- error propagation

/// Throws once the recursion reaches subgraphs below a size threshold —
/// exercises failure deep inside concurrently-built subtrees.
class BoomFinder final : public separator::SeparatorFinder {
 public:
  using separator::SeparatorFinder::find;
  separator::PathSeparator find(
      const Graph& g, std::span<const Vertex> root_ids) const override {
    if (g.num_vertices() < 16)
      throw std::runtime_error("boom: finder failed on a small subgraph");
    return inner_.find(g, root_ids);
  }
  std::string name() const override { return "boom"; }

 private:
  separator::TreeCentroidSeparator inner_;
};

TEST(ParallelBuild, WorkerExceptionsPropagateToCaller) {
  const Graph g = graph::path_graph(256);
  EXPECT_THROW(DecompositionTree(g, BoomFinder(), with_threads(8)),
               std::runtime_error);
}

/// Claims a single vertex as the separator — never halves a path graph, so
/// the P3 balance check must fire (and with validation on, Definition 1).
class UnbalancedFinder final : public separator::SeparatorFinder {
 public:
  using separator::SeparatorFinder::find;
  separator::PathSeparator find(const Graph&,
                                std::span<const Vertex>) const override {
    separator::PathSeparator s;
    s.stages.push_back({{0}});
    return s;
  }
  std::string name() const override { return "unbalanced"; }
  bool guarantees_definition1() const override { return false; }
};

TEST(ParallelBuild, UnbalancedSeparatorRejectedInParallel) {
  const Graph g = graph::path_graph(128);
  EXPECT_THROW(DecompositionTree(g, UnbalancedFinder(), with_threads(8)),
               std::runtime_error);
  EXPECT_THROW(DecompositionTree(g, UnbalancedFinder(), with_threads(8, true)),
               std::runtime_error);
}

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 50000;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(util::parallel_for(
                   1000,
                   [](std::size_t i) {
                     if (i == 500) throw std::runtime_error("kaboom");
                   },
                   8),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  std::vector<std::atomic<int>> hits(64 * 64);
  util::parallel_for(
      64,
      [&](std::size_t outer) {
        util::parallel_for(
            64, [&](std::size_t inner) { hits[outer * 64 + inner]++; }, 4);
      },
      8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, GrainOneCoversEveryIndexExactlyOnce) {
  // grain=1 is the label build's node-scheduling mode (one huge root next to
  // hundreds of leaves): every index is its own chunk.
  constexpr std::size_t kCount = 3000;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8, /*grain=*/1);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RunsInsidePoolWorkerWithoutDeadlock) {
  // compute_connections fans out from inside a node task that is itself a
  // pool task: the cooperative wait must let the outer task execute its own
  // helpers instead of blocking the only worker.
  std::vector<std::atomic<int>> hits(512);
  std::atomic<bool> done{false};
  util::shared_pool().submit([&] {
    util::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
    done = true;
  });
  util::shared_pool().wait_idle();
  EXPECT_TRUE(done.load());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountAndSerialFallbackWork) {
  util::parallel_for(0, [](std::size_t) { FAIL(); }, 8);
  int serial_hits = 0;
  util::parallel_for(10, [&](std::size_t) { ++serial_hits; }, 1);
  EXPECT_EQ(serial_hits, 10);  // threads=1 runs inline, no pool involved
}

// -------------------------------------------------------------- shared pool

TEST(SharedPool, IsASingletonWithWorkers) {
  util::ThreadPool& a = util::shared_pool();
  util::ThreadPool& b = util::shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 2u);  // real concurrency even on 1-core hosts
}

TEST(SharedPool, InWorkerIsVisibleFromTasks) {
  EXPECT_FALSE(util::ThreadPool::in_worker());
  std::atomic<bool> inside{false};
  util::shared_pool().submit(
      [&] { inside = util::ThreadPool::in_worker(); });
  util::shared_pool().wait_idle();
  EXPECT_TRUE(inside.load());
}

TEST(DefaultThreads, ReadsPathsepThreadsEnv) {
  const char* old = std::getenv("PATHSEP_THREADS");
  const std::string saved = old ? old : "";
  setenv("PATHSEP_THREADS", "3", 1);
  EXPECT_EQ(util::default_threads(), 3u);
  if (old)
    setenv("PATHSEP_THREADS", saved.c_str(), 1);
  else
    unsetenv("PATHSEP_THREADS");
}

}  // namespace
}  // namespace pathsep
