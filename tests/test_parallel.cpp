// The parallel construction pipeline: level-parallel DecompositionTree build,
// shared-pool parallel_for under one thread budget, and the determinism
// guarantee — the serialized oracle must be byte-identical for every
// budget. Labeled `parallel` in CTest; scripts/check.sh runs this suite
// under ThreadSanitizer alongside the `service` label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
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

/// Sets the process-wide thread budget for one scope and restores the
/// previous budget after it.
class ScopedBudget {
 public:
  explicit ScopedBudget(std::size_t threads) : saved_(util::threads()) {
    util::set_threads(threads);
  }
  ~ScopedBudget() { util::set_threads(saved_); }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  std::size_t saved_;
};

/// Serialized bytes of the whole oracle (tree shape + every label), built
/// under the given thread budget end to end.
std::vector<std::uint8_t> build_serialized(
    const Graph& g, const separator::SeparatorFinder& finder,
    std::size_t threads, double epsilon = 0.5) {
  const ScopedBudget budget(threads);
  const DecompositionTree tree(g, finder);
  const oracle::LabelArena labels = oracle::build_labels(tree, epsilon);
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
  // budget (perfbench counts differing snapshot digests as failures).
  util::Rng rng(73);
  const auto gg = graph::random_apollonian(300, rng);
  const separator::PlanarCycleSeparator finder(gg.positions);
  const auto snapshot = [&](std::size_t threads) {
    const ScopedBudget budget(threads);
    const DecompositionTree tree(gg.graph, finder);
    return service::serialize_oracle(
        oracle::PathOracle(oracle::build_labels(tree, 0.5), 0.5));
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
  const auto build = [&](std::size_t threads) {
    const ScopedBudget budget(threads);
    return DecompositionTree(gg.graph, finder);
  };
  const DecompositionTree serial = build(1);
  const DecompositionTree parallel = build(8);
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
  // Budget 2 is the interesting boundary: one pool worker plus the
  // cooperative caller.
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
  const ScopedBudget budget(8);
  const DecompositionTree tree(gg.graph, finder,
                               {.validate_separators = true});
  check::audit_decomposition(tree);
  const auto labels = oracle::build_labels(tree, 0.5);
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
  const ScopedBudget budget(8);
  EXPECT_THROW(DecompositionTree(g, BoomFinder()), std::runtime_error);
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
  const ScopedBudget budget(8);
  EXPECT_THROW(DecompositionTree(g, UnbalancedFinder()), std::runtime_error);
  EXPECT_THROW(DecompositionTree(g, UnbalancedFinder(),
                                 {.validate_separators = true}),
               std::runtime_error);
}

// ------------------------------------------------------------- parallel_for
// Budget 8 (seven workers) keeps these on the pool path on any host.

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const ScopedBudget budget(8);
  constexpr std::size_t kCount = 50000;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  const ScopedBudget budget(8);
  EXPECT_THROW(util::parallel_for(1000,
                                  [](std::size_t i) {
                                    if (i == 500)
                                      throw std::runtime_error("kaboom");
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  const ScopedBudget budget(8);
  std::vector<std::atomic<int>> hits(64 * 64);
  util::parallel_for(64, [&](std::size_t outer) {
    util::parallel_for(
        64, [&](std::size_t inner) { hits[outer * 64 + inner]++; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, BudgetBoundsNestedConcurrency) {
  // N = 2 means two cores: however the loops nest, no more than two threads
  // may run the body at once (the pool holds one worker, the caller is the
  // second participant).
  const ScopedBudget budget(2);
  std::atomic<int> live{0};
  std::atomic<int> high_water{0};
  util::parallel_for(8, [&](std::size_t) {
    util::parallel_for(64, [&](std::size_t) {
      const int now = live.fetch_add(1) + 1;
      int seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      live.fetch_sub(1);
    });
  });
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), 2);
}

TEST(ParallelFor, WaiterNeverRunsForeignTasks) {
  // A loop whose chunks are all claimed waits only for its own running
  // helpers. A foreign task queued before it must stay in the queue for a
  // worker: run on the waiter, it would hold the loop's continuation.
  const ScopedBudget budget(2);
  util::ThreadPool& pool = util::shared_pool();
  std::atomic<bool> release{false};
  pool.submit([&] {  // occupies the only worker (bounded, never hangs)
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  std::thread::id foreign_ran_on;
  pool.submit([&] { foreign_ran_on = std::this_thread::get_id(); });
  std::atomic<int> ran{0};
  util::parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  release = true;
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_NE(foreign_ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ParallelFor, GrainOneCoversEveryIndexExactlyOnce) {
  // grain=1 is the label build's node-scheduling mode (one huge root next to
  // hundreds of leaves): every index is its own chunk.
  const ScopedBudget budget(8);
  constexpr std::size_t kCount = 3000;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/1);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RunsInsidePoolWorkerWithoutDeadlock) {
  // A loop started from inside a pool task (as compute_connections runs
  // inside a node task) must finish whether or not other workers are free.
  const ScopedBudget budget(8);
  std::vector<std::atomic<int>> hits(512);
  std::atomic<bool> done{false};
  util::shared_pool().submit([&] {
    util::parallel_for(hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    done = true;
  });
  util::shared_pool().wait_idle();
  EXPECT_TRUE(done.load());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountAndSerialFallbackWork) {
  util::parallel_for(0, [](std::size_t) { FAIL(); });
  const ScopedBudget budget(1);
  std::vector<std::thread::id> ran_on;
  util::parallel_for(10, [&](std::size_t) {
    ran_on.push_back(std::this_thread::get_id());
  });
  // Budget 1 runs inline on the caller, no pool involved.
  EXPECT_EQ(ran_on.size(), 10u);
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

// -------------------------------------------------------------- shared pool

TEST(SharedPool, IsASingletonWithWorkers) {
  util::ThreadPool& a = util::shared_pool();
  util::ThreadPool& b = util::shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_threads(), util::threads() - 1);  // the caller is the N-th
  {
    const ScopedBudget budget(3);
    EXPECT_EQ(util::shared_pool().num_threads(), 2u);
  }
  {
    const ScopedBudget budget(1);
    EXPECT_EQ(util::shared_pool().num_threads(), 0u);
  }
}

TEST(DefaultThreads, ReadsPathsepThreadsEnv) {
  const char* old = std::getenv("PATHSEP_THREADS");
  const std::string saved = old ? old : "";
  setenv("PATHSEP_THREADS", "3", 1);
  EXPECT_EQ(util::default_threads(), 3u);
  setenv("PATHSEP_THREADS", "1024", 1);
  EXPECT_EQ(util::default_threads(), util::kMaxThreads);
  unsetenv("PATHSEP_THREADS");
  EXPECT_GE(util::default_threads(), 1u);
  EXPECT_LE(util::default_threads(), util::kMaxThreads);
  EXPECT_THROW(util::set_threads(0), std::invalid_argument);
  EXPECT_THROW(util::set_threads(util::kMaxThreads + 1),
               std::invalid_argument);
  if (old) setenv("PATHSEP_THREADS", saved.c_str(), 1);
}

TEST(DefaultThreads, HonorsPathsepThreadsEnv) {
  // A value that is not a thread count in [1, kMaxThreads] is an error
  // naming the variable, never a silent fallback to the hardware default.
  const char* old = std::getenv("PATHSEP_THREADS");
  const std::string saved = old ? old : "";
  setenv("PATHSEP_THREADS", "3", 1);
  EXPECT_EQ(util::default_threads(), 3u);
  for (const char* bad :
       {"0", "garbage", "3x", "", " 3", "-2", "+3", "1025", "100000",
        "99999999999999999999999"}) {
    setenv("PATHSEP_THREADS", bad, 1);
    try {
      util::default_threads();
      ADD_FAILURE() << "accepted PATHSEP_THREADS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PATHSEP_THREADS"),
                std::string::npos);
    }
  }
  if (old)
    setenv("PATHSEP_THREADS", saved.c_str(), 1);
  else
    unsetenv("PATHSEP_THREADS");
}

}  // namespace
}  // namespace pathsep
