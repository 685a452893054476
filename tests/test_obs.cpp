// The observability layer: metrics registry aggregation (labeled families,
// snapshots), trace span nesting and cross-thread stitching through
// util::ThreadPool, exporter output shape (JSON and Prometheus text), the
// zero-allocation guarantee of the hot recording path, and the OracleReport
// byte accounting against oracle/serialize. Runs under the `obs` CTest label
// in every matrix row, TSan included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "oracle/path_oracle.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "service/snapshot.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// ---- Global allocation counter ---------------------------------------------
// Replacing operator new binary-wide lets the zero-allocation test observe
// the recording path directly instead of trusting implementation comments.
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

// noinline keeps GCC from inlining these into call sites and then warning
// -Wmismatched-new-delete there (it pairs the visible free() with the
// standard operator new it assumes; malloc/free are in fact matched here).
#define OBS_TEST_NOINLINE __attribute__((noinline))

OBS_TEST_NOINLINE void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

OBS_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

OBS_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
OBS_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
OBS_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
OBS_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pathsep::obs {
namespace {

// ------------------------------------------------------------------ Registry

TEST(ObsRegistry, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry registry;
  registry.counter("requests").inc(7);
  registry.gauge("depth").set(-3);
  registry.gauge("depth").add(5);
  registry.histogram("lat").record(1000);
  EXPECT_EQ(registry.counter("requests").value(), 7u);
  EXPECT_EQ(registry.gauge("depth").value(), 2);
  EXPECT_EQ(registry.histogram("lat").count(), 1u);
  // Same (name, labels) resolves to the same instance.
  EXPECT_EQ(&registry.counter("requests"), &registry.counter("requests"));
}

TEST(ObsRegistry, LabeledFamiliesAreDistinctInstances) {
  MetricsRegistry registry;
  Counter& planar = registry.counter("dispatch", {{"strategy", "planar"}});
  Counter& tree = registry.counter("dispatch", {{"strategy", "tree"}});
  Counter& plain = registry.counter("dispatch");
  EXPECT_NE(&planar, &tree);
  EXPECT_NE(&planar, &plain);
  planar.inc(2);
  tree.inc(5);
  EXPECT_EQ(registry.counter("dispatch", {{"strategy", "planar"}}).value(), 2u);
  EXPECT_EQ(registry.counter("dispatch", {{"strategy", "tree"}}).value(), 5u);
  EXPECT_EQ(plain.value(), 0u);
}

TEST(ObsRegistry, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  Counter& ab = registry.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("zeta").inc();
  registry.counter("alpha").inc(4);
  registry.gauge("mid").set(9);
  registry.histogram("alpha_ns").record(100);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].name, snap[i].name);
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const MetricSample& s : snap) {
    if (s.name == "alpha") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      EXPECT_EQ(s.counter_value, 4u);
    }
    if (s.name == "mid") {
      saw_gauge = true;
      EXPECT_EQ(s.gauge_value, 9);
    }
    if (s.name == "alpha_ns") {
      saw_hist = true;
      EXPECT_EQ(s.histogram.count, 1u);
      EXPECT_EQ(s.histogram.sum_nanos, 100u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(ObsRegistry, ConcurrentRecordingAggregatesExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("ops");
  LatencyHistogram& hist = registry.histogram("ops_ns");
  util::ThreadPool pool(4);
  for (int t = 0; t < 8; ++t)
    pool.submit([&counter, &hist] {
      for (int i = 0; i < 5000; ++i) {
        counter.inc();
        hist.record(static_cast<std::uint64_t>(i));
      }
    });
  pool.wait_idle();
  EXPECT_EQ(counter.value(), 40000u);
  EXPECT_EQ(hist.count(), 40000u);
}

// --------------------------------------------------------------------- Trace

TEST(ObsTrace, NestedSpansRecordParentChain) {
  drain_spans();  // discard spans from earlier tests
  set_trace_enabled(true);
  {
    ScopedSpan outer("outer");
    const std::uint64_t outer_id = current_span();
    EXPECT_NE(outer_id, 0u);
    {
      ScopedSpan inner("inner");
      EXPECT_NE(current_span(), outer_id);
    }
    EXPECT_EQ(current_span(), outer_id);
  }
  set_trace_enabled(false);
  EXPECT_EQ(current_span(), 0u);

  const TraceTree tree = stitch_spans(drain_spans());
  ASSERT_EQ(tree.nodes.size(), 2u);
  ASSERT_EQ(tree.roots.size(), 1u);
  const TraceNode& root = tree.nodes[tree.roots[0]];
  EXPECT_STREQ(root.span.name, "outer");
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_STREQ(tree.nodes[root.children[0]].span.name, "inner");
  EXPECT_LE(root.span.start_ns, tree.nodes[root.children[0]].span.start_ns);
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  drain_spans();
  set_trace_enabled(false);
  {
    ScopedSpan span("invisible");
  }
  EXPECT_TRUE(drain_spans().empty());
}

TEST(ObsTrace, SpansStitchAcrossPoolWorkers) {
  drain_spans();
  set_trace_enabled(true);
  {
    ScopedSpan root("build");
    const std::uint64_t root_id = current_span();
    util::ThreadPool pool(3);
    for (int i = 0; i < 12; ++i)
      pool.submit([root_id] {
        SpanParentGuard guard(root_id);
        ScopedSpan task("task");
        ScopedSpan step("step");  // nested under task on the worker
      });
    pool.wait_idle();
  }
  set_trace_enabled(false);

  // Pool workers are still alive — drain must see their buffers too.
  const TraceTree tree = stitch_spans(drain_spans());
  ASSERT_EQ(tree.roots.size(), 1u);
  const TraceNode& root = tree.nodes[tree.roots[0]];
  EXPECT_STREQ(root.span.name, "build");
  ASSERT_EQ(root.children.size(), 12u);
  for (const std::size_t child : root.children) {
    EXPECT_STREQ(tree.nodes[child].span.name, "task");
    ASSERT_EQ(tree.nodes[child].children.size(), 1u);
    EXPECT_STREQ(
        tree.nodes[tree.nodes[child].children[0]].span.name, "step");
  }
  const std::string rendered = format_trace(tree);
  EXPECT_NE(rendered.find("build"), std::string::npos);
  EXPECT_NE(rendered.find("  task"), std::string::npos);
}

TEST(ObsTrace, UnknownParentSurfacesAsRoot) {
  std::vector<SpanRecord> records;
  records.push_back({"orphan", 42, 7, 10, 20, 0});  // parent 7 never recorded
  records.push_back({"child", 43, 42, 12, 18, 0});
  const TraceTree tree = stitch_spans(std::move(records));
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_STREQ(tree.nodes[tree.roots[0]].span.name, "orphan");
  ASSERT_EQ(tree.nodes[tree.roots[0]].children.size(), 1u);
}

// ---- Zero-allocation hot path ----------------------------------------------

TEST(ObsHotPath, RecordingAllocatesNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hot_ops");         // resolve up front
  LatencyHistogram& hist = registry.histogram("hot_ns");  // (the cold half)
  Gauge& gauge = registry.gauge("hot_depth");

  set_trace_enabled(true);
  {
    ScopedSpan warmup("warmup");  // faults in this thread's span buffer
  }
  drain_spans();  // empty the buffer so the loop below cannot overflow it

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter.inc();
    hist.record(static_cast<std::uint64_t>(i));
    gauge.set(i);
    ScopedSpan span("hot");
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  set_trace_enabled(false);
  drain_spans();
  EXPECT_EQ(after, before)
      << "recording allocated " << (after - before) << " times";
}

// ----------------------------------------------------------------- Exporters

MetricsSnapshot exporter_fixture() {
  MetricsRegistry registry;
  registry.counter("reqs_total").inc(5);
  registry.counter("dispatch_total", {{"strategy", "planar"}}).inc(2);
  registry.gauge("live").set(-4);
  registry.histogram("lat_ns").record(100);
  registry.histogram("lat_ns").record(200000);
  return registry.snapshot();
}

/// Minimal structural JSON check: quotes and braces/brackets balance outside
/// strings. Catches truncated or mis-nested output without a JSON library.
bool json_shape_ok(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ObsExport, JsonHasSectionsValuesAndBalancedShape) {
  const std::string json = metrics_to_json(exporter_fixture());
  EXPECT_TRUE(json_shape_ok(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"reqs_total\", \"labels\": {}, "
                      "\"value\": 5"),
            std::string::npos);
  EXPECT_NE(json.find("\"strategy\": \"planar\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\": 200100"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
}

TEST(ObsExport, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsExport, PrometheusShapeTypesAndCumulativeBuckets) {
  const std::string prom = metrics_to_prometheus(exporter_fixture());
  EXPECT_NE(prom.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(prom.find("reqs_total 5"), std::string::npos);
  EXPECT_NE(prom.find("dispatch_total{strategy=\"planar\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE live gauge"), std::string::npos);
  EXPECT_NE(prom.find("live -4"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lat_ns histogram"), std::string::npos);
  // 100 ns lands in [64,128): its first cumulative bucket boundary is 128.
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"128\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_sum 200100"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_count 2"), std::string::npos);
  // Every non-comment line is "name{labels} value" or "name value".
  std::size_t pos = 0;
  while (pos < prom.size()) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    pos = eol == std::string::npos ? prom.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
  }
}

// -------------------------------------------------------------- OracleReport

TEST(ObsReport, ByteAttributionMatchesSerializeExactly) {
  util::Rng rng(11);
  const auto gg = graph::random_apollonian(160, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  const oracle::PathOracle oracle(tree, 0.3);

  const OracleReport report = oracle_report(oracle, tree);
  EXPECT_EQ(report.num_vertices, oracle.num_vertices());
  EXPECT_EQ(report.height, tree.height());
  ASSERT_EQ(report.levels.size(), tree.height());

  // The acceptance criterion: per-level totals plus header overhead must
  // reproduce serialize_label() byte counts exactly, not approximately.
  std::size_t actual_bytes = 0;
  for (graph::Vertex v = 0; v < oracle.num_vertices(); ++v)
    actual_bytes += oracle::serialize_label(oracle.label(v)).size();
  std::size_t attributed = report.label_header_bytes;
  for (const LevelReport& level : report.levels)
    attributed += level.serialized_bytes;
  EXPECT_EQ(report.total_serialized_bytes, actual_bytes);
  EXPECT_EQ(attributed, actual_bytes);

  // serialized_bits agrees too (it runs the same encoder).
  std::size_t bits = 0;
  for (graph::Vertex v = 0; v < oracle.num_vertices(); ++v)
    bits += oracle::serialized_bits(oracle.label(v));
  EXPECT_EQ(report.total_serialized_bytes * 8, bits);

  // Tree-shape accounting is consistent with the tree itself.
  std::size_t nodes = 0, parts = 0;
  for (const LevelReport& level : report.levels) {
    nodes += level.nodes;
    parts += level.label_parts;
  }
  EXPECT_EQ(nodes, tree.nodes().size());
  EXPECT_EQ(parts, report.total_parts);
  EXPECT_GT(report.theorem2_label_words_bound, 0.0);
  EXPECT_EQ(report.max_label_words, oracle.max_label_words());

  // Renderings mention the headline numbers.
  const std::string text = format_report(report);
  EXPECT_NE(text.find("Theorem 2"), std::string::npos);
  const std::string json = report_to_json(report);
  EXPECT_TRUE(json_shape_ok(json)) << json;
  EXPECT_NE(json.find("\"total_serialized_bytes\""), std::string::npos);
}

// ---- Instrumentation call sites --------------------------------------------

TEST(ObsInstrumentation, ConstructionRecordsPipelineCounters) {
  const std::uint64_t runs_before =
      default_registry().counter("sssp_dijkstra_runs_total").value();
  const std::uint64_t nodes_before =
      default_registry().counter("hierarchy_build_nodes_total").value();

  const graph::GridGraph gg = graph::grid(12, 12);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(12, 12));
  const oracle::PathOracle oracle(tree, 0.5);
  ASSERT_EQ(oracle.num_vertices(), 144u);

  EXPECT_GT(default_registry().counter("hierarchy_build_nodes_total").value(),
            nodes_before);
  EXPECT_GT(default_registry().counter("sssp_dijkstra_runs_total").value(),
            runs_before);
  EXPECT_GT(
      default_registry().counter("oracle_portal_dijkstras_total").value(), 0u);
  EXPECT_GT(
      default_registry().histogram("oracle_connections_ns").count(), 0u);
}

TEST(ObsInstrumentation, BuildCountsGeneratedAndKeptConnections) {
  Counter& generated =
      default_registry().counter("oracle_connections_generated_total");
  Counter& kept = default_registry().counter("oracle_connections_kept_total");
  const std::uint64_t generated_before = generated.value();
  const std::uint64_t kept_before = kept.value();

  const graph::GridGraph gg = graph::grid(20, 20);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(20, 20));
  const oracle::LabelArena labels = oracle::build_labels(tree, 0.25);

  const std::uint64_t generated_delta = generated.value() - generated_before;
  const std::uint64_t kept_delta = kept.value() - kept_before;
  EXPECT_EQ(kept_delta, labels.num_connections());
  EXPECT_LE(kept_delta, generated_delta);
  // Unit grids are where the ε-ladder rungs are dominated by the anchor.
  EXPECT_LT(kept_delta, generated_delta);
}

TEST(ObsInstrumentation, SnapshotSaveAndLoadRecordLayerTimers) {
  // save_ms and load_ms split into these four stages in --statsz output.
  const char* const stages[] = {"snapshot_encode_ns", "snapshot_checksum_ns",
                                "snapshot_validate_ns", "snapshot_io_ns"};
  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const char* stage : stages)
      out.push_back(default_registry().histogram(stage).count());
    return out;
  };
  const graph::GridGraph gg = graph::grid(8, 8);
  const hierarchy::DecompositionTree tree(gg.graph,
                                          separator::GridLineSeparator(8, 8));
  const std::string path = ::testing::TempDir() + "pathsep_obs.snapshot";

  const std::vector<std::uint64_t> before = counts();
  service::save_snapshot(oracle::PathOracle(tree, 0.5), path);
  const std::vector<std::uint64_t> after_save = counts();
  (void)service::load_snapshot(path);
  const std::vector<std::uint64_t> after_load = counts();
  std::remove(path.c_str());
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    EXPECT_GT(after_save[i], before[i]) << stages[i] << " (save)";
    // Loading reads straight into the arena: it has no encode stage.
    if (i != 0) {
      EXPECT_GT(after_load[i], after_save[i]) << stages[i] << " (load)";
    }
  }
}

TEST(ObsInstrumentation, BuildTraceStitchesUnderOneRoot) {
  drain_spans();
  set_trace_enabled(true);
  const graph::GridGraph gg = graph::grid(10, 10);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(10, 10));
  set_trace_enabled(false);

  const TraceTree stitched = stitch_spans(drain_spans());
  ASSERT_FALSE(stitched.nodes.empty());
  // Every span of the parallel build stitches under the single
  // hierarchy.build root — no orphans from pool workers.
  ASSERT_EQ(stitched.roots.size(), 1u);
  EXPECT_STREQ(stitched.nodes[stitched.roots[0]].span.name,
               "hierarchy.build");
  std::size_t finds = 0;
  for (const TraceNode& node : stitched.nodes)
    if (std::string(node.span.name) == "hierarchy.separator_find") ++finds;
  EXPECT_EQ(finds, tree.nodes().size());
}

TEST(ObsInstrumentation, DijkstraWorkStatsAccumulatePerWorkspace) {
  sssp::DijkstraWorkspace ws;
  const graph::Graph g = graph::path_graph(64);
  sssp::dijkstra(g, 0, ws);
  const sssp::DijkstraWorkspace::WorkStats& work = ws.work();
  EXPECT_EQ(work.runs, 1u);
  EXPECT_EQ(work.settled, 64u);
  EXPECT_EQ(work.relaxed, 63u);
  EXPECT_GE(work.heap_pushes, 64u);
  EXPECT_EQ(work.heap_pops, work.heap_pushes);
  sssp::dijkstra(g, 63, ws);
  EXPECT_EQ(ws.work().runs, 2u);
  ws.reset_work();
  EXPECT_EQ(ws.work().runs, 0u);
}

}  // namespace
}  // namespace pathsep::obs
