// E2 — Theorem 2: the (1+ε)-approximate distance oracle.
//
// Reports, per family / n / ε: total space in words against the
// O(k/ε · n log n) claim (shown as words per n·log2(n)), query time, the
// number of connections scanned per query against O(k/ε · log n), the
// merge walk's steps (part-header pairs compared) per query, and the
// observed stretch (must stay within [1, 1+ε]; max over sampled pairs).
#include "common.hpp"

#include "oracle/path_oracle.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"

using namespace pathsep;
using namespace pathsep::bench;

namespace {

void run(util::TableWriter& table, Instance instance, double epsilon,
         std::size_t pairs) {
  const std::size_t n = instance.graph.num_vertices();
  const hierarchy::DecompositionTree tree(instance.graph, *instance.finder);
  util::Timer build_timer;
  const oracle::PathOracle oracle(tree, epsilon);
  const double build_s = build_timer.elapsed_seconds();

  util::Rng rng(9000 + n);
  std::vector<std::pair<Vertex, Vertex>> sampled;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    Vertex v = static_cast<Vertex>(rng.next_below(n));
    while (v == u) v = static_cast<Vertex>(rng.next_below(n));
    sampled.push_back({u, v});
  }
  // Pure query timing first (no Dijkstra in the loop)...
  util::Timer query_timer;
  Weight sink = 0;
  for (const auto& [u, v] : sampled) sink += oracle.query(u, v);
  const double query_us =
      query_timer.elapsed_seconds() * 1e6 / static_cast<double>(pairs);
  util::do_not_optimize(sink);
  // ...then stretch, visited-connection and walk-step accounting.
  util::OnlineStats stretch, visited_stats, step_stats;
  for (const auto& [u, v] : sampled) {
    oracle::QueryStats stats;
    const Weight est = oracle.query_stats(u, v, stats);
    visited_stats.add(static_cast<double>(stats.entries_scanned));
    step_stats.add(static_cast<double>(stats.walk_steps));
    const Weight truth = sssp::distance(instance.graph, u, v);
    if (truth > 0) stretch.add(est / truth);
  }

  const double nlogn =
      static_cast<double>(n) * std::log2(static_cast<double>(n));
  table.add_row({instance.family, util::strf("%zu", n),
                 util::strf("%.2f", epsilon),
                 util::strf("%zu", oracle.size_in_words()),
                 util::strf("%.2f", oracle.size_in_words() / nlogn),
                 util::strf("%.1f", visited_stats.mean()),
                 util::strf("%.2f", step_stats.mean()),
                 util::strf("%.1f", query_us),
                 util::strf("%.4f", stretch.mean()),
                 util::strf("%.4f", stretch.max()),
                 util::strf("%.2f", build_s)});
}

}  // namespace

int main() {
  section("E2", "(1+eps)-approximate distance oracle (Thm 2)");
  util::TableWriter table({"family", "n", "eps", "words", "words/nlog2n",
                           "conns/query", "steps/query", "query_us",
                           "stretch_avg", "stretch_max", "build_s"});

  // epsilon sweep at a fixed size (the 1/eps factor of the space bound).
  for (double eps : {1.0, 0.5, 0.25, 0.1})
    run(table, make_triangulation(2048, 21), eps, 300);

  // n sweep at fixed epsilon (the n log n factor).
  for (std::size_t n : {512u, 2048u, 8192u})
    run(table, make_triangulation(n, 23 + n), 0.25, 300);
  for (std::size_t side : {16u, 32u, 64u, 128u})
    run(table, make_grid(side), 0.25, 300);
  for (std::size_t n : {512u, 2048u, 8192u})
    run(table, make_ktree(n, 3, 29 + n), 0.25, 300);
  for (std::size_t n : {1024u, 8192u}) run(table, make_tree(n, 31 + n), 0.25, 300);
  for (std::size_t side : {24u, 48u}) run(table, make_road(side, 37), 0.25, 300);

  table.print(std::cout);
  std::printf(
      "\npaper: space O(k/eps * n log n) words, query O(k/eps * log n),\n"
      "stretch <= 1+eps. words/nlog2n should be ~flat per family+eps;\n"
      "stretch_max must never exceed 1+eps.\n");
  return 0;
}
