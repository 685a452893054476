// Small-worldization demo (§4, Theorem 3): augment a grid with one
// long-range contact per vertex drawn from the paper's landmark
// distribution, then watch greedy routing drop from Theta(sqrt n) hops to
// polylog. Compares against Kleinberg's r^-2 augmentation.
//
//   ./smallworld_demo [--side=64] [--pairs=150] [--seed=5]
#include <cmath>
#include <cstdio>
#include <exception>

#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "smallworld/augmentation.hpp"
#include "smallworld/greedy_router.hpp"
#include "smallworld/kleinberg.hpp"
#include "util/args.hpp"

using namespace pathsep;

namespace {

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  const auto side = static_cast<std::size_t>(args.get_int("side", 64, 2, 1024));
  const auto pairs =
      static_cast<std::size_t>(args.get_int("pairs", 150, 0, 1 << 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  args.reject_unused("smallworld_demo");

  const graph::GridGraph gg = graph::grid(side, side);
  const std::size_t n = side * side;
  std::printf("grid: %zux%zu (%zu vertices), diameter %zu\n", side, side, n,
              2 * (side - 1));

  // Baseline 1: no long-range edges.
  util::Rng eval0(seed);
  const auto plain = smallworld::evaluate_greedy(gg.graph, {}, pairs, eval0);

  // Baseline 2: Kleinberg's harmonic augmentation.
  util::Rng krng(seed + 1);
  const auto kleinberg = smallworld::kleinberg_contacts(gg, krng);
  util::Rng eval1(seed);
  const auto kl =
      smallworld::evaluate_greedy(gg.graph, kleinberg, pairs, eval1);

  // The paper's augmentation: decomposition tree + Claim 1 landmarks.
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(side, side));
  const smallworld::PathSeparatorAugmentation augmentation(
      tree, static_cast<double>(2 * (side - 1)));
  util::Rng arng(seed + 2);
  const auto contacts = augmentation.sample_all(arng);
  util::Rng eval2(seed);
  const auto ours =
      smallworld::evaluate_greedy(gg.graph, contacts, pairs, eval2);

  const double log2n = std::log2(static_cast<double>(n));
  std::printf("\n%-28s %12s %14s\n", "augmentation", "greedy hops",
              "hops/log2^2(n)");
  std::printf("%-28s %12.1f %14.2f\n", "none (grid only)", plain.hops.mean(),
              plain.hops.mean() / (log2n * log2n));
  std::printf("%-28s %12.1f %14.2f\n", "kleinberg r^-2", kl.hops.mean(),
              kl.hops.mean() / (log2n * log2n));
  std::printf("%-28s %12.1f %14.2f\n", "path-separator landmarks (§4)",
              ours.hops.mean(), ours.hops.mean() / (log2n * log2n));
  std::printf(
      "\npaper: expected O(k^2 log^2 n log^2 Delta) hops — on an unweighted\n"
      "grid k = 1 and the hops/log2^2(n) column is the relevant constant.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
