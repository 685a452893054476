#include "oracle/path_oracle.hpp"

#include <algorithm>
#include <utility>

namespace pathsep::oracle {

namespace {

std::size_t levels_of(const LabelArena& arena) {
  std::int32_t max_depth = -1;
  for (std::size_t p = 0; p < arena.num_parts(); ++p)
    max_depth = std::max(max_depth, arena.parts[p].depth());
  return static_cast<std::size_t>(max_depth + 1);
}

}  // namespace

PathOracle::PathOracle(const hierarchy::DecompositionTree& tree,
                       double epsilon)
    : epsilon_(epsilon),
      arena_(build_labels(tree, epsilon)),
      num_levels_(levels_of(arena_)) {}

PathOracle::PathOracle(LabelArena arena, double epsilon)
    : epsilon_(epsilon), arena_(std::move(arena)) {
  check_epsilon(epsilon);
  validate_arena(arena_);
  num_levels_ = levels_of(arena_);
}

std::size_t PathOracle::size_in_words() const {
  return 2 * arena_.num_parts() + 3 * arena_.num_connections();
}

std::size_t PathOracle::max_label_words() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v)
    best = std::max(best, label(static_cast<Vertex>(v)).size_in_words());
  return best;
}

double PathOracle::average_label_words() const {
  if (num_vertices() == 0) return 0;
  return static_cast<double>(size_in_words()) /
         static_cast<double>(num_vertices());
}

}  // namespace pathsep::oracle
