#include "flow/cutter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/audit_flow.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pathsep::flow {

bool ParetoFront::offer(CutCandidate c) {
  const std::size_t cut = c.cut.size();
  const std::size_t side = c.max_side();
  // Invariant: cuts_ ascends in cut size and strictly descends in max side,
  // so the last candidate with cut size <= `cut` has the smallest max side
  // among them — it alone decides weak domination of the offer.
  auto pos = std::upper_bound(
      cuts_.begin(), cuts_.end(), cut,
      [](std::size_t value, const CutCandidate& e) {
        return value < e.cut.size();
      });
  if (pos != cuts_.begin() && std::prev(pos)->max_side() <= side) return false;
  // Evict everything the offer dominates: candidates with cut size >= the
  // offer's (equal sizes included — the survivor of the domination check
  // above has a strictly larger max side) and max side >= `side`.
  auto first = pos;
  while (first != cuts_.begin() && std::prev(first)->cut.size() == cut)
    --first;
  auto last = first;
  while (last != cuts_.end() && last->max_side() >= side) ++last;
  last = cuts_.erase(first, last);
  cuts_.insert(last, std::move(c));
  return true;
}

const CutCandidate* ParetoFront::best_within(std::size_t max_side) const {
  // Max side descends along cuts_, so the first admissible candidate has the
  // smallest cut size among admissible ones.
  for (const CutCandidate& c : cuts_)
    if (c.max_side() <= max_side) return &c;
  return nullptr;
}

const CutCandidate* ParetoFront::most_balanced() const {
  return cuts_.empty() ? nullptr : &cuts_.back();
}

namespace {

/// Band growth schedule in per mille of the component. Each step widens both
/// the source band (order front) and the target band (order back); the flow
/// network is reused across steps, so a step pays only its new augmenting
/// paths.
constexpr std::uint32_t kBandSchedule[] = {25,  50,  100, 200, 300,
                                           400, 450, 475, 490};

CutCandidate make_candidate(UnitFlowNetwork::SideCut side_cut,
                            std::size_t num_members,
                            const CutterOptions& options,
                            std::uint32_t permille, bool source_side) {
  CutCandidate c;
  c.side_near = side_cut.side_size;
  c.side_far = num_members - side_cut.side_size - side_cut.cut.size();
  c.cut = std::move(side_cut.cut);
  c.num_members = num_members;
  c.direction = options.direction;
  c.permille = permille;
  c.source_side = source_side;
  return c;
}

}  // namespace

void flow_cutter(const Graph& g, std::span<const Vertex> members,
                 const std::vector<bool>& removed,
                 std::span<const double> scores, const CutterOptions& options,
                 ParetoFront& front) {
  PATHSEP_ASSERT(scores.size() == members.size(),
                 "one score per member required: ", scores.size(), " vs ",
                 members.size());
  const std::size_t m_count = members.size();
  if (m_count < 3) return;  // nothing to separate
  PATHSEP_SPAN("flow_cutter");

  // Band order: member indices by (score, global id) ascending. The id
  // tie-break keeps the order — and everything downstream — deterministic.
  std::vector<std::uint32_t> order(m_count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (scores[a] != scores[b]) return scores[a] < scores[b];
              return members[a] < members[b];
            });

  FlowArena& arena = thread_arena();
  const FlowArena::WorkStats work_before = arena.work();
  UnitFlowNetwork net(g, members, removed, arena);

  const std::size_t flow_budget =
      options.max_cut != 0
          ? options.max_cut
          : std::max<std::size_t>(
                64, 4 * static_cast<std::size_t>(
                        std::sqrt(static_cast<double>(m_count))));
  const auto balance_goal = static_cast<std::size_t>(
      (0.5 + options.balance_eps) * static_cast<double>(m_count));

  std::size_t source_band = 0;  // first source_band entries of order are S
  std::size_t target_band = 0;  // last target_band entries are T
  for (const std::uint32_t permille : kBandSchedule) {
    const auto goal = std::max<std::size_t>(
        1, m_count * permille / 1000);
    if (2 * goal >= m_count) break;  // bands would meet
    // Grow the bands symmetrically, skipping vertices that would glue the
    // terminal sets together (adjacency to the opposite side would create an
    // infinite-bottleneck path).
    while (source_band < goal) {
      const Vertex v = members[order[source_band]];
      ++source_band;
      if (net.is_target(v) || net.touches_opposite(v, /*source=*/true))
        continue;
      net.make_source(v);
    }
    while (target_band < goal) {
      const Vertex v = members[order[m_count - 1 - target_band]];
      ++target_band;
      if (net.is_source(v) || net.touches_opposite(v, /*source=*/false))
        continue;
      net.make_target(v);
    }
    if (net.num_sources() == 0 || net.num_targets() == 0) continue;

    const AugmentStatus status = net.augment_to_max(flow_budget);
    if (status != AugmentStatus::kMaxFlow) break;  // too expensive or glued

    UnitFlowNetwork::SideCut source_cut = net.source_side_cut();
    UnitFlowNetwork::SideCut target_cut = net.target_side_cut();
    PATHSEP_AUDIT(check::audit_flow_cut(net, source_cut, /*source_side=*/true));
    PATHSEP_AUDIT(
        check::audit_flow_cut(net, target_cut, /*source_side=*/false));

    bool balanced = false;
    for (const bool source_side : {true, false}) {
      CutCandidate c = make_candidate(
          std::move(source_side ? source_cut : target_cut), m_count, options,
          permille, source_side);
      if (c.cut.empty()) continue;  // degenerate: a side swallowed everything
      balanced = balanced || c.max_side() <= balance_goal;
      front.offer(std::move(c));
    }
    if (balanced) break;  // growing further only raises the cut size
  }

  const FlowArena::WorkStats& work = arena.work();
  obs::default_registry().counter("flow_networks_total").inc();
  obs::default_registry()
      .counter("flow_augmentations_total")
      .inc(work.augmentations - work_before.augmentations);
  obs::default_registry()
      .counter("flow_bfs_phases_total")
      .inc(work.bfs_phases - work_before.bfs_phases);
}

}  // namespace pathsep::flow
