#include "dlb/graph/matching.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

namespace dlb {

bool is_matching(const graph& g, const matching& m) {
  std::vector<char> used(static_cast<size_t>(g.num_nodes()), 0);
  for (const edge_id e : m) {
    if (e < 0 || e >= g.num_edges()) return false;
    const edge& ed = g.endpoints(e);
    if (used[static_cast<size_t>(ed.u)] || used[static_cast<size_t>(ed.v)]) {
      return false;
    }
    used[static_cast<size_t>(ed.u)] = 1;
    used[static_cast<size_t>(ed.v)] = 1;
  }
  return true;
}

namespace {

// How far ahead of the scan position the greedy loop prefetches an edge's
// endpoints. The shuffled order makes every endpoint read a random access
// into the m-entry edge array, so without the prefetch the scan waits on
// one cache miss per edge. The prefetch only moves data; it decides nothing.
constexpr std::size_t scan_prefetch_distance = 32;

}  // namespace

void draw_random_maximal_matching(const graph& g, rng_t& rng,
                                  matching_scratch& s) {
  const auto m = static_cast<std::size_t>(g.num_edges());
  s.order.resize(m);
  std::iota(s.order.begin(), s.order.end(), 0);
  std::shuffle(s.order.begin(), s.order.end(), rng);
  s.used.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  s.active.assign(m, 0);
  s.matched.clear();
  const edge* ends = g.edges().data();
  const edge_id* order = s.order.data();
  for (std::size_t i = 0; i < m; ++i) {
    if (i + scan_prefetch_distance < m) {
      __builtin_prefetch(
          ends + static_cast<std::size_t>(order[i + scan_prefetch_distance]));
    }
    const edge_id e = order[i];
    const edge& ed = ends[static_cast<std::size_t>(e)];
    char& used_u = s.used[static_cast<std::size_t>(ed.u)];
    char& used_v = s.used[static_cast<std::size_t>(ed.v)];
    if (used_u == 0 && used_v == 0) {
      used_u = 1;
      used_v = 1;
      s.active[static_cast<std::size_t>(e)] = 1;
      s.matched.push_back(e);
    }
  }
}

matching random_maximal_matching(const graph& g, rng_t& rng) {
  matching_scratch s;
  draw_random_maximal_matching(g, rng, s);
  return std::move(s.matched);
}

matching random_maximal_matching(const graph& g, std::uint64_t seed,
                                 std::uint64_t round) {
  rng_t rng = make_rng(seed, round);
  return random_maximal_matching(g, rng);
}

}  // namespace dlb
