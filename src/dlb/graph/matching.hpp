// Matchings: the communication pattern of dimension-exchange balancing.
//
// In the matching model (paper §2.1) each round restricts load transfer to
// the edges of a matching. Two classic schedules exist:
//  * periodic matchings — a fixed set of matchings covering E, used
//    round-robin (Hosseini et al.; built here via edge colouring), and
//  * random matchings  — a fresh random maximal matching each round
//    (Ghosh–Muthukrishnan).
#pragma once

#include <cstdint>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/graph/graph.hpp"

namespace dlb {

/// A matching is a set of edge ids, pairwise non-incident.
using matching = std::vector<edge_id>;

/// True iff `m` is a valid matching of `g` (distinct edges, no shared node).
[[nodiscard]] bool is_matching(const graph& g, const matching& m);

/// Caller-owned buffers of a random-matching draw. A per-round caller keeps
/// one set and passes it to every draw, so only the first draw allocates.
struct matching_scratch {
  std::vector<edge_id> order;  ///< the edge ids in shuffled (scan) order
  std::vector<char> used;      ///< per node: matched in this draw
  matching matched;            ///< the drawn edges, in draw order
  std::vector<char> active;    ///< per edge: 1 iff the edge is in `matched`
};

/// The one random-maximal-matching draw: shuffle the edge ids 0..m-1 with
/// one std::shuffle call under `rng`, then scan them in that order and
/// greedily keep every edge whose endpoints are still free. Overwrites all
/// of `s` (the previous draw's marks included). Maximal (no edge can be
/// added), and every edge is drawn with probability >= 1/(2d).
///
/// The output for a given engine state is a stream contract: changing the
/// shuffle call, the engine or the scan order changes every
/// random-matching row and benchmark digest.
void draw_random_maximal_matching(const graph& g, rng_t& rng,
                                  matching_scratch& s);

/// One draw into fresh buffers; returns the matched edges in draw order.
[[nodiscard]] matching random_maximal_matching(const graph& g, rng_t& rng);

/// Convenience: seeded deterministic variant, used to couple randomized
/// process instances (Definition 3, footnote 6: coupled runs see the same
/// matching sequence).
[[nodiscard]] matching random_maximal_matching(const graph& g,
                                               std::uint64_t seed,
                                               std::uint64_t round);

}  // namespace dlb
