// Named experiment scenarios: the graph classes of the paper's comparison
// tables (Tables 1-2), packaged so that every grid and example instantiates
// identical instances.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/graph/graph.hpp"

namespace dlb::workload {

/// One graph-class column of Tables 1-2.
struct graph_case {
  std::string name;                   ///< e.g. "hypercube(d=7)"
  std::string family;                 ///< "arbitrary", "expander", ...
  std::shared_ptr<const graph> g;
};

/// The four columns of Tables 1-2 at a given size scale:
///  * arbitrary      — ring of cliques (low expansion),
///  * expander       — random 4-regular graph,
///  * hypercube      — dimension chosen so 2^dim ≈ target size,
///  * torus          — 2-dimensional torus.
/// `target_n` is the approximate node count (exact sizes vary per family).
[[nodiscard]] std::vector<graph_case> table_graph_classes(node_id target_n,
                                                          std::uint64_t seed);

/// A single named case; `family` one of the four above.
[[nodiscard]] graph_case make_graph_case(const std::string& family,
                                         node_id target_n,
                                         std::uint64_t seed);

}  // namespace dlb::workload
