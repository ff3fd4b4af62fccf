// Graph serialization: a plain edge-list text format and Graphviz DOT export.
//
// Edge-list format (whitespace/newline separated):
//   n m
//   u1 v1
//   ...
//   um vm
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/graph/graph.hpp"

namespace dlb {

/// Writes `g` in edge-list format.
void write_edge_list(std::ostream& os, const graph& g);

/// Parses a graph from edge-list format; throws contract_violation on
/// malformed input (bad counts, n > max(1, 2m), out-of-range endpoints,
/// duplicates...).
[[nodiscard]] graph read_edge_list(std::istream& is);

/// Graphviz DOT export. If `labels` is non-empty it must have one entry per
/// node (rendered as the node label; e.g. loads).
void write_dot(std::ostream& os, const graph& g,
               const std::vector<std::string>& labels = {});

}  // namespace dlb
