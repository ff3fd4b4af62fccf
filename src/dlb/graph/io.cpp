#include "dlb/graph/io.hpp"

#include <istream>
#include <ostream>

#include "dlb/common/contracts.hpp"

namespace dlb {

void write_edge_list(std::ostream& os, const graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    const edge& ed = g.endpoints(e);
    os << ed.u << ' ' << ed.v << '\n';
  }
}

graph read_edge_list(std::istream& is) {
  node_id n = 0;
  edge_id m = 0;
  if (!(is >> n >> m)) {
    throw contract_violation("read_edge_list: missing or malformed header");
  }
  if (n <= 0 || m < 0) {
    throw contract_violation("read_edge_list: invalid node/edge counts");
  }
  // No reserve: m is an unvalidated header field, and a huge one must fail
  // as a truncated body below, not as an allocation.
  std::vector<edge> edges;
  for (edge_id e = 0; e < m; ++e) {
    node_id u = 0, v = 0;
    if (!(is >> u >> v)) {
      throw contract_violation("read_edge_list: truncated edge list");
    }
    edges.push_back({u, v});
  }
  // graph's constructor validates ranges, self-loops, and duplicates.
  return graph(n, std::move(edges));
}

void write_dot(std::ostream& os, const graph& g,
               const std::vector<std::string>& labels) {
  DLB_EXPECTS(labels.empty() ||
              static_cast<node_id>(labels.size()) == g.num_nodes());
  os << "graph dlb {\n";
  if (!labels.empty()) {
    for (node_id i = 0; i < g.num_nodes(); ++i) {
      os << "  " << i << " [label=\"" << labels[static_cast<size_t>(i)]
         << "\"];\n";
    }
  }
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    const edge& ed = g.endpoints(e);
    os << "  " << ed.u << " -- " << ed.v << ";\n";
  }
  os << "}\n";
}

}  // namespace dlb
