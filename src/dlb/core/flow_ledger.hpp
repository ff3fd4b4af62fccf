// Cumulative per-edge flow bookkeeping f^D_{i,j}(t) of a discrete process
// (paper §3).
//
// Flows are antisymmetric: f_{i,j}(t) = -f_{j,i}(t). We store one signed
// integer per edge, positive in the u→v direction of the normalized
// endpoints. (The continuous reference keeps its real f^A inside
// linear_process.)
#pragma once

#include <utility>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/common/types.hpp"
#include "dlb/graph/graph.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

class discrete_flow_ledger {
 public:
  /// All flows start at zero (f_{i,j}(-1) = 0).
  explicit discrete_flow_ledger(const graph& g)
      : g_(&g), flow_(static_cast<size_t>(g.num_edges()), 0) {}

  /// f oriented u→v (positive means net u→v transfer so far).
  [[nodiscard]] weight_t forward(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < g_->num_edges());
    return flow_[static_cast<size_t>(e)];
  }

  /// f_{from,·}(t) over edge e: +forward if `from` is u, else -forward.
  [[nodiscard]] weight_t from(edge_id e, node_id from_node) const {
    const edge& ed = g_->endpoints(e);
    DLB_EXPECTS(ed.u == from_node || ed.v == from_node);
    return ed.u == from_node ? forward(e) : -forward(e);
  }

  /// Records a transfer of `amount` >= 0 from `from_node` over edge e.
  void record(edge_id e, node_id from_node, weight_t amount) {
    DLB_EXPECTS(amount >= 0);
    const edge& ed = g_->endpoints(e);
    DLB_EXPECTS(ed.u == from_node || ed.v == from_node);
    if (ed.u == from_node) {
      flow_[static_cast<size_t>(e)] += amount;
    } else {
      flow_[static_cast<size_t>(e)] -= amount;
    }
  }

  /// Checkpointing: the per-edge cumulative flows, exactly.
  void save_state(snapshot::writer& w) const {
    w.section("ledger");
    w.vec_int(flow_);
  }

  void restore_state(snapshot::reader& r) {
    r.expect_section("ledger");
    std::vector<weight_t> flow = r.vec_int<weight_t>();
    DLB_EXPECTS(static_cast<edge_id>(flow.size()) == g_->num_edges());
    flow_ = std::move(flow);
  }

 private:
  const graph* g_;
  std::vector<weight_t> flow_;
};

}  // namespace dlb
