// Algorithm 1 of the paper: deterministic flow imitation.
//
// D(A) tracks the cumulative flow f^A_{i,j}(t) of the continuous process A
// (re-simulated internally, exactly as the paper's footnote 1 prescribes) and
// each round tries to make up the flow deficit
//     ŷ_{i,j}(t) = f^A_{i,j}(t) - f^D_{i,j}(t-1)
// by moving whole tasks: it greedily adds tasks to the transfer set S_ij
// while the remaining deficit is at least w_max, drawing unit-weight dummy
// tokens from the node's infinite source when its pool runs dry.
//
// Guarantees (Theorem 3): at the balancing time T^A of A,
//  (1) max-avg discrepancy <= 2·d·w_max + 2, always;
//  (2) max-min discrepancy <= 2·d·w_max + 2 and no dummy is ever created, if
//      the initial load majorizes d·w_max·(s_1,...,s_n) (Lemma 7).
//
// Loop-condition note (documented in DESIGN.md §3): we add tasks while
// `deficit - |S| >= w_max`, i.e. floor semantics, matching the paper's prose
// ("send ⌊f^A - f^D(t-1)⌋") and Observation 4's strict bound |e| < w_max.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dlb/core/flow_imitator.hpp"
#include "dlb/core/tasks.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

struct algorithm1_config {
  /// Which task to pick when the paper says "arbitrary task".
  removal_policy removal = removal_policy::real_first;
  /// Override for w_max; 0 derives it from the initial assignment.
  weight_t wmax_override = 0;
};

/// Each round decomposes into a deficit phase (per edge), a send phase (each
/// node allocates tasks to its positive-deficit edges in ascending edge-id
/// order — only the sender's own pool shrinks, so nodes are independent), and
/// a receive phase (each node drains its inbound transfer sets, again in
/// ascending edge-id order) — the shared `sharded_stepper` protocol.
/// `enable_sharded_stepping` runs the phases over a shard plan with results
/// bit-identical to the sequential round (the pool push/pop order per node
/// is preserved exactly; see core/sharding.hpp). The reference, the ledger,
/// the loads and the counters live in `flow_imitator`.
class algorithm1 final : public flow_imitator,
                         public snapshot::checkpointable {
 public:
  /// `process` is a *fresh* continuous process (it will be reset to the
  /// total-weight load vector of `initial` and stepped internally).
  algorithm1(std::unique_ptr<linear_process> process, task_assignment initial,
             algorithm1_config config = {});

  [[nodiscard]] std::vector<weight_t> real_loads() const override {
    return tasks_.real_loads();
  }
  [[nodiscard]] std::string name() const override {
    return "alg1-flow-imitation(" + reference_->name() + ")";
  }

  /// Dynamic arrivals: `count` unit tasks land on node i, mirrored into the
  /// internal continuous process (additivity keeps the imitation valid).
  void inject_tokens(node_id i, weight_t count) override;

  /// Weighted arrival variant: one task of weight `w`.
  void inject_task(node_id i, weight_t w);

  /// Departures: up to `count` real unit tasks on node i complete and leave,
  /// mirrored into the continuous process as negative load (additivity works
  /// in both directions, so the imitation stays valid).
  weight_t drain_tokens(node_id i, weight_t count) override;

  /// w_max used by the transfer loop.
  [[nodiscard]] weight_t wmax() const { return wmax_; }

  /// Weight sent over edge e in the last round, oriented u→v (signed); used
  /// by tests of Observation 5.
  [[nodiscard]] weight_t last_sent(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < topology().num_edges());
    return last_sent_[static_cast<size_t>(e)];
  }

  /// Task pools (read-only view).
  [[nodiscard]] const task_assignment& tasks() const { return tasks_; }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

  // checkpointable: task pools (in LIFO storage order), ledger, loads,
  // dummy counter, round counter, and the embedded continuous process.
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

 private:
  /// One pending transfer: the task set S_ij in flight over an edge.
  /// Persistent (vectors keep their capacity across rounds) so that a
  /// million-edge round does not churn the allocator.
  struct pending_transfer {
    node_id to = invalid_node;
    std::vector<weight_t> real_weights;
    std::vector<node_id> real_origins;  // parallel to real_weights
    weight_t dummy_count = 0;
    weight_t total = 0;
  };

  weight_t imitate_round() override;

  // One round's phases; ranges are one shard's slice of edges/nodes. The
  // send phase returns the shard's dummy-token mint count.
  void deficit_phase(const edge_slice& es);
  [[nodiscard]] weight_t send_phase(node_id i0, node_id i1);
  void receive_phase(node_id i0, node_id i1);

  task_assignment tasks_;
  algorithm1_config config_;
  weight_t wmax_ = 1;
  std::vector<weight_t> last_sent_;
  std::vector<real_t> deficit_;           // per-edge ŷ, oriented u→v (reused)
  std::vector<pending_transfer> outbox_;  // per-edge transfer sets (reused)
};

}  // namespace dlb
