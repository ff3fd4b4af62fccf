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

namespace dlb {

struct algorithm1_config {
  /// Which task to pick when the paper says "arbitrary task".
  removal_policy removal = removal_policy::real_first;
  /// Override for w_max; 0 derives it from the initial assignment.
  weight_t wmax_override = 0;
};

/// Each round runs a per-edge step (the deficit and, on the count store, the
/// tokens sent) inside the reference's edge phase, a per-node send step (each
/// node allocates tasks to its positive-deficit edges in ascending edge-id
/// order — only the sender's own pool shrinks, so nodes are independent)
/// inside the reference's node phase, and a receive phase (each node drains
/// its inbound transfer sets, again in ascending edge-id order) — the shared
/// `sharded_stepper` protocol.
/// `enable_sharded_stepping` runs the phases over a shard plan with results
/// bit-identical to the sequential round (the pool push/pop order per node
/// is preserved exactly; see core/sharding.hpp). The reference, the ledger,
/// the loads, the counters and the count store live in `flow_imitator`.
///
/// Two stores hold the tasks, and the constructor's input picks one. In the
/// token model every task is an identical unit token, so which one moves
/// cannot be observed: the *count store* keeps per node the dummy tokens
/// beside loads(), and per edge the tokens sent and how many of them were
/// dummies. The *task store* keeps every task's weight and origin
/// (`task_assignment`), for weights above 1 and for locality analyses; both
/// evolve the same loads, flows and counters on unit tokens.
class algorithm1 final : public flow_imitator {
 public:
  /// Count store: `process` is a *fresh* continuous process (reset to the
  /// load vector and stepped internally); `tokens[i]` unit tasks start on
  /// node i, plus `dummy_preload[i]` dummy tokens (the Theorem 3(1) device;
  /// empty for none), which count toward loads() but not real_loads().
  algorithm1(std::unique_ptr<linear_process> process,
             std::vector<weight_t> tokens, algorithm1_config config = {},
             const std::vector<weight_t>& dummy_preload = {});

  /// Task store: the process is reset to the total-weight load vector of
  /// `initial`, whose pools tasks() then exposes.
  algorithm1(std::unique_ptr<linear_process> process, task_assignment initial,
             algorithm1_config config = {});

  [[nodiscard]] std::vector<weight_t> real_loads() const override;
  [[nodiscard]] std::string name() const override {
    return "alg1-flow-imitation(" + reference_->name() + ")";
  }

  /// Dynamic arrivals: `count` unit tasks land on node i, mirrored into the
  /// internal continuous process (additivity keeps the imitation valid) as
  /// `count` unit arrivals — one inject_load(i, count) would round x^A_i
  /// differently.
  void inject_tokens(node_id i, weight_t count) override;

  /// Weighted arrival variant: one task of weight `w` (1 on the count
  /// store).
  void inject_task(node_id i, weight_t w);

  /// Departures: up to `count` real unit tasks on node i complete and leave,
  /// mirrored into the continuous process as negative load (additivity works
  /// in both directions, so the imitation stays valid).
  weight_t drain_tokens(node_id i, weight_t count) override;

  /// w_max used by the transfer loop.
  [[nodiscard]] weight_t wmax() const { return wmax_; }

  /// Task pools (read-only view); the task store only.
  [[nodiscard]] const task_assignment& tasks() const {
    DLB_EXPECTS(tasks_ != nullptr);
    return *tasks_;
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

 private:
  /// The real tasks of one edge's transfer set S_ij in flight (task store).
  /// Persistent (vectors keep their capacity across rounds) so that a
  /// million-edge round does not churn the allocator.
  struct pending_transfer {
    std::vector<weight_t> real_weights;
    std::vector<node_id> real_origins;  // parallel to real_weights
  };

  void edge_round(const edge_slice& es) override;
  [[nodiscard]] weight_t node_round(node_id i0, node_id i1) override;
  void receive(node_id i0, node_id i1) override;

  /// The number of unit tokens the task store's transfer loop adds for a
  /// deficit of `amount` (count store).
  [[nodiscard]] weight_t units_sent(real_t amount) const;

  // The send step per store, on one chunk of nodes; each returns the
  // chunk's dummy-token mint count.
  [[nodiscard]] weight_t send_tasks(node_id i0, node_id i1);
  [[nodiscard]] weight_t send_counts(node_id i0, node_id i1);

  std::unique_ptr<task_assignment> tasks_;  // the task store, or null
  algorithm1_config config_;
  weight_t wmax_ = 1;
  // Task store: per-edge ŷ, oriented u→v, and the per-edge real tasks in
  // flight (reused). The count store sends k = units_sent(|ŷ|) straight
  // from its edge step and keeps neither.
  std::vector<real_t> deficit_;
  std::vector<pending_transfer> outbox_;
};

}  // namespace dlb
