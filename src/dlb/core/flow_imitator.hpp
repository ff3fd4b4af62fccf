// The flow-imitation base of Algorithms 1 and 2 (paper §3, §4).
//
// A flow imitator D(A) re-simulates the continuous process A from its own
// start, x^A(0) = x^D(0) (paper footnote 1), and each round moves whole
// tasks to make up the deficit ŷ_{i,j}(t) = f^A_{i,j}(t) - f^D_{i,j}(t-1)
// between A's cumulative flow and its own. The two algorithms differ only in
// how they round that deficit and which tokens they send — Algorithm 1
// greedily fills task sets while ŷ - |S| >= w_max, Algorithm 2 flips a
// per-edge coin for ŷ's fractional part — so this base owns everything
// else: the reference, the integer flow ledger f^D, the loads, the round and
// dummy counters, the one function that computes and snaps a deficit, and
// the token-model count store: per node the dummy tokens among loads(), per
// edge the round's transfer (tokens sent, signed u→v, and the dummies among
// them), and the receive phase that delivers it.
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "dlb/core/flow_ledger.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/process.hpp"

namespace dlb {

class flow_imitator : public discrete_process {
 public:
  /// Count store: `reference` is a *fresh* continuous process; node i starts
  /// with `tokens[i]` real and `dummy_preload[i]` dummy tokens (empty =
  /// none), all non-negative, and the reference is reset to their sum.
  flow_imitator(std::unique_ptr<linear_process> reference,
                std::vector<weight_t> tokens,
                const std::vector<weight_t>& dummy_preload);

  /// One round in three phases: the reference's edge phase, which runs
  /// edge_round() on each chunk right after computing its f^A(t); the
  /// reference's node phase, which runs node_round() on each chunk right
  /// after applying its flows; then the receive phase. Sharded when this
  /// process is.
  void step() final;

  [[nodiscard]] const std::vector<weight_t>& loads() const final {
    return loads_;
  }
  [[nodiscard]] const graph& topology() const final {
    return reference_->topology();
  }
  [[nodiscard]] const speed_vector& speeds() const final {
    return reference_->speeds();
  }
  [[nodiscard]] round_t rounds_executed() const final { return t_; }
  [[nodiscard]] weight_t dummy_created() const final {
    return dummy_created_;
  }

  /// Count store: loads() less the dummies.
  [[nodiscard]] std::vector<weight_t> real_loads() const override;
  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

  /// Count store departures: up to `count` real tokens on node i complete
  /// and leave, mirrored into the reference as negative load. The dummies
  /// residing on i stay in circulation.
  weight_t drain_tokens(node_id i, weight_t count) override;

  /// Dummy tokens currently residing on node i (count store).
  [[nodiscard]] weight_t dummies_at(node_id i) const {
    DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
    return dummies_[static_cast<size_t>(i)];
  }

  /// The internally simulated continuous process A (read-only).
  [[nodiscard]] const linear_process& continuous() const {
    return *reference_;
  }
  [[nodiscard]] const linear_process* imitated() const final {
    return reference_.get();
  }

  /// Discrete cumulative flow f^D_{u,v}(t-1), oriented u→v.
  [[nodiscard]] weight_t discrete_flow(edge_id e) const {
    return ledger_.forward(e);
  }

  /// Weight sent over edge e in the last round, oriented u→v (signed); used
  /// by tests of Observation 5.
  [[nodiscard]] weight_t last_sent(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < topology().num_edges());
    return sent_[static_cast<size_t>(e)];
  }

  /// Flow deviation e_{u,v} = f^A - f^D, oriented u→v. Observation 4
  /// bounds it by |e| < w_max for Algorithm 1, Observation 9(3) by
  /// |e| < 1 for Algorithm 2.
  [[nodiscard]] real_t flow_error(edge_id e) const {
    return reference_->cumulative_flow(e) -
           static_cast<real_t>(ledger_.forward(e));
  }

 protected:
  /// Task store: the reference is reset to `initial_loads`, which becomes
  /// loads(); the derived class holds the tasks, dummies included, and
  /// overrides the count store's readers, drain and receive.
  flow_imitator(std::unique_ptr<linear_process> reference,
                std::vector<weight_t> initial_loads);

  /// The round's deficit ŷ_e(t) = f^A(t) - f^D(t-1), oriented u→v, with a
  /// value within flow_epsilon of an integer snapped to it, so float dust in
  /// f^A cannot move a floor or a coin. Read after the reference stepped;
  /// the one place a deficit is snapped. Rounding half away from zero by
  /// hand keeps the sign of zero and, unlike std::round, inlines; near an
  /// integer, where the snap fires, every rounding rule agrees.
  [[nodiscard]] real_t snapped_deficit(edge_id e) const {
    const real_t deficit = flow_error(e);
    const real_t snapped =
        std::copysign(std::floor(std::abs(deficit) + 0.5), deficit);
    return std::abs(deficit - snapped) < flow_epsilon ? snapped : deficit;
  }

  /// Weight node i sends over `inc`'s edge this round (negative: receives).
  /// Endpoints are normalized u < v, so i is the edge's u iff the neighbour
  /// is larger; the sign flips through a mask, not a branch, since which
  /// end of its edges a node is follows no pattern a predictor learns.
  [[nodiscard]] weight_t sent_by(node_id i, const incidence& inc) const {
    const weight_t sent = sent_[static_cast<size_t>(inc.edge)];
    const weight_t flip = -static_cast<weight_t>(inc.neighbor < i);
    return (sent ^ flip) - flip;
  }

  /// Records this round's send over edge e, `sent` weight oriented u→v,
  /// and adds it to the ledger's f^D. The sender writes the dummies among
  /// it into sent_dummies_ in node_round().
  void record_send(edge_id e, weight_t sent) {
    sent_[static_cast<size_t>(e)] = sent;
    ledger_.add(e, sent);
  }

  /// The receive phase step() runs after node_round(), on one node range.
  /// On the count store each node adds the tokens sent to it this round and
  /// the dummies among them; a store that holds tasks overrides it.
  virtual void receive(node_id i0, node_id i1);

  // The reference steps on the same shards and reports to the same cell.
  void on_sharding_enabled(
      const std::shared_ptr<const shard_context>& ctx) override;
  void on_probe_attached(const obs::probe& pb) override;

  std::unique_ptr<linear_process> reference_;
  discrete_flow_ledger ledger_;
  std::vector<weight_t> loads_;    // per node, dummies included
  std::vector<weight_t> dummies_;  // count store: dummy tokens per node
  std::vector<weight_t> sent_;     // per edge: this round's send, u→v
  // Per edge: the dummies among this round's send. Read only on edges that
  // send this round.
  std::vector<weight_t> sent_dummies_;
  weight_t dummy_created_ = 0;
  round_t t_ = 0;

 private:
  /// The algorithm's per-edge work of one round, run as the reference's edge
  /// tail: each edge of `es`, whose f^A(t) the reference has just written,
  /// rounds its snapped_deficit() and writes only its own slots — the send,
  /// through record_send(), or what node_round() needs to decide it.
  virtual void edge_round(const edge_slice& es) = 0;

  /// The algorithm's per-node work of one round, run as the reference's
  /// node tail on [i0, i1): each sender splits its sends into real tokens
  /// and dummies (recording them with record_send() where edge_round() did
  /// not), writes the dummies into the slots of the edges it sends on, and
  /// debits its own loads (and dummies). Returns the dummy weight minted.
  [[nodiscard]] virtual weight_t node_round(node_id i0, node_id i1) = 0;
};

}  // namespace dlb
