// The flow-imitation base of Algorithms 1 and 2 (paper §3, §4).
//
// A flow imitator D(A) re-simulates the continuous process A from its own
// start, x^A(0) = x^D(0) (paper footnote 1), and each round moves whole
// tasks to make up the deficit ŷ_{i,j}(t) = f^A_{i,j}(t) - f^D_{i,j}(t-1)
// between A's cumulative flow and its own. The two algorithms differ only in
// how they round that deficit and move the tasks — Algorithm 1 greedily
// fills task sets while ŷ - |S| >= w_max, Algorithm 2 flips a per-edge coin
// for ŷ's fractional part — so this base owns everything else: the
// reference, the integer flow ledger f^D, the loads, the round and dummy
// counters, and the one function that computes and snaps a deficit.
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
  /// `reference` is a *fresh* continuous process; it is reset to
  /// `initial_loads` (per node, dummies included), which becomes loads().
  flow_imitator(std::unique_ptr<linear_process> reference,
                std::vector<weight_t> initial_loads);

  /// Advances the reference to round t, making f^A(t) known (sharded when
  /// this process is), then runs the algorithm's phases for the round.
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

  /// Flow deviation e_{u,v} = f^A - f^D, oriented u→v. Observation 4
  /// bounds it by |e| < w_max for Algorithm 1, Observation 9(3) by
  /// |e| < 1 for Algorithm 2.
  [[nodiscard]] real_t flow_error(edge_id e) const {
    return reference_->cumulative_flow(e) -
           static_cast<real_t>(ledger_.forward(e));
  }

 protected:
  /// x^D(0) of a token-model imitator: `tokens[i]` plus `dummy_preload[i]`
  /// dummy tokens (empty = none), all non-negative.
  [[nodiscard]] static std::vector<weight_t> with_dummy_preload(
      std::vector<weight_t> tokens, const std::vector<weight_t>& dummy_preload);

  /// real_loads() and real_load_extrema() of a token-model imitator that
  /// holds `dummies[i]` of node i's loads() as dummy tokens.
  [[nodiscard]] std::vector<weight_t> loads_without(
      const std::vector<weight_t>& dummies) const;
  [[nodiscard]] load_extrema extrema_without(
      const std::vector<weight_t>& dummies, node_id begin, node_id end) const;

  /// The round's deficit ŷ_e(t) = f^A(t) - f^D(t-1), oriented u→v, with a
  /// value within flow_epsilon of an integer snapped to it, so float dust in
  /// f^A cannot move a floor or a coin. Read after the reference stepped;
  /// the one place a deficit is snapped.
  [[nodiscard]] real_t snapped_deficit(edge_id e) const {
    const real_t deficit = flow_error(e);
    const real_t snapped = std::round(deficit);
    return std::abs(deficit - snapped) < flow_epsilon ? snapped : deficit;
  }

  // The reference steps on the same shards and reports to the same cell.
  void on_sharding_enabled(
      const std::shared_ptr<const shard_context>& ctx) override;
  void on_probe_attached(const obs::probe& pb) override;

  std::unique_ptr<linear_process> reference_;
  discrete_flow_ledger ledger_;
  std::vector<weight_t> loads_;  // per node, dummies included
  weight_t dummy_created_ = 0;
  round_t t_ = 0;

 private:
  /// The algorithm's phases for one round, against f^A(t). Returns the
  /// dummy weight minted.
  virtual weight_t imitate_round() = 0;
};

}  // namespace dlb
