// The two-phase random-walk approach of Elsässer & Sauerwald (PODC 2010)
// [19] (paper §2.3, "Random Walk Approach"), for identical tasks on uniform
// speeds:
//
//  Phase 1 — coarse balancing: the classic discrete diffusion of [37]
//  (round-down) until loads are within the coarse band.
//
//  Phase 2 — fine balancing: every node knows the average load m/n (it can
//  simulate the continuous process locally). With threshold α = ⌈m/n⌉ + c,
//  every token above α becomes a *positive token* and every hole below α a
//  *negative token*. Each round every token performs one lazy random walk
//  step; moving a negative token i→j is realized as a load move j→i. When a
//  positive and a negative token meet, both are eliminated. [19] shows this
//  reaches constant max-min discrepancy in O(T) rounds; as the paper notes,
//  too many negative tokens landing on one node can push its load negative.
//
// A node's walkers draw from one counter-based stream keyed (seed, t, i) —
// positive walkers first, then negative, the sequential visit order — so a
// walker's step never depends on which shard visits its node. Moves are
// recorded in per-(edge, direction) slots (single writer: the walker's
// origin node) and folded per destination node — the shared sharded-stepper
// protocol, bit-identical at any shard count (core/sharding.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"

namespace dlb {

struct random_walk_config {
  round_t phase1_rounds = 0;  ///< coarse rounds (0 = caller drives phases)
  weight_t slack = 1;         ///< the constant c in α = ⌈m/n⌉ + c
  double laziness = 0.5;      ///< probability a walker stays put
};

class random_walk_balancer final : public discrete_process {
 public:
  random_walk_balancer(std::shared_ptr<const graph> g, speed_vector s,
                       std::vector<real_t> alpha,
                       std::vector<weight_t> tokens, std::uint64_t seed,
                       random_walk_config config = {});

  /// One round: phase 1 (round-down diffusion) for the configured number of
  /// rounds, then phase 2 (token walks + annihilation).
  void step() override;

  [[nodiscard]] const std::vector<weight_t>& loads() const override {
    return loads_;
  }
  [[nodiscard]] std::vector<weight_t> real_loads() const override {
    return loads_;
  }
  [[nodiscard]] const graph& topology() const override { return *g_; }
  [[nodiscard]] const speed_vector& speeds() const override { return s_; }
  [[nodiscard]] round_t rounds_executed() const override { return t_; }
  [[nodiscard]] weight_t dummy_created() const override { return 0; }
  void inject_tokens(node_id i, weight_t count) override {
    DLB_EXPECTS(i >= 0 && i < g_->num_nodes() && count >= 0);
    loads_[static_cast<size_t>(i)] += count;
    // In the fine phase the new excess walks as positive tokens, keeping the
    // invariant loads = α + positive - negative.
    if (tokens_marked_) positive_[static_cast<size_t>(i)] += count;
  }
  [[nodiscard]] std::string name() const override {
    return "baseline-random-walk [19]";
  }

  /// True once phase 2 has started.
  [[nodiscard]] bool in_fine_phase() const { return t_ >= cfg_.phase1_rounds; }

  /// Outstanding positive/negative walkers (0/0 once fully annihilated).
  [[nodiscard]] weight_t positive_tokens() const;
  [[nodiscard]] weight_t negative_tokens() const;

  /// Number of (node, round) observations with negative load (possible in
  /// phase 2, as the paper notes).
  [[nodiscard]] std::int64_t negative_load_events() const {
    return negative_events_;
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

 private:
  void coarse_step();
  void fine_step();
  void mark_tokens();  // entering phase 2: derive walkers from loads

  // Coarse phases (round-down diffusion on the discrete loads).
  void coarse_flow_phase(const edge_slice& es);
  void coarse_apply_phase(node_id i0, node_id i1);

  // Fine phases: clear walk slots (per edge), walk every token (per origin
  // node, counter-based draws), apply moves + annihilate (per node; returns
  // the shard's negative-load event count).
  void clear_walks_phase(const edge_slice& es);
  void walk_phase(node_id i0, node_id i1);
  [[nodiscard]] std::int64_t settle_phase(node_id i0, node_id i1);

  /// Walkers crossing one edge this round, split by direction and sign.
  struct walk_counts {
    weight_t pos_from_u = 0;
    weight_t pos_from_v = 0;
    weight_t neg_from_u = 0;
    weight_t neg_from_v = 0;
  };

  std::shared_ptr<const graph> g_;
  speed_vector s_;
  std::vector<real_t> alpha_;
  random_walk_config cfg_;
  std::vector<weight_t> loads_;
  std::vector<weight_t> positive_;  // positive walkers per node
  std::vector<weight_t> negative_;  // negative walkers per node
  bool tokens_marked_ = false;
  weight_t threshold_ = 0;  // α
  std::uint64_t walk_seed_;
  round_t t_ = 0;
  std::int64_t negative_events_ = 0;
  std::vector<weight_t> edge_sent_;    // coarse: signed send (+ = u→v), reused
  std::vector<walk_counts> walks_;     // fine: per-edge moves, reused
  std::vector<weight_t> stay_pos_;     // fine: walkers staying put, reused
  std::vector<weight_t> stay_neg_;
};

}  // namespace dlb
