// Baseline discrete processes that round the *locally computed* continuous
// prescription each round (paper §2.2-2.3). Unlike flow imitation, these
// processes compute the transfer from their own (discrete) load vector:
// for edge (i,j) active in round t, the continuous prescription is the net
//     δ_{i,j}(t) = α_{i,j}(t) · (x_i/s_i - x_j/s_j),
// sent from the higher-makespan endpoint after rounding:
//
//  * round_down        — ⌊δ⌋, the classic scheme analyzed by Rabani,
//                        Sinclair, Wanka [37] (final discrepancy
//                        O(d·log n/(1-λ))) and by [27, 34];
//  * randomized_fraction — ⌊δ⌋ + Bernoulli({δ}), the randomized rounding of
//                        Friedrich et al. [26] (diffusion) with expectation
//                        exactly δ;
//  * randomized_half   — ⌊δ⌋ or ⌈δ⌉ with probability 1/2 each, the matching
//                        model scheme of Friedrich & Sauerwald [24];
//  * quasirandom       — the deterministic bounded-error scheme of Friedrich,
//                        Gairing, Sauerwald [26]: keep a per-edge accumulated
//                        rounding error Δ̂ and pick the rounding that
//                        minimizes |Δ̂ + δ - rounded|.
//
// Up-rounding schemes can overdraw a node (negative load); the paper notes
// these baselines permit it. We track the number of negative-load node-rounds
// for reporting.
//
// Every rounding decision is per-edge (randomized ones draw a counter-based
// coin keyed (seed, t, e)) and the load update folds a node's incident edges
// — the shared sharded-stepper phases, so the baselines step shard-parallel
// with bit-identical results at any shard count (core/sharding.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

enum class rounding_policy {
  round_down,
  randomized_fraction,
  randomized_half,
  quasirandom,
};

[[nodiscard]] std::string to_string(rounding_policy p);

class local_rounding_process final : public discrete_process,
                                     public snapshot::checkpointable {
 public:
  /// `schedule` defines the per-round α (diffusion or matching model);
  /// `tokens[i]` unit tasks start on node i; `seed` drives random roundings.
  local_rounding_process(std::shared_ptr<const graph> g, speed_vector s,
                         std::unique_ptr<alpha_schedule> schedule,
                         rounding_policy policy,
                         std::vector<weight_t> tokens, std::uint64_t seed);

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
  }
  /// Departures just subtract load (never below zero — an empty node is an
  /// idle server); the baselines have no continuous copy to mirror into.
  weight_t drain_tokens(node_id i, weight_t count) override {
    DLB_EXPECTS(i >= 0 && i < g_->num_nodes() && count >= 0);
    const weight_t drained =
        std::min(count, std::max<weight_t>(loads_[static_cast<size_t>(i)], 0));
    loads_[static_cast<size_t>(i)] -= drained;
    return drained;
  }
  [[nodiscard]] std::string name() const override;

  /// Number of (node, round) pairs at which the load was negative.
  [[nodiscard]] std::int64_t negative_load_events() const {
    return negative_events_;
  }

  /// Most negative load ever observed (0 if never negative).
  [[nodiscard]] weight_t min_load_seen() const { return min_load_seen_; }

  /// Quasirandom accumulated rounding error Δ̂ for edge e, oriented u→v
  /// (always 0 for other policies). The bounded-error property of [26] keeps
  /// |Δ̂| <= 1/2 at all times.
  [[nodiscard]] real_t accumulated_error(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < g_->num_edges());
    return accumulated_error_[static_cast<size_t>(e)];
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

  // checkpointable: loads, the quasirandom accumulated error Δ̂ (genuine
  // state for that policy), negativity counters, round counter.
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

 private:
  // One round's phases; ranges are one shard's slice. The apply phase
  // returns the shard's (negative-event count, min load) fold.
  struct negativity {
    std::int64_t events = 0;
    weight_t min_load = 0;
  };
  void round_phase(const edge_slice& es);
  [[nodiscard]] negativity apply_phase(node_id i0, node_id i1);

  std::shared_ptr<const graph> g_;
  speed_vector s_;
  std::unique_ptr<alpha_schedule> schedule_;
  rounding_policy policy_;
  std::vector<weight_t> loads_;
  std::vector<real_t> accumulated_error_;  // quasirandom Δ̂, oriented u→v
  std::vector<real_t> alpha_buf_;
  bool alphas_cached_ = false;  // alpha_buf_ valid for every round (diffusion)
  std::vector<weight_t> edge_sent_;  // signed per-edge send (+ = u→v), reused
  std::uint64_t coin_seed_;
  round_t t_ = 0;
  std::int64_t negative_events_ = 0;
  weight_t min_load_seen_ = 0;
};

}  // namespace dlb
