// Algorithm 2 of the paper: randomized flow imitation (identical tasks).
//
// Like Algorithm 1 the process imitates the cumulative continuous flow, but
// the per-round deficit Ŷ_{i,j}(t) = f^A_{i,j}(t) - F^D_{i,j}(t-1) is rounded
// *randomly*: send ⌊Ŷ⌋ + Bernoulli({Ŷ}) tokens (only the positive direction
// sends). Rounding errors are then zero-mean (Observation 9(3)), and Hoeffding
// concentration (Lemma 12) yields
//   Theorem 8: max-avg discrepancy <= d/4 + O(sqrt(d·log n)) w.h.p., and
//   max-min discrepancy O(sqrt(d·log n)) given sufficient initial load.
//
// The rounding coin of edge e in round t is a counter-based draw keyed
// (seed, t, e) — a pure per-edge function, so the round decomposes into the
// shared sharded-stepper phases (decide per edge; mint and attribute dummies
// per sender node; apply per node) with bit-identical results at any shard
// count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/flow_imitator.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

/// The reference, the ledger, the loads and the counters live in
/// `flow_imitator`.
class algorithm2 final : public flow_imitator,
                         public snapshot::checkpointable {
 public:
  /// `process` is a fresh continuous process; `tokens[i]` is the number of
  /// unit tasks initially on node i; `seed` drives the rounding coins.
  /// `dummy_preload[i]` extra dummy tokens are placed on node i at start (the
  /// Theorem 8(1) device; pass empty for none) — they count toward loads()
  /// but not real_loads().
  algorithm2(std::unique_ptr<linear_process> process,
             std::vector<weight_t> tokens, std::uint64_t seed,
             std::vector<weight_t> dummy_preload = {});

  [[nodiscard]] std::vector<weight_t> real_loads() const override;
  [[nodiscard]] std::string name() const override {
    return "alg2-randomized-imitation(" + reference_->name() + ")";
  }

  /// Dynamic arrivals: `count` unit tokens land on node i, mirrored into the
  /// internal continuous process.
  void inject_tokens(node_id i, weight_t count) override;

  /// Departures: up to `count` real tokens on node i complete and leave,
  /// mirrored into the continuous process as negative load.
  weight_t drain_tokens(node_id i, weight_t count) override;

  /// Dummy tokens currently residing on node i.
  [[nodiscard]] weight_t dummies_at(node_id i) const {
    DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
    return dummies_[static_cast<size_t>(i)];
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

  // checkpointable: token counts, dummy residency, ledger, round counter,
  // and the embedded continuous process. The rounding coins are counter-based
  // draws keyed (coin_seed_, t, e), so no RNG state is stored — the seed is
  // fingerprinted and the round counter restores the randomness.
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

 private:
  /// Round-t transfer decision of one edge: `y` tokens from `from_u`'s side
  /// (0 = no transfer), of which `dummies` are attributed dummy tokens
  /// (filled by the mint phase).
  struct edge_send {
    weight_t y = 0;
    weight_t dummies = 0;
    bool from_u = false;
  };

  weight_t imitate_round() override;

  // One round's phases; ranges are one shard's slice. The mint phase
  // returns the shard's dummy mint count.
  void decide_phase(const edge_slice& es);
  [[nodiscard]] weight_t mint_phase(node_id i0, node_id i1);
  void apply_phase(node_id i0, node_id i1);

  std::vector<weight_t> dummies_;  // dummy tokens residing per node
  std::uint64_t coin_seed_;
  std::vector<edge_send> sends_;      // per-edge decisions (reused)
  std::vector<weight_t> sent_;        // per-node outgoing totals (reused)
  std::vector<weight_t> dummy_out_;   // per-node dummy attribution (reused)
};

}  // namespace dlb
