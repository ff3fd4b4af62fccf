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
// shared sharded-stepper phases (decide per edge, inside the reference's
// edge phase; mint and attribute dummies per sender node, inside its node
// phase; the base's receive per node) with bit-identical results at any
// shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/flow_imitator.hpp"

namespace dlb {

/// The reference, the ledger, the loads, the counters and the count store
/// live in `flow_imitator`.
class algorithm2 final : public flow_imitator {
 public:
  /// `process` is a fresh continuous process; `tokens[i]` is the number of
  /// unit tasks initially on node i; `seed` drives the rounding coins.
  /// `dummy_preload[i]` extra dummy tokens are placed on node i at start (the
  /// Theorem 8(1) device; pass empty for none) — they count toward loads()
  /// but not real_loads().
  algorithm2(std::unique_ptr<linear_process> process,
             std::vector<weight_t> tokens, std::uint64_t seed,
             const std::vector<weight_t>& dummy_preload = {});

  [[nodiscard]] std::string name() const override {
    return "alg2-randomized-imitation(" + reference_->name() + ")";
  }

  /// Dynamic arrivals: `count` unit tokens land on node i, mirrored into the
  /// internal continuous process.
  void inject_tokens(node_id i, weight_t count) override;

 private:
  // The decide step (per edge) and the mint step (per sender node), run
  // as the reference's tails; the mint returns the chunk's dummy mint count.
  void edge_round(const edge_slice& es) override;
  [[nodiscard]] weight_t node_round(node_id i0, node_id i1) override;

  std::uint64_t coin_seed_;
};

}  // namespace dlb
