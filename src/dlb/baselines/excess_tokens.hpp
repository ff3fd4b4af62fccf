// The randomized-diffusion baseline of Berenbrink, Cooper, Friedetzky,
// Friedrich, Sauerwald (SODA 2011) [9] (paper §2.3): every node computes the
// continuous gross flows y_{i,j} = (α_{i,j}/s_i)·x_i, sends ⌊y_{i,j}⌋ to each
// neighbour, and distributes its remaining "excess" tokens
//     x_i - ⌊y_{i,i}⌋ - Σ_j ⌊y_{i,j}⌋   (an integer in [0, d_i])
// one each to distinct neighbours chosen uniformly at random (without
// replacement). By construction the process never creates negative load.
//
// A node's sends (floors plus its excess draws, keyed (seed, t, i) through
// a counter-based stream) are written into per-(edge, direction) slots whose
// single writer is the sending endpoint, then a fold phase applies the
// integer deltas — the shared sharded-stepper protocol, bit-identical at any
// shard count (core/sharding.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

class excess_token_process final : public discrete_process,
                                   public snapshot::checkpointable {
 public:
  excess_token_process(std::shared_ptr<const graph> g, speed_vector s,
                       std::vector<real_t> alpha, std::vector<weight_t> tokens,
                       std::uint64_t seed);

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
  [[nodiscard]] std::string name() const override {
    return "baseline-excess-tokens(FOS)";
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

  // checkpointable: loads and the round counter — the in-flight slots are
  // per-round scratch (cleared before every send phase), and the excess
  // draws are counter-based on (seed, t, i).
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

 private:
  /// Tokens in flight on one edge this round, split by direction (u→v and
  /// v→u): the floor sends plus any excess tokens the draw assigned.
  struct edge_tokens {
    weight_t from_u = 0;
    weight_t from_v = 0;
  };

  void clear_phase(const edge_slice& es);
  void send_phase(node_id i0, node_id i1);
  void apply_phase(node_id i0, node_id i1);

  std::shared_ptr<const graph> g_;
  speed_vector s_;
  std::vector<real_t> alpha_;
  std::vector<weight_t> loads_;
  std::uint64_t draw_seed_;
  round_t t_ = 0;
  std::vector<edge_tokens> in_flight_;  // per-edge directed sends (reused)
};

}  // namespace dlb
