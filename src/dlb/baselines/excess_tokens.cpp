#include "dlb/baselines/excess_tokens.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/core/diffusion_matrix.hpp"

namespace dlb {

excess_token_process::excess_token_process(std::shared_ptr<const graph> g,
                                           speed_vector s,
                                           std::vector<real_t> alpha,
                                           std::vector<weight_t> tokens,
                                           std::uint64_t seed)
    : g_(std::move(g)),
      s_(std::move(s)),
      alpha_(std::move(alpha)),
      loads_(std::move(tokens)),
      draw_seed_(derive_seed(seed, /*stream=*/0xE6Cu)) {
  DLB_EXPECTS(g_ != nullptr);
  validate_alphas(*g_, s_, alpha_);
  DLB_EXPECTS(static_cast<node_id>(loads_.size()) == g_->num_nodes());
  for (const weight_t c : loads_) DLB_EXPECTS(c >= 0);
  in_flight_.assign(static_cast<size_t>(g_->num_edges()), edge_tokens{});
}

load_extrema excess_token_process::real_load_extrema(node_id begin,
                                                     node_id end) const {
  return per_speed_extrema(loads_, s_, begin, end);
}

// Phase 0 (per edge): reset the in-flight slots (a zero-load node writes
// nothing in the send phase, so stale counts must not survive the round).
void excess_token_process::clear_phase(const edge_slice& es) {
  es.for_each(
      [&](edge_id e) { in_flight_[static_cast<size_t>(e)] = edge_tokens{}; });
}

// Phase 1 (per sender node): floor sends to every neighbour, then `excess`
// distinct neighbours — drawn from a counter-based stream keyed (seed, t, i)
// via a partial Fisher-Yates over the adjacency list — get one extra token
// each. Every write lands in the sender's direction slot of an incident
// edge: single writer, any node partition computes identical bits.
void excess_token_process::send_phase(node_id i0, node_id i1) {
  const graph& g = *g_;
  const std::uint64_t round_seed =
      derive_seed(draw_seed_, static_cast<std::uint64_t>(t_));
  std::vector<incidence> scratch;  // per-shard; reused across its nodes
  for (node_id i = i0; i < i1; ++i) {
    const weight_t xi = loads_[static_cast<size_t>(i)];
    if (xi == 0) continue;
    const real_t si = static_cast<real_t>(s_[static_cast<size_t>(i)]);

    // Gross continuous flows y_{i,j} = (α/s_i)·x_i; floor each send.
    weight_t sent_floor_total = 0;
    real_t rate_sum = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const real_t rate = alpha_[static_cast<size_t>(inc.edge)] / si;
      rate_sum += rate;
      const weight_t send = static_cast<weight_t>(
          std::floor(rate * static_cast<real_t>(xi) + flow_epsilon));
      if (send > 0) {
        edge_tokens& slot = in_flight_[static_cast<size_t>(inc.edge)];
        (inc.neighbor > i ? slot.from_u : slot.from_v) += send;
        sent_floor_total += send;
      }
    }
    // Self retention y_{i,i} = (1 - Σ rates)·x_i; the excess is what the
    // floors left behind: an integer in [0, d_i].
    const weight_t keep_floor = static_cast<weight_t>(
        std::floor((1.0 - rate_sum) * static_cast<real_t>(xi) +
                   flow_epsilon));
    weight_t excess = xi - sent_floor_total - keep_floor;
    DLB_ASSERT(excess >= 0);
    DLB_ASSERT(excess <= static_cast<weight_t>(g.degree(i)));
    if (excess == 0) continue;

    // Choose `excess` distinct neighbours uniformly at random (partial
    // Fisher-Yates over the adjacency list); one extra token each.
    counter_rng rng(round_seed, static_cast<std::uint64_t>(i));
    scratch.assign(g.neighbors(i).begin(), g.neighbors(i).end());
    for (weight_t k = 0; k < excess; ++k) {
      const std::size_t pick = static_cast<std::size_t>(uniform_int<std::int64_t>(
          rng, static_cast<std::int64_t>(k),
          static_cast<std::int64_t>(scratch.size()) - 1));
      std::swap(scratch[static_cast<size_t>(k)], scratch[pick]);
      const incidence& inc = scratch[static_cast<size_t>(k)];
      edge_tokens& slot = in_flight_[static_cast<size_t>(inc.edge)];
      (inc.neighbor > i ? slot.from_u : slot.from_v) += 1;
    }
  }
}

// Phase 2 (per node): fold incident edges — incoming minus outgoing tokens
// (integer sums). The process never overdraws by construction.
void excess_token_process::apply_phase(node_id i0, node_id i1) {
  const graph& g = *g_;
  weight_t moved = 0;  // tokens received by this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    weight_t delta = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const edge_tokens& slot = in_flight_[static_cast<size_t>(inc.edge)];
      // i is the edge's u iff the neighbor is larger.
      const weight_t in =
          inc.neighbor > i ? slot.from_v : slot.from_u;
      const weight_t out =
          inc.neighbor > i ? slot.from_u : slot.from_v;
      delta += in - out;
      moved += in;
    }
    loads_[static_cast<size_t>(i)] += delta;
    DLB_ASSERT(loads_[static_cast<size_t>(i)] >= 0);
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

void excess_token_process::step() {
  edge_phase([&](const edge_slice& es) { clear_phase(es); });
  node_phase([&](node_id i0, node_id i1) { send_phase(i0, i1); });
  node_phase([&](node_id i0, node_id i1) { apply_phase(i0, i1); });
  ++t_;
}

}  // namespace dlb
