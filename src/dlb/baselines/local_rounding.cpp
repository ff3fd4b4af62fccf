#include "dlb/baselines/local_rounding.hpp"

#include <cmath>
#include <utility>

#include "dlb/common/contracts.hpp"

namespace dlb {

std::string to_string(rounding_policy p) {
  switch (p) {
    case rounding_policy::round_down:
      return "round-down";
    case rounding_policy::randomized_fraction:
      return "randomized-fraction";
    case rounding_policy::randomized_half:
      return "randomized-half";
    case rounding_policy::quasirandom:
      return "quasirandom";
  }
  return "unknown";
}

local_rounding_process::local_rounding_process(
    std::shared_ptr<const graph> g, speed_vector s,
    std::unique_ptr<alpha_schedule> schedule, rounding_policy policy,
    std::vector<weight_t> tokens, std::uint64_t seed)
    : g_(std::move(g)),
      s_(std::move(s)),
      schedule_(std::move(schedule)),
      policy_(policy),
      loads_(std::move(tokens)),
      coin_seed_(derive_seed(seed, /*stream=*/0xBA5Eu)) {
  DLB_EXPECTS(g_ != nullptr && schedule_ != nullptr);
  validate_speeds(*g_, s_);
  DLB_EXPECTS(static_cast<node_id>(loads_.size()) == g_->num_nodes());
  for (const weight_t c : loads_) DLB_EXPECTS(c >= 0);
  accumulated_error_.assign(static_cast<size_t>(g_->num_edges()), 0.0);
  edge_sent_.assign(static_cast<size_t>(g_->num_edges()), 0);
}

std::string local_rounding_process::name() const {
  return "baseline-" + to_string(policy_) + "(" + schedule_->name() + ")";
}

load_extrema local_rounding_process::real_load_extrema(node_id begin,
                                                       node_id end) const {
  return per_speed_extrema(loads_, s_, begin, end);
}

// Phase 1 (per edge): the rounding decision. The prescription reads only
// round-start loads, quasirandom's Δ̂ is per-edge state, and the randomized
// policies draw a counter-based coin keyed (seed, t, e) — so the decision is
// a pure per-edge function, identical for any edge partition.
void local_rounding_process::round_phase(const edge_slice& es) {
  const graph& g = *g_;
  const std::uint64_t round_seed =
      derive_seed(coin_seed_, static_cast<std::uint64_t>(t_));
  weight_t moved = 0;  // gross tokens sent over this slice's edges (obs only)
  es.for_each([&](edge_id e) {
    edge_sent_[static_cast<size_t>(e)] = 0;
    const real_t a = alpha_buf_[static_cast<size_t>(e)];
    if (a == 0) return;
    const edge& ed = g.endpoints(e);
    const real_t mi = static_cast<real_t>(loads_[static_cast<size_t>(ed.u)]) /
                      static_cast<real_t>(s_[static_cast<size_t>(ed.u)]);
    const real_t mj = static_cast<real_t>(loads_[static_cast<size_t>(ed.v)]) /
                      static_cast<real_t>(s_[static_cast<size_t>(ed.v)]);
    const real_t prescription = a * (mi - mj);  // oriented u→v
    if (std::abs(prescription) < flow_epsilon) return;

    const bool u_sends = prescription > 0;
    const real_t amount = std::abs(prescription);
    const real_t fl = std::floor(amount);
    const real_t frac = amount - fl;
    weight_t sent = static_cast<weight_t>(fl);

    switch (policy_) {
      case rounding_policy::round_down:
        break;  // keep the floor
      case rounding_policy::randomized_fraction:
        if (frac > flow_epsilon) {
          counter_rng coin(round_seed, static_cast<std::uint64_t>(e));
          if (bernoulli(coin, frac)) ++sent;
        }
        break;
      case rounding_policy::randomized_half:
        if (frac > flow_epsilon) {
          counter_rng coin(round_seed, static_cast<std::uint64_t>(e));
          if (bernoulli(coin, 0.5)) ++sent;
        }
        break;
      case rounding_policy::quasirandom: {
        // Signed form oriented u→v: pick the rounding minimizing the new
        // accumulated error |Δ̂ + δ - sent_signed|.
        real_t& acc = accumulated_error_[static_cast<size_t>(e)];
        const real_t sign = u_sends ? 1.0 : -1.0;
        const real_t cand_down = sign * fl;
        const real_t cand_up = sign * std::ceil(amount);
        const real_t err_down = std::abs(acc + prescription - cand_down);
        const real_t err_up = std::abs(acc + prescription - cand_up);
        if (err_up < err_down) sent = static_cast<weight_t>(std::ceil(amount));
        acc += prescription - sign * static_cast<real_t>(sent);
        break;
      }
    }
    if (sent == 0) return;
    edge_sent_[static_cast<size_t>(e)] = u_sends ? sent : -sent;
    moved += sent;
  });
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

// Phase 2 (per node): apply the synchronous deltas by folding incident
// edges (integer sums), tracking negativity per shard.
local_rounding_process::negativity local_rounding_process::apply_phase(
    node_id i0, node_id i1) {
  const graph& g = *g_;
  negativity neg;
  for (node_id i = i0; i < i1; ++i) {
    loads_[static_cast<size_t>(i)] += signed_edge_inflow(g, edge_sent_, i);
    if (loads_[static_cast<size_t>(i)] < 0) {
      ++neg.events;
      neg.min_load = std::min(neg.min_load, loads_[static_cast<size_t>(i)]);
    }
  }
  return neg;
}

void local_rounding_process::step() {
  fill_round_alphas(*schedule_, t_, alpha_buf_, alphas_cached_);
  edge_phase([&](const edge_slice& es) { round_phase(es); });
  const negativity neg = node_phase_reduce<negativity>(
      negativity{},
      [&](node_id i0, node_id i1) { return apply_phase(i0, i1); },
      [](negativity a, negativity b) {
        return negativity{a.events + b.events,
                          std::min(a.min_load, b.min_load)};
      });
  negative_events_ += neg.events;
  min_load_seen_ = std::min(min_load_seen_, neg.min_load);
  ++t_;
}

}  // namespace dlb
