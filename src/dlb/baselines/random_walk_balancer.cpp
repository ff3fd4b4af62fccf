#include "dlb/baselines/random_walk_balancer.hpp"

#include <cmath>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/metrics.hpp"

namespace dlb {

random_walk_balancer::random_walk_balancer(std::shared_ptr<const graph> g,
                                           speed_vector s,
                                           std::vector<real_t> alpha,
                                           std::vector<weight_t> tokens,
                                           std::uint64_t seed,
                                           random_walk_config config)
    : g_(std::move(g)),
      s_(std::move(s)),
      alpha_(std::move(alpha)),
      cfg_(config),
      loads_(std::move(tokens)),
      walk_seed_(derive_seed(seed, /*stream=*/0x2A1Cu)) {
  DLB_EXPECTS(g_ != nullptr);
  validate_alphas(*g_, s_, alpha_);
  for (const weight_t si : s_) DLB_EXPECTS(si == 1);  // [19]: uniform speeds
  DLB_EXPECTS(static_cast<node_id>(loads_.size()) == g_->num_nodes());
  for (const weight_t c : loads_) DLB_EXPECTS(c >= 0);
  DLB_EXPECTS(cfg_.phase1_rounds >= 0 && cfg_.slack >= 0);
  DLB_EXPECTS(cfg_.laziness >= 0 && cfg_.laziness < 1.0);
  positive_.assign(loads_.size(), 0);
  negative_.assign(loads_.size(), 0);
  edge_sent_.assign(static_cast<size_t>(g_->num_edges()), 0);
  walks_.assign(static_cast<size_t>(g_->num_edges()), walk_counts{});
  stay_pos_.assign(loads_.size(), 0);
  stay_neg_.assign(loads_.size(), 0);
}

weight_t random_walk_balancer::positive_tokens() const {
  weight_t k = 0;
  for (const weight_t p : positive_) k += p;
  return k;
}

weight_t random_walk_balancer::negative_tokens() const {
  weight_t k = 0;
  for (const weight_t p : negative_) k += p;
  return k;
}

load_extrema random_walk_balancer::real_load_extrema(node_id begin,
                                                     node_id end) const {
  return per_speed_extrema(loads_, s_, begin, end);
}

// Coarse phase 1 (per edge): the round-down FOS prescription, signed u→v —
// a pure function of the round-start loads.
void random_walk_balancer::coarse_flow_phase(const edge_slice& es) {
  const graph& g = *g_;
  weight_t moved = 0;  // gross tokens sent over this slice's edges (obs only)
  es.for_each([&](edge_id e) {
    edge_sent_[static_cast<size_t>(e)] = 0;
    const edge& ed = g.endpoints(e);
    const real_t diff =
        alpha_[static_cast<size_t>(e)] *
        (static_cast<real_t>(loads_[static_cast<size_t>(ed.u)]) -
         static_cast<real_t>(loads_[static_cast<size_t>(ed.v)]));
    const weight_t sent =
        static_cast<weight_t>(std::floor(std::abs(diff) + flow_epsilon));
    if (sent == 0) return;
    edge_sent_[static_cast<size_t>(e)] = diff > 0 ? sent : -sent;
    moved += sent;
  });
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

// Coarse phase 2 (per node): fold incident edges (integer sums).
void random_walk_balancer::coarse_apply_phase(node_id i0, node_id i1) {
  for (node_id i = i0; i < i1; ++i) {
    loads_[static_cast<size_t>(i)] += signed_edge_inflow(*g_, edge_sent_, i);
  }
}

void random_walk_balancer::coarse_step() {
  edge_phase([&](const edge_slice& es) { coarse_flow_phase(es); });
  node_phase([&](node_id i0, node_id i1) { coarse_apply_phase(i0, i1); });
}

void random_walk_balancer::mark_tokens() {
  // α = ⌈m/n⌉ + c; every unit above α is a positive walker, every hole below
  // α a negative walker. The total is an integer sum — order-independent.
  const weight_t total = node_phase_reduce<weight_t>(
      0,
      [&](node_id i0, node_id i1) {
        weight_t part = 0;
        for (node_id i = i0; i < i1; ++i) {
          part += loads_[static_cast<size_t>(i)];
        }
        return part;
      },
      [](weight_t a, weight_t b) { return a + b; });
  const weight_t avg_ceil = (total + g_->num_nodes() - 1) / g_->num_nodes();
  threshold_ = avg_ceil + cfg_.slack;
  node_phase([&](node_id i0, node_id i1) {
    for (node_id i = i0; i < i1; ++i) {
      const std::size_t idx = static_cast<size_t>(i);
      if (loads_[idx] > threshold_) {
        positive_[idx] = loads_[idx] - threshold_;
      } else if (loads_[idx] < threshold_) {
        negative_[idx] = threshold_ - loads_[idx];
      }
    }
  });
  tokens_marked_ = true;
}

void random_walk_balancer::clear_walks_phase(const edge_slice& es) {
  es.for_each(
      [&](edge_id e) { walks_[static_cast<size_t>(e)] = walk_counts{}; });
}

// Fine phase 1 (per origin node): every walker takes one lazy random-walk
// step. A node's walkers draw sequentially from one counter-based stream
// keyed (seed, t, i) — positives first, then negatives — so the draws are
// independent of the node partition. Moves land in the origin's direction
// slot of the crossed edge (single writer); stays land in the origin's own
// stay counters.
void random_walk_balancer::walk_phase(node_id i0, node_id i1) {
  const graph& g = *g_;
  const std::uint64_t round_seed =
      derive_seed(walk_seed_, static_cast<std::uint64_t>(t_));
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    stay_pos_[idx] = 0;
    stay_neg_[idx] = 0;
    if (positive_[idx] == 0 && negative_[idx] == 0) continue;
    counter_rng rng(round_seed, static_cast<std::uint64_t>(i));
    const auto nbrs = g.neighbors(i);
    const auto walk_one = [&]() -> const incidence* {
      if (nbrs.empty() || bernoulli(rng, cfg_.laziness)) return nullptr;
      const auto pick = static_cast<std::size_t>(uniform_int<std::int64_t>(
          rng, 0, static_cast<std::int64_t>(nbrs.size()) - 1));
      return &nbrs[pick];
    };
    for (weight_t k = 0; k < positive_[idx]; ++k) {
      if (const incidence* inc = walk_one(); inc != nullptr) {
        walk_counts& w = walks_[static_cast<size_t>(inc->edge)];
        (inc->neighbor > i ? w.pos_from_u : w.pos_from_v) += 1;
      } else {
        ++stay_pos_[idx];
      }
    }
    for (weight_t k = 0; k < negative_[idx]; ++k) {
      if (const incidence* inc = walk_one(); inc != nullptr) {
        walk_counts& w = walks_[static_cast<size_t>(inc->edge)];
        (inc->neighbor > i ? w.neg_from_u : w.neg_from_v) += 1;
      } else {
        ++stay_neg_[idx];
      }
    }
  }
}

// Fine phase 2 (per node): fold the walker flows — a positive walker moving
// i→j carries one load unit i→j; a negative walker i→j pulls one unit j→i —
// then annihilate positive/negative pairs that met. All sums are integers.
std::int64_t random_walk_balancer::settle_phase(node_id i0, node_id i1) {
  const graph& g = *g_;
  std::int64_t negative_events = 0;
  weight_t moved = 0;  // load units pulled into this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t pos_in = 0;
    weight_t pos_out = 0;
    weight_t neg_in = 0;
    weight_t neg_out = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const walk_counts& w = walks_[static_cast<size_t>(inc.edge)];
      const bool i_is_u = inc.neighbor > i;
      pos_out += i_is_u ? w.pos_from_u : w.pos_from_v;
      pos_in += i_is_u ? w.pos_from_v : w.pos_from_u;
      neg_out += i_is_u ? w.neg_from_u : w.neg_from_v;
      neg_in += i_is_u ? w.neg_from_v : w.neg_from_u;
    }
    loads_[idx] += (pos_in - pos_out) + (neg_out - neg_in);
    // A positive walker entering carries one unit in; a negative walker
    // leaving pulls one unit in — each moved unit counted at its receiver.
    moved += pos_in + neg_out;
    if (loads_[idx] < 0) ++negative_events;
    const weight_t new_pos = stay_pos_[idx] + pos_in;
    const weight_t new_neg = stay_neg_[idx] + neg_in;
    // Annihilation: positive meets negative.
    const weight_t cancel = std::min(new_pos, new_neg);
    positive_[idx] = new_pos - cancel;
    negative_[idx] = new_neg - cancel;
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
  return negative_events;
}

void random_walk_balancer::fine_step() {
  if (!tokens_marked_) mark_tokens();
  edge_phase([&](const edge_slice& es) { clear_walks_phase(es); });
  node_phase([&](node_id i0, node_id i1) { walk_phase(i0, i1); });
  negative_events_ += node_phase_reduce<std::int64_t>(
      0, [&](node_id i0, node_id i1) { return settle_phase(i0, i1); },
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

void random_walk_balancer::save_state(snapshot::writer& w) const {
  w.section("random_walk");
  w.u64(static_cast<std::uint64_t>(g_->num_nodes()));
  w.u64(static_cast<std::uint64_t>(g_->num_edges()));
  w.u64(walk_seed_);
  w.i64(t_);
  w.i64(negative_events_);
  w.i64(threshold_);
  w.u8(tokens_marked_ ? 1 : 0);
  w.vec_int(loads_);
  w.vec_int(positive_);
  w.vec_int(negative_);
}

void random_walk_balancer::restore_state(snapshot::reader& r) {
  r.expect_section("random_walk");
  r.expect_u64(static_cast<std::uint64_t>(g_->num_nodes()), "node count");
  r.expect_u64(static_cast<std::uint64_t>(g_->num_edges()), "edge count");
  r.expect_u64(walk_seed_, "walk seed");
  t_ = r.i64();
  negative_events_ = r.i64();
  threshold_ = r.i64();
  tokens_marked_ = r.u8() != 0;
  std::vector<weight_t> loads = r.vec_int<weight_t>();
  std::vector<weight_t> pos = r.vec_int<weight_t>();
  std::vector<weight_t> neg = r.vec_int<weight_t>();
  DLB_EXPECTS(t_ >= 0 && negative_events_ >= 0);
  DLB_EXPECTS(static_cast<node_id>(loads.size()) == g_->num_nodes());
  DLB_EXPECTS(pos.size() == loads.size() && neg.size() == loads.size());
  loads_ = std::move(loads);
  positive_ = std::move(pos);
  negative_ = std::move(neg);
}

void random_walk_balancer::step() {
  if (t_ < cfg_.phase1_rounds) {
    coarse_step();
  } else {
    fine_step();
  }
  ++t_;
}

}  // namespace dlb
