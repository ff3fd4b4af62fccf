#include "dlb/core/linear_process.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/core/diffusion_matrix.hpp"

namespace dlb {

namespace {

// The α an edge gets in any round it is matched: s_u·s_v/(s_u+s_v).
std::vector<real_t> per_edge_matching_alpha(const graph& g,
                                            const speed_vector& s) {
  validate_speeds(g, s);
  std::vector<real_t> alpha(static_cast<size_t>(g.num_edges()));
  for (edge_id e = 0; e < g.num_edges(); ++e) {
    const edge& ed = g.endpoints(e);
    alpha[static_cast<size_t>(e)] = matching_alpha(
        s[static_cast<size_t>(ed.u)], s[static_cast<size_t>(ed.v)]);
  }
  return alpha;
}

}  // namespace

// ---- periodic_matching_schedule --------------------------------------------

periodic_matching_schedule::periodic_matching_schedule(
    const graph& g, const speed_vector& s, std::vector<matching> matchings)
    : num_edges_(g.num_edges()),
      matchings_(std::move(matchings)),
      edge_alpha_(per_edge_matching_alpha(g, s)) {
  DLB_EXPECTS(!matchings_.empty());
  for (const matching& m : matchings_) DLB_EXPECTS(is_matching(g, m));
  // Invert matchings → per-edge slot rows (counting-sort CSR build; the
  // outer loops visit matchings in index order, so every row comes out
  // sorted without an explicit sort).
  slot_offsets_.assign(static_cast<size_t>(num_edges_) + 1, 0);
  for (const matching& m : matchings_) {
    for (const edge_id e : m) ++slot_offsets_[static_cast<size_t>(e) + 1];
  }
  for (size_t e = 0; e < static_cast<size_t>(num_edges_); ++e) {
    slot_offsets_[e + 1] += slot_offsets_[e];
  }
  slot_values_.resize(slot_offsets_[static_cast<size_t>(num_edges_)]);
  std::vector<std::uint32_t> fill(slot_offsets_.begin(),
                                  slot_offsets_.end() - 1);
  for (std::uint32_t slot = 0; slot < matchings_.size(); ++slot) {
    for (const edge_id e : matchings_[slot]) {
      slot_values_[fill[static_cast<size_t>(e)]++] = slot;
    }
  }
}

void periodic_matching_schedule::fill_alphas(round_t t, real_t* out,
                                             const edge_slice& es) const {
  const auto slot = static_cast<std::uint32_t>(
      static_cast<size_t>(t) % matchings_.size());
  es.for_each([&](edge_id e) {
    const std::uint32_t* lo = slot_values_.data() + slot_offsets_[static_cast<size_t>(e)];
    const std::uint32_t* hi = slot_values_.data() + slot_offsets_[static_cast<size_t>(e) + 1];
    const bool active = std::binary_search(lo, hi, slot);
    out[e] = active ? edge_alpha_[static_cast<size_t>(e)] : 0.0;
  });
}

std::unique_ptr<alpha_schedule> periodic_matching_schedule::clone() const {
  return std::unique_ptr<alpha_schedule>(
      new periodic_matching_schedule(*this));
}

// ---- random_matching_schedule -----------------------------------------------

random_matching_schedule::random_matching_schedule(const graph& g,
                                                   const speed_vector& s,
                                                   std::uint64_t seed)
    : random_matching_schedule(&g, seed, per_edge_matching_alpha(g, s)) {}

random_matching_schedule::random_matching_schedule(
    const graph* g, std::uint64_t seed, std::vector<real_t> edge_alpha)
    : g_(g), seed_(seed), edge_alpha_(std::move(edge_alpha)) {}

void random_matching_schedule::begin_round(round_t t) const {
  rng_t rng = make_rng(seed_, static_cast<std::uint64_t>(t));
  draw_random_maximal_matching(*g_, rng, draw_);
  drawn_round_ = t;
}

void random_matching_schedule::fill_alphas(round_t t, real_t* out,
                                           const edge_slice& es) const {
  DLB_EXPECTS(drawn_round_ == t);  // begin_round(t) must have run
  const char* active = draw_.active.data();
  es.for_each([&](edge_id e) {
    const auto i = static_cast<size_t>(e);
    out[e] = active[i] != 0 ? edge_alpha_[i] : 0.0;
  });
}

std::unique_ptr<alpha_schedule> random_matching_schedule::clone() const {
  return std::unique_ptr<alpha_schedule>(
      new random_matching_schedule(g_, seed_, edge_alpha_));
}

// ---- linear_process ---------------------------------------------------------

linear_process::linear_process(std::shared_ptr<const graph> g, speed_vector s,
                               std::unique_ptr<alpha_schedule> schedule,
                               real_t beta, std::string process_name)
    : g_(std::move(g)),
      s_(std::move(s)),
      schedule_(std::move(schedule)),
      beta_(beta),
      name_(std::move(process_name)) {
  DLB_EXPECTS(g_ != nullptr);
  DLB_EXPECTS(schedule_ != nullptr);
  validate_speeds(*g_, s_);
  DLB_EXPECTS(beta_ > 0 && beta_ <= 2.0);
}

void linear_process::reset(std::vector<real_t> x0) {
  DLB_EXPECTS(static_cast<node_id>(x0.size()) == g_->num_nodes());
  for (const real_t xi : x0) DLB_EXPECTS(xi >= 0);
  x_ = std::move(x0);
  y_prev_.assign(static_cast<size_t>(g_->num_edges()), directed_flow{});
  cum_flow_.assign(static_cast<size_t>(g_->num_edges()), 0.0);
  t_ = 0;
  started_ = true;
  negative_load_ = false;
  alphas_cached_ = false;
}

// Phase 1 (per edge): this round's flows y(t), eqs. (10)-(11) — in round 0
// the recurrence has no history term, y(0) = P(0)·x(0) — plus the cumulative
// flow ledger update. Pure per-edge function of the pre-round state, so any
// edge partition computes identical bits.
void linear_process::flow_phase(const edge_slice& es) {
  const graph& g = *g_;
  es.for_each([&](edge_id e) {
    const edge& ed = g.endpoints(e);
    const real_t a = alpha_buf_[static_cast<size_t>(e)];
    const real_t rate_u = a / static_cast<real_t>(s_[static_cast<size_t>(ed.u)]);
    const real_t rate_v = a / static_cast<real_t>(s_[static_cast<size_t>(ed.v)]);
    directed_flow& y = y_next_[static_cast<size_t>(e)];
    if (t_ == 0) {
      y.forward = rate_u * x_[static_cast<size_t>(ed.u)];
      y.backward = rate_v * x_[static_cast<size_t>(ed.v)];
    } else {
      const directed_flow& prev = y_prev_[static_cast<size_t>(e)];
      y.forward =
          (beta_ - 1.0) * prev.forward + beta_ * rate_u * x_[static_cast<size_t>(ed.u)];
      y.backward =
          (beta_ - 1.0) * prev.backward + beta_ * rate_v * x_[static_cast<size_t>(ed.v)];
    }
    cum_flow_[static_cast<size_t>(e)] += y.forward - y.backward;
  });
}

// Phase 2 (per node): negative-load detection (Definition 1 — a node's
// outgoing demand must not exceed its current load; only SOS can violate
// this, paper §3) against the pre-transfer load, then the transfer
// application, in one walk of the node's incident edges. Each node folds
// them in ascending edge-id order (the adjacency build order), which is
// exactly the contribution order the sequential per-edge loop applies to
// that node's accumulators — so the floating-point result is bit-identical
// for any node partition.
bool linear_process::apply_phase(node_id i0, node_id i1) {
  const graph& g = *g_;
  bool negative = false;
  for (node_id i = i0; i < i1; ++i) {
    const real_t before = x_[static_cast<size_t>(i)];
    real_t outgoing = 0;
    real_t after = before;
    for (const incidence& inc : g.neighbors(i)) {
      const directed_flow& y = y_next_[static_cast<size_t>(inc.edge)];
      // Endpoints are normalized u < v, so i is the edge's u iff the
      // neighbor is the larger endpoint.
      const bool is_u = inc.neighbor > i;
      outgoing += is_u ? y.forward : y.backward;
      const real_t net = y.forward - y.backward;
      after += is_u ? -net : net;
    }
    if (before - outgoing < -flow_epsilon) negative = true;
    x_[static_cast<size_t>(i)] = after;
  }
  return negative;
}

namespace {

// One node chunk's fold: whether it saw a Definition-1 violation, and the
// sum of the node tail's returns. Both folds are exact.
struct node_fold {
  int negative = 0;
  weight_t tail = 0;

  [[nodiscard]] static node_fold merge(const node_fold& a,
                                       const node_fold& b) {
    return {a.negative | b.negative, a.tail + b.tail};
  }
};

}  // namespace

weight_t linear_process::step(const edge_tail& edge, const node_tail& node) {
  DLB_EXPECTS(started_);
  fill_round_alphas(*schedule_, t_, alpha_buf_, alphas_cached_);
  y_next_.resize(static_cast<size_t>(g_->num_edges()));

  edge_phase([&](const edge_slice& es) {
    flow_phase(es);
    if (edge) edge(es);
  });
  const node_fold acc = node_phase_reduce<node_fold>(
      {},
      [&](node_id i0, node_id i1) {
        node_fold f{apply_phase(i0, i1) ? 1 : 0, 0};
        if (node) f.tail = node(i0, i1);
        return f;
      },
      &node_fold::merge);
  if (acc.negative != 0) negative_load_ = true;

  y_prev_.swap(y_next_);
  ++t_;
  return acc.tail;
}

std::unique_ptr<linear_process> linear_process::clone_fresh() const {
  return std::make_unique<linear_process>(g_, s_, schedule_->clone(), beta_,
                                          name_);
}

void linear_process::inject_load(node_id i, real_t amount) {
  DLB_EXPECTS(started_);
  DLB_EXPECTS(i >= 0 && i < g_->num_nodes());
  // Negative amounts are departures mirrored by the discrete imitators; the
  // linear recurrence is additive in both signs, so no floor is enforced.
  x_[static_cast<size_t>(i)] += amount;
}

// ---- factories --------------------------------------------------------------

std::unique_ptr<linear_process> make_fos(std::shared_ptr<const graph> g,
                                         speed_vector s,
                                         std::vector<real_t> alpha) {
  DLB_EXPECTS(g != nullptr);
  validate_alphas(*g, s, alpha);
  return std::make_unique<linear_process>(
      std::move(g), std::move(s),
      std::make_unique<diffusion_alpha_schedule>(std::move(alpha)),
      /*beta=*/1.0, "FOS");
}

std::unique_ptr<linear_process> make_sos(std::shared_ptr<const graph> g,
                                         speed_vector s,
                                         std::vector<real_t> alpha,
                                         real_t beta) {
  DLB_EXPECTS(g != nullptr);
  validate_alphas(*g, s, alpha);
  DLB_EXPECTS(beta > 0 && beta <= 2.0);
  return std::make_unique<linear_process>(
      std::move(g), std::move(s),
      std::make_unique<diffusion_alpha_schedule>(std::move(alpha)), beta,
      "SOS");
}

real_t optimal_sos_beta(real_t lambda) {
  DLB_EXPECTS(lambda >= 0 && lambda < 1.0);
  return 2.0 / (1.0 + std::sqrt(1.0 - lambda * lambda));
}

std::unique_ptr<linear_process> make_periodic_matching_process(
    std::shared_ptr<const graph> g, speed_vector s,
    std::vector<matching> matchings) {
  DLB_EXPECTS(g != nullptr);
  auto sched = std::make_unique<periodic_matching_schedule>(
      *g, s, std::move(matchings));
  return std::make_unique<linear_process>(std::move(g), std::move(s),
                                          std::move(sched), /*beta=*/1.0,
                                          "dimension-exchange-periodic");
}

std::unique_ptr<linear_process> make_random_matching_process(
    std::shared_ptr<const graph> g, speed_vector s, std::uint64_t seed) {
  DLB_EXPECTS(g != nullptr);
  auto sched = std::make_unique<random_matching_schedule>(*g, s, seed);
  return std::make_unique<linear_process>(std::move(g), std::move(s),
                                          std::move(sched), /*beta=*/1.0,
                                          "dimension-exchange-random");
}

std::unique_ptr<linear_process> make_sos_periodic_matching_process(
    std::shared_ptr<const graph> g, speed_vector s,
    std::vector<matching> matchings, real_t beta) {
  DLB_EXPECTS(g != nullptr);
  DLB_EXPECTS(beta > 0 && beta <= 2.0);
  auto sched = std::make_unique<periodic_matching_schedule>(
      *g, s, std::move(matchings));
  return std::make_unique<linear_process>(std::move(g), std::move(s),
                                          std::move(sched), beta,
                                          "sos-dimension-exchange-periodic");
}

}  // namespace dlb
