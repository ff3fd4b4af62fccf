#include "dlb/core/algorithm2.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dlb {

namespace {

// x^D(0): the tokens plus any dummy preload, both non-negative.
std::vector<weight_t> with_preload(std::vector<weight_t> tokens,
                                   const std::vector<weight_t>& dummy_preload) {
  for (const weight_t c : tokens) DLB_EXPECTS(c >= 0);
  if (!dummy_preload.empty()) {
    DLB_EXPECTS(dummy_preload.size() == tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      DLB_EXPECTS(dummy_preload[i] >= 0);
      tokens[i] += dummy_preload[i];
    }
  }
  return tokens;
}

}  // namespace

algorithm2::algorithm2(std::unique_ptr<linear_process> process,
                       std::vector<weight_t> tokens, std::uint64_t seed,
                       std::vector<weight_t> dummy_preload)
    : flow_imitator(std::move(process),
                    with_preload(std::move(tokens), dummy_preload)),
      dummies_(dummy_preload.empty() ? std::vector<weight_t>(loads_.size(), 0)
                                     : std::move(dummy_preload)),
      coin_seed_(derive_seed(seed, /*stream=*/0xA19u)) {
  sends_.assign(static_cast<size_t>(topology().num_edges()), edge_send{});
  sent_.assign(loads_.size(), 0);
  dummy_out_.assign(loads_.size(), 0);
}

std::vector<weight_t> algorithm2::real_loads() const {
  std::vector<weight_t> x(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x[i] = loads_[i] - dummies_[i];
  }
  return x;
}

void algorithm2::inject_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(count >= 0);
  loads_[static_cast<size_t>(i)] += count;
  reference_->inject_load(i, static_cast<real_t>(count));
}

weight_t algorithm2::drain_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(count >= 0);
  // Only real tokens complete; the dummies residing on i stay in circulation.
  const std::size_t idx = static_cast<size_t>(i);
  const weight_t drained = std::min(count, loads_[idx] - dummies_[idx]);
  loads_[idx] -= drained;
  reference_->inject_load(i, -static_cast<real_t>(drained));
  return drained;
}

load_extrema algorithm2::real_load_extrema(node_id begin, node_id end) const {
  const speed_vector& s = speeds();
  load_extrema e;
  for (node_id i = begin; i < end; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    e.add(static_cast<real_t>(loads_[idx] - dummies_[idx]) /
          static_cast<real_t>(s[idx]));
  }
  return e;
}

// Phase 1 (per edge): the positive-deficit direction decides its rounded
// send Y = ⌊Ŷ⌋ + Bernoulli({Ŷ}). The coin is a counter-based draw keyed
// (seed, t, e) — a pure function of the edge and round, independent of
// visit order — and the ledger record is a per-edge write with exactly one
// writer. Transfers are synchronous: decisions see only round-start state.
void algorithm2::decide_phase(const edge_slice& es) {
  const graph& g = topology();
  const std::uint64_t round_seed =
      derive_seed(coin_seed_, static_cast<std::uint64_t>(t_));
  es.for_each([&](edge_id e) {
    edge_send& out = sends_[static_cast<size_t>(e)];
    out = edge_send{};
    const real_t deficit = snapped_deficit(e);
    if (deficit == 0) return;

    const edge& ed = g.endpoints(e);
    const bool from_u = deficit > 0;
    const real_t amount = std::abs(deficit);
    const real_t fl = std::floor(amount);
    const real_t frac = amount - fl;
    weight_t y = static_cast<weight_t>(fl);
    if (frac > 0) {
      counter_rng coin(round_seed, static_cast<std::uint64_t>(e));
      if (bernoulli(coin, frac)) ++y;
    }
    if (y == 0) return;

    ledger_.record(e, from_u ? ed.u : ed.v, y);
    out.y = y;
    out.from_u = from_u;
  });
}

// Phase 2 (per sender node): resolve each sender's real/dummy token
// composition — real tokens ship first; when the pool is short, dummies
// ship, minted from the infinite source if the node holds none — and route
// the dummy attribution over the node's sending edges in ascending edge-id
// order (the order the sequential loop fills them). Writes: the node's own
// loads/dummies/sent/dummy_out slots, plus the `dummies` slot of edges the
// node sends on (single writer — each edge has exactly one sender).
weight_t algorithm2::mint_phase(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t minted_total = 0;
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t out = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const edge_send& s = sends_[static_cast<size_t>(inc.edge)];
      if (s.y > 0 && s.from_u == (inc.neighbor > i)) out += s.y;
    }
    sent_[idx] = out;
    dummy_out_[idx] = 0;
    if (out == 0) continue;
    const weight_t real_avail = loads_[idx] - dummies_[idx];
    if (out <= real_avail) continue;
    const weight_t needed = out - real_avail;
    const weight_t minted = needed - std::min(needed, dummies_[idx]);
    minted_total += minted;
    loads_[idx] += minted;
    dummies_[idx] += minted;
    dummy_out_[idx] = needed;
    // (Dummies are dynamically indistinguishable from real tokens — the
    // paper treats them as normal — so the attribution below only affects
    // final-report elimination.)
    weight_t remaining = needed;
    for (const incidence& inc : g.neighbors(i)) {
      if (remaining == 0) break;
      edge_send& s = sends_[static_cast<size_t>(inc.edge)];
      if (s.y == 0 || s.from_u != (inc.neighbor > i)) continue;
      s.dummies = std::min(remaining, s.y);
      remaining -= s.dummies;
    }
    DLB_ASSERT(remaining == 0);
  }
  return minted_total;
}

// Phase 3 (per node): apply the synchronous deltas by folding incident
// edges (integer sums — order-independent, but folded ascending anyway).
void algorithm2::apply_phase(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t moved = 0;  // weight delivered to this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t recv = 0;
    weight_t recv_dummy = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const edge_send& s = sends_[static_cast<size_t>(inc.edge)];
      if (s.y > 0 && s.from_u == (i > inc.neighbor)) {
        recv += s.y;
        recv_dummy += s.dummies;
      }
    }
    loads_[idx] += recv - sent_[idx];
    dummies_[idx] += recv_dummy - dummy_out_[idx];
    moved += recv;
    DLB_ASSERT(loads_[idx] >= 0);
    DLB_ASSERT(dummies_[idx] >= 0);
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

void algorithm2::save_state(snapshot::writer& w) const {
  const graph& g = topology();
  w.section("algorithm2");
  w.u64(static_cast<std::uint64_t>(g.num_nodes()));
  w.u64(static_cast<std::uint64_t>(g.num_edges()));
  w.u64(coin_seed_);
  w.i64(t_);
  w.i64(dummy_created_);
  w.vec_int(loads_);
  w.vec_int(dummies_);
  ledger_.save_state(w);
  reference_->save_state(w);
}

void algorithm2::restore_state(snapshot::reader& r) {
  const graph& g = topology();
  r.expect_section("algorithm2");
  r.expect_u64(static_cast<std::uint64_t>(g.num_nodes()), "node count");
  r.expect_u64(static_cast<std::uint64_t>(g.num_edges()), "edge count");
  r.expect_u64(coin_seed_, "coin seed");
  t_ = r.i64();
  dummy_created_ = r.i64();
  std::vector<weight_t> loads = r.vec_int<weight_t>();
  std::vector<weight_t> dummies = r.vec_int<weight_t>();
  DLB_EXPECTS(t_ >= 0 && dummy_created_ >= 0);
  DLB_EXPECTS(static_cast<node_id>(loads.size()) == g.num_nodes());
  DLB_EXPECTS(dummies.size() == loads.size());
  loads_ = std::move(loads);
  dummies_ = std::move(dummies);
  ledger_.restore_state(r);
  reference_->restore_state(r);
}

weight_t algorithm2::imitate_round() {
  edge_phase([&](const edge_slice& es) { decide_phase(es); });
  const weight_t minted = node_phase_reduce<weight_t>(
      0, [&](node_id i0, node_id i1) { return mint_phase(i0, i1); },
      [](weight_t a, weight_t b) { return a + b; });
  node_phase([&](node_id i0, node_id i1) { apply_phase(i0, i1); });
  return minted;
}

}  // namespace dlb
