#include "dlb/core/algorithm2.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dlb {

algorithm2::algorithm2(std::unique_ptr<linear_process> process,
                       std::vector<weight_t> tokens, std::uint64_t seed,
                       const std::vector<weight_t>& dummy_preload)
    : flow_imitator(std::move(process), std::move(tokens), dummy_preload),
      coin_seed_(derive_seed(seed, /*stream=*/0xA19u)) {}

void algorithm2::inject_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(count >= 0);
  loads_[static_cast<size_t>(i)] += count;
  reference_->inject_load(i, static_cast<real_t>(count));
}

// The decide step (per edge), inside the reference's edge phase, on edges
// whose f^A(t) it has just written: the positive-deficit direction decides
// its rounded send Y = ⌊|Ŷ|⌋ + Bernoulli({|Ŷ|}), recorded with Ŷ's sign.
// The coin is a counter-based draw keyed (seed, t, e) — a pure function of
// the edge and round, independent of visit order — drawn on every edge,
// since a coin of probability 0 never lands; the per-edge writes have
// exactly one writer. Transfers are synchronous: decisions see only
// round-start state and the edge's own f^A(t). The dummy slot is cleared
// here because the mint fills only the first sending edges' slots.
void algorithm2::edge_round(const edge_slice& es) {
  const std::uint64_t round_seed =
      derive_seed(coin_seed_, static_cast<std::uint64_t>(t_));
  es.for_each([&](edge_id e) {
    const real_t deficit = snapped_deficit(e);
    const real_t amount = std::abs(deficit);
    const real_t fl = std::floor(amount);
    counter_rng coin(round_seed, static_cast<std::uint64_t>(e));
    const weight_t y =
        static_cast<weight_t>(fl) + (bernoulli(coin, amount - fl) ? 1 : 0);
    record_send(e, deficit > 0 ? y : -y);
    sent_dummies_[static_cast<size_t>(e)] = 0;
  });
}

// The mint step (per sender node), inside the reference's node phase:
// resolve each sender's real/dummy token composition and debit it in
// place — real tokens ship first; when the pool is short, dummies ship,
// minted from the infinite source if the node holds none — then attribute
// the shipped dummies to the node's first sending edges in ascending
// edge-id order (the order the sequential loop fills them). Writes: the
// node's own loads/dummies, plus the dummies slot of edges the node sends
// on (single writer — each edge has exactly one sender).
weight_t algorithm2::node_round(node_id i0, node_id i1) {
  const graph& g = topology();
  weight_t minted_total = 0;
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t out = 0;
    for (const incidence& inc : g.neighbors(i)) {
      out += std::max<weight_t>(sent_by(i, inc), 0);
    }
    const weight_t needed =
        std::max<weight_t>(out - (loads_[idx] - dummies_[idx]), 0);
    const weight_t minted = needed - std::min(needed, dummies_[idx]);
    minted_total += minted;
    loads_[idx] += minted - out;
    dummies_[idx] += minted - needed;
    DLB_ASSERT(loads_[idx] >= 0);
    // (Dummies are dynamically indistinguishable from real tokens — the
    // paper treats them as normal — so the attribution below only affects
    // final-report elimination.)
    weight_t remaining = needed;
    for (const incidence& inc : g.neighbors(i)) {
      if (remaining == 0) break;
      const weight_t y = sent_by(i, inc);
      if (y <= 0) continue;
      const weight_t dummies = std::min(remaining, y);
      sent_dummies_[static_cast<size_t>(inc.edge)] = dummies;
      remaining -= dummies;
    }
    DLB_ASSERT(remaining == 0);
  }
  return minted_total;
}

}  // namespace dlb
