#include "dlb/core/flow_imitator.hpp"

#include <algorithm>
#include <utility>

#include "dlb/common/contracts.hpp"

namespace dlb {

namespace {

const graph& checked_topology(const linear_process* p) {
  DLB_EXPECTS(p != nullptr);
  return p->topology();
}

// x^D(0) of the count store: `tokens[i]` plus `dummy_preload[i]` dummy
// tokens (empty = none), all non-negative.
std::vector<weight_t> with_dummy_preload(
    std::vector<weight_t> tokens, const std::vector<weight_t>& dummy_preload) {
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

flow_imitator::flow_imitator(std::unique_ptr<linear_process> reference,
                             std::vector<weight_t> tokens,
                             const std::vector<weight_t>& dummy_preload)
    : flow_imitator(std::move(reference),
                    with_dummy_preload(std::move(tokens), dummy_preload)) {
  if (!dummy_preload.empty()) dummies_ = dummy_preload;
}

flow_imitator::flow_imitator(std::unique_ptr<linear_process> reference,
                             std::vector<weight_t> initial_loads)
    : reference_(std::move(reference)),
      ledger_(checked_topology(reference_.get())),
      loads_(std::move(initial_loads)),
      dummies_(loads_.size(), 0) {
  DLB_EXPECTS(static_cast<node_id>(loads_.size()) ==
              reference_->topology().num_nodes());
  const std::size_t m = static_cast<size_t>(topology().num_edges());
  sent_.assign(m, 0);
  sent_dummies_.assign(m, 0);
  // Start the internal continuous simulation from the same load vector
  // (x^A(0) = x^D(0)); paper footnote 1.
  std::vector<real_t> x0(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x0[i] = static_cast<real_t>(loads_[i]);
  }
  reference_->reset(std::move(x0));
}

std::vector<weight_t> flow_imitator::real_loads() const {
  std::vector<weight_t> x(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x[i] = loads_[i] - dummies_[i];
  }
  return x;
}

load_extrema flow_imitator::real_load_extrema(node_id begin,
                                              node_id end) const {
  const speed_vector& s = speeds();
  load_extrema e;
  for (node_id i = begin; i < end; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    e.add(static_cast<real_t>(loads_[idx] - dummies_[idx]) /
          static_cast<real_t>(s[idx]));
  }
  return e;
}

weight_t flow_imitator::drain_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(i >= 0 && i < topology().num_nodes());
  DLB_EXPECTS(count >= 0);
  const std::size_t idx = static_cast<size_t>(i);
  const weight_t drained = std::min(count, loads_[idx] - dummies_[idx]);
  loads_[idx] -= drained;
  reference_->inject_load(i, -static_cast<real_t>(drained));
  return drained;
}

// Each node folds its incident edges in ascending edge-id order (integer
// sums, so any order gives the same bits). The delivery test mispredicts
// where Algorithm 2's coins decide which edges deliver, but reading every
// edge's dummy slot under a mask instead cost the two imitators' receives
// more together (hypercube(18), 4 shards).
void flow_imitator::receive(node_id i0, node_id i1) {
  const graph& g = topology();
  const weight_t* sent_dummies = sent_dummies_.data();
  weight_t moved = 0;  // weight delivered to this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    weight_t received = 0;
    weight_t dummies = 0;
    for (const incidence& inc : g.neighbors(i)) {
      const weight_t in = -sent_by(i, inc);
      if (in <= 0) continue;
      received += in;
      dummies += sent_dummies[inc.edge];
    }
    loads_[idx] += received;
    dummies_[idx] += dummies;
    moved += received;
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

void flow_imitator::step() {
  dummy_created_ += reference_->step(
      [this](const edge_slice& es) { edge_round(es); },
      [this](node_id i0, node_id i1) { return node_round(i0, i1); });
  node_phase([&](node_id i0, node_id i1) { receive(i0, i1); });
  ++t_;
}

void flow_imitator::on_sharding_enabled(
    const std::shared_ptr<const shard_context>& ctx) {
  reference_->enable_sharded_stepping(ctx);
}

void flow_imitator::on_probe_attached(const obs::probe& pb) {
  reference_->set_probe(pb);
}

}  // namespace dlb
