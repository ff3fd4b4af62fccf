#include "dlb/core/flow_imitator.hpp"

#include <utility>

#include "dlb/common/contracts.hpp"

namespace dlb {

namespace {

const graph& checked_topology(const linear_process* p) {
  DLB_EXPECTS(p != nullptr);
  return p->topology();
}

}  // namespace

flow_imitator::flow_imitator(std::unique_ptr<linear_process> reference,
                             std::vector<weight_t> initial_loads)
    : reference_(std::move(reference)),
      ledger_(checked_topology(reference_.get())),
      loads_(std::move(initial_loads)) {
  DLB_EXPECTS(static_cast<node_id>(loads_.size()) ==
              reference_->topology().num_nodes());
  // Start the internal continuous simulation from the same load vector
  // (x^A(0) = x^D(0)); paper footnote 1.
  std::vector<real_t> x0(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x0[i] = static_cast<real_t>(loads_[i]);
  }
  reference_->reset(std::move(x0));
}

std::vector<weight_t> flow_imitator::with_dummy_preload(
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

std::vector<weight_t> flow_imitator::loads_without(
    const std::vector<weight_t>& dummies) const {
  std::vector<weight_t> x(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) x[i] = loads_[i] - dummies[i];
  return x;
}

load_extrema flow_imitator::extrema_without(
    const std::vector<weight_t>& dummies, node_id begin, node_id end) const {
  const speed_vector& s = speeds();
  load_extrema e;
  for (node_id i = begin; i < end; ++i) {
    const std::size_t idx = static_cast<size_t>(i);
    e.add(static_cast<real_t>(loads_[idx] - dummies[idx]) /
          static_cast<real_t>(s[idx]));
  }
  return e;
}

void flow_imitator::step() {
  reference_->step();
  dummy_created_ += imitate_round();
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
