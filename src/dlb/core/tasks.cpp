#include "dlb/core/tasks.hpp"

#include <algorithm>

namespace dlb {

task_assignment task_assignment::tokens(const std::vector<weight_t>& counts) {
  DLB_EXPECTS(!counts.empty());
  task_assignment a(static_cast<node_id>(counts.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    const weight_t c = counts[static_cast<size_t>(i)];
    DLB_EXPECTS(c >= 0);
    for (weight_t k = 0; k < c; ++k) a.pool(i).add_real(1, /*origin=*/i);
  }
  return a;
}

task_assignment task_assignment::from_weights(
    const std::vector<std::vector<weight_t>>& weights) {
  DLB_EXPECTS(!weights.empty());
  task_assignment a(static_cast<node_id>(weights.size()));
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    for (const weight_t w : weights[static_cast<size_t>(i)]) {
      a.pool(i).add_real(w, /*origin=*/i);
    }
  }
  return a;
}

std::vector<weight_t> task_assignment::loads() const {
  std::vector<weight_t> x(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    x[i] = pools_[i].total_weight();
  }
  return x;
}

std::vector<weight_t> task_assignment::real_loads() const {
  std::vector<weight_t> x(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    x[i] = pools_[i].real_weight();
  }
  return x;
}

weight_t task_assignment::total_weight() const {
  weight_t w = 0;
  for (const task_pool& p : pools_) w += p.total_weight();
  return w;
}

load_extrema task_assignment::real_load_extrema(
    node_id begin, node_id end, const std::vector<weight_t>& speeds) const {
  DLB_EXPECTS(begin >= 0 && begin <= end && end <= num_nodes());
  DLB_EXPECTS(static_cast<node_id>(speeds.size()) == num_nodes());
  load_extrema e;
  for (node_id i = begin; i < end; ++i) {
    e.add(static_cast<real_t>(pools_[static_cast<size_t>(i)].real_weight()) /
          static_cast<real_t>(speeds[static_cast<size_t>(i)]));
  }
  return e;
}

weight_t task_assignment::max_task_weight() const {
  weight_t wmax = 1;
  for (const task_pool& p : pools_) {
    for (const weight_t w : p.real_task_weights()) wmax = std::max(wmax, w);
  }
  return wmax;
}

void task_pool::save_state(snapshot::writer& w) const {
  w.vec_int(real_);
  w.vec_int(origins_);
  w.i64(dummy_count_);
}

void task_pool::restore_state(snapshot::reader& r) {
  real_ = r.vec_int<weight_t>();
  origins_ = r.vec_int<node_id>();
  const weight_t dummies = r.i64();
  DLB_EXPECTS(real_.size() == origins_.size() && dummies >= 0);
  dummy_count_ = dummies;
  total_ = dummy_count_;
  for (const weight_t w : real_) {
    DLB_EXPECTS(w >= 1);
    total_ += w;
  }
}

void task_assignment::save_state(snapshot::writer& w) const {
  w.section("tasks");
  w.u64(pools_.size());
  for (const task_pool& p : pools_) p.save_state(w);
}

void task_assignment::restore_state(snapshot::reader& r) {
  r.expect_section("tasks");
  r.expect_u64(pools_.size(), "task_assignment node count");
  for (task_pool& p : pools_) p.restore_state(r);
}

void add_dummy_preload(task_assignment& a, const std::vector<weight_t>& s,
                       weight_t ell) {
  DLB_EXPECTS(static_cast<node_id>(s.size()) == a.num_nodes());
  DLB_EXPECTS(ell >= 0);
  for (node_id i = 0; i < a.num_nodes(); ++i) {
    DLB_EXPECTS(s[static_cast<size_t>(i)] >= 1);
    a.pool(i).add_dummies(ell * s[static_cast<size_t>(i)]);
  }
}

}  // namespace dlb
