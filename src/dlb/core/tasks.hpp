// The discrete task model (paper §3): every node holds a multiset of tasks
// with positive integer weights; identical unit-weight tasks are "tokens".
// Dummy tokens (unit weight, drawn from a node's infinite source when its
// real load cannot cover the prescribed flow) are tracked separately so that
// they can be eliminated at the end of the balancing process, as the paper's
// reporting convention requires.
#pragma once

#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/common/types.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

/// Which task an algorithm removes when the paper says "arbitrary task".
enum class removal_policy {
  real_first,   ///< prefer real tasks, dummies only when no real task remains
  dummy_first,  ///< prefer circulating dummies back out first
};

/// The multiset of tasks residing on one node.
class task_pool {
 public:
  task_pool() = default;

  /// Adds one real task of weight `w` >= 1. `origin` records where the task
  /// entered the system (for locality analyses; invalid_node if untracked).
  void add_real(weight_t w, node_id origin = invalid_node) {
    DLB_EXPECTS(w >= 1);
    real_.push_back(w);
    origins_.push_back(origin);
    total_ += w;
  }

  /// Adds `count` dummy unit-weight tokens.
  void add_dummies(weight_t count) {
    DLB_EXPECTS(count >= 0);
    dummy_count_ += count;
    total_ += count;
  }

  /// Total weight including dummy tokens — the discrete load x^D_i.
  [[nodiscard]] weight_t total_weight() const noexcept { return total_; }

  /// Total weight of real tasks only (dummies eliminated).
  [[nodiscard]] weight_t real_weight() const noexcept {
    return total_ - dummy_count_;
  }

  [[nodiscard]] weight_t dummy_count() const noexcept { return dummy_count_; }

  [[nodiscard]] std::size_t real_task_count() const noexcept {
    return real_.size();
  }

  [[nodiscard]] bool empty() const noexcept {
    return real_.empty() && dummy_count_ == 0;
  }

  /// The result of removing one task.
  struct removed_task {
    weight_t weight = 0;
    bool is_dummy = false;
    node_id origin = invalid_node;
  };

  /// Removes one arbitrary task per `policy`. Precondition: !empty().
  removed_task remove_arbitrary(removal_policy policy) {
    DLB_EXPECTS(!empty());
    const bool take_dummy =
        (policy == removal_policy::dummy_first) ? dummy_count_ > 0
                                                : real_.empty();
    if (take_dummy) {
      --dummy_count_;
      --total_;
      return {1, true, invalid_node};
    }
    const weight_t w = real_.back();
    const node_id origin = origins_.back();
    real_.pop_back();
    origins_.pop_back();
    total_ -= w;
    return {w, false, origin};
  }

  /// Removes up to `count` unit-weight real tasks (service completions;
  /// dummies never leave through service). Pops from the back — the same
  /// LIFO end remove_arbitrary uses — and stops early at a task of weight
  /// > 1 (weighted tasks do not complete in unit quanta) or when the pool
  /// runs out of real tasks. Returns the number of units removed.
  weight_t drain_real_units(weight_t count) {
    DLB_EXPECTS(count >= 0);
    weight_t drained = 0;
    while (drained < count && !real_.empty() && real_.back() == 1) {
      real_.pop_back();
      origins_.pop_back();
      --total_;
      ++drained;
    }
    return drained;
  }

  /// Weights of the real tasks currently in the pool (unordered multiset
  /// view; exposed for tests and examples).
  [[nodiscard]] const std::vector<weight_t>& real_task_weights() const {
    return real_;
  }

  /// Origins parallel to real_task_weights() (invalid_node if untracked).
  [[nodiscard]] const std::vector<node_id>& real_task_origins() const {
    return origins_;
  }

  /// Checkpointing: the pool's exact contents, *in storage order* — removal
  /// is LIFO, so the order is state, not an implementation detail.
  void save_state(snapshot::writer& w) const;
  void restore_state(snapshot::reader& r);

 private:
  std::vector<weight_t> real_;  // weights; removal order is LIFO ("arbitrary")
  std::vector<node_id> origins_;  // parallel to real_
  weight_t dummy_count_ = 0;
  weight_t total_ = 0;
};

/// Tasks for all nodes of a network.
class task_assignment {
 public:
  explicit task_assignment(node_id n) : pools_(static_cast<size_t>(n)) {
    DLB_EXPECTS(n > 0);
  }

  /// Builds an assignment of identical unit tasks: `counts[i]` tokens on i.
  [[nodiscard]] static task_assignment tokens(
      const std::vector<weight_t>& counts);

  /// Builds an assignment from explicit per-node task weight lists.
  [[nodiscard]] static task_assignment from_weights(
      const std::vector<std::vector<weight_t>>& weights);

  [[nodiscard]] node_id num_nodes() const {
    return static_cast<node_id>(pools_.size());
  }

  [[nodiscard]] task_pool& pool(node_id i) {
    DLB_EXPECTS(i >= 0 && i < num_nodes());
    return pools_[static_cast<size_t>(i)];
  }
  [[nodiscard]] const task_pool& pool(node_id i) const {
    DLB_EXPECTS(i >= 0 && i < num_nodes());
    return pools_[static_cast<size_t>(i)];
  }

  /// Discrete load vector x^D (total weights, dummies included).
  [[nodiscard]] std::vector<weight_t> loads() const;

  /// Load vector with dummy tokens eliminated.
  [[nodiscard]] std::vector<weight_t> real_loads() const;

  /// Total weight over all nodes (dummies included).
  [[nodiscard]] weight_t total_weight() const;

  /// Maximum real task weight w_max; returns 1 for an all-token (or empty)
  /// assignment so that bounds like 2·d·w_max stay meaningful.
  [[nodiscard]] weight_t max_task_weight() const;

  /// Min/max real-load-per-speed over nodes [begin, end). Lets the chunked
  /// discrepancy reduction scan the pools directly instead of materializing
  /// an O(n) load vector per round.
  [[nodiscard]] load_extrema real_load_extrema(
      node_id begin, node_id end, const std::vector<weight_t>& speeds) const;

  /// Checkpointing: every pool, in node order. restore_state requires the
  /// assignment to span the same node count it was saved with.
  void save_state(snapshot::writer& w) const;
  void restore_state(snapshot::reader& r);

 private:
  std::vector<task_pool> pools_;
};

/// Adds ℓ·s_i dummy unit tokens to every node — the preload used by the
/// proofs of Theorem 3(1) and Theorem 8(1) to control max-avg discrepancy
/// (the extra load is perfectly balanced, so it does not change T^A, and it
/// is eliminated from final reports).
void add_dummy_preload(task_assignment& a, const std::vector<weight_t>& s,
                       weight_t ell);

}  // namespace dlb
