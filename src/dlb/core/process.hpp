// Core interfaces: the α schedules that define continuous balancing
// processes, and the discrete processes that move whole tasks.
//
// A continuous process A (paper §2.1, §3) evolves a real load vector x(t) by
// transferring y_{i,j}(t) >= 0 over edges each round. The paper's framework
// applies to any *additive terminating* A (Definitions 2-3); the library's A
// is `linear_process` (core/linear_process.hpp), the general linear
// recurrence of eqs. (10)-(11):
//     y_{i,j}(0) = P_{i,j}(0) · x_i(0)
//     y_{i,j}(t) = (β-1) · y_{i,j}(t-1) + β · P_{i,j}(t) · x_i(t),
// with P_{i,j}(t) = α_{i,j}(t) / s_i, which is additive and terminating by
// Lemma 1. A new A is a new `alpha_schedule` (examples/custom_process.cpp).
//
// A discrete process moves whole tasks; discrete loads are exact integers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/core/phase_slice.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/graph.hpp"
#include "dlb/graph/spectral.hpp"  // speed_vector

namespace dlb {

/// Provides the α_{i,j}(t) coefficients of the round-t balancing matrix.
///
/// α is symmetric (α_{i,j} = α_{j,i}) and per-edge; P_{i,j}(t) = α_e(t)/s_i.
/// Implementations must be *deterministic functions of t* — randomized
/// schedules derive per-round RNGs from (seed, t) — so that coupled process
/// instances see identical matrices (Definition 3, footnote 6) and the
/// discrete imitator can re-simulate the continuous process exactly.
///
/// Steppers compute a round's α vector as begin_round() followed by
/// fill_alphas() over their edge_phase slices, so the O(m) fill shards and
/// chunks like any other edge kernel.
class alpha_schedule {
 public:
  virtual ~alpha_schedule() = default;

  /// True when α(t) is the same for every t (diffusion). Lets steppers fill
  /// the vector once instead of rewriting O(m) coefficients per round — a
  /// real cost on million-edge graphs.
  [[nodiscard]] virtual bool time_invariant() const { return false; }

  /// Sequential per-round prologue: anything that must happen once per round
  /// before slices run (e.g. drawing the round's random matching). Called on
  /// one thread, strictly before any fill_alphas(t, ...) of the same round;
  /// must leave fill_alphas a pure reader so concurrent slices race on
  /// nothing.
  virtual void begin_round(round_t t) const { (void)t; }

  /// Writes α_e(t) into out[e] for every edge the slice visits. `out` has
  /// num_edges slots; each edge's slot is written by exactly one slice per
  /// round.
  virtual void fill_alphas(round_t t, real_t* out,
                           const edge_slice& es) const = 0;

  /// Deep copy (schedules are immutable; copies are interchangeable).
  [[nodiscard]] virtual std::unique_ptr<alpha_schedule> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Always true: every schedule fills by range. Kept for the frozen scale
  /// benchmark (perfbench/), which still asks.
  [[nodiscard]] bool ranged_fill() const { return true; }

  /// α(t) for all out.size() edges (`out` must hold num_edges slots):
  /// begin_round plus one full-range fill_alphas. Kept for the frozen scale
  /// benchmark (perfbench/).
  void alphas(round_t t, std::vector<real_t>& out) const {
    begin_round(t);
    fill_alphas(t, out.data(),
                edge_slice(0, static_cast<edge_id>(out.size())));
  }
};

/// A discrete neighbourhood load balancing process over whole tasks. It
/// steps through the sharded_stepper protocol, which also supplies
/// topology(), the shard context and the probe.
class discrete_process : public sharded_stepper {
 public:
  /// Executes one synchronous round.
  virtual void step() = 0;

  /// Integer load vector, *including* any dummy load currently held.
  [[nodiscard]] virtual const std::vector<weight_t>& loads() const = 0;

  /// Integer load vector with dummy tokens eliminated (the paper's final
  /// reporting convention). Identical to loads() for processes that never
  /// create dummies.
  [[nodiscard]] virtual std::vector<weight_t> real_loads() const = 0;

  [[nodiscard]] virtual const speed_vector& speeds() const = 0;
  [[nodiscard]] virtual round_t rounds_executed() const = 0;

  /// Min/max load-per-speed over nodes [begin, end). Real loads, dummies
  /// eliminated — the quantity the engine's per-round discrepancy folds.
  [[nodiscard]] virtual load_extrema real_load_extrema(node_id begin,
                                                       node_id end) const = 0;

  /// Total dummy weight drawn from the infinite source so far (0 for
  /// processes without a dummy source).
  [[nodiscard]] virtual weight_t dummy_created() const = 0;

  /// Places `count` >= 0 new unit tasks on node i mid-run (dynamic
  /// arrivals). Flow imitators mirror the arrival into their internal
  /// continuous process so the imitation target stays consistent.
  virtual void inject_tokens(node_id i, weight_t count) = 0;

  /// Removes up to `count` real unit tasks from node i (service
  /// completions / departures in the event-driven engine). Returns the
  /// number actually removed — fewer when the node holds less than `count`
  /// units of real load (an idle server). Flow imitators mirror the removal
  /// into their continuous copy (negative inject_load), keeping the
  /// imitation additive in both directions. The default declines: processes
  /// without departure support return 0 and remain untouched.
  virtual weight_t drain_tokens(node_id i, weight_t count) {
    (void)i;
    (void)count;
    return 0;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace dlb
