// The general linear continuous process (paper eqs. (10)-(11)) and the three
// α-schedules that instantiate every process covered by Lemma 1:
// FOS, SOS, and matching-based dimension exchange.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/matching.hpp"

namespace dlb {

/// Per-edge flows of one round. `forward` is y_{u→v}, `backward` is y_{v→u},
/// where (u, v) are the normalized endpoints (u < v) of the edge.
struct directed_flow {
  real_t forward = 0;
  real_t backward = 0;
};

/// Constant per-edge α — the diffusion schedule (FOS/SOS).
class diffusion_alpha_schedule final : public alpha_schedule {
 public:
  explicit diffusion_alpha_schedule(std::vector<real_t> alpha)
      : alpha_(std::move(alpha)) {}

  [[nodiscard]] bool time_invariant() const override { return true; }

  void fill_alphas(round_t /*t*/, real_t* out,
                   const edge_slice& es) const override {
    es.for_each(
        [&](edge_id e) { out[e] = alpha_[static_cast<std::size_t>(e)]; });
  }

  [[nodiscard]] std::unique_ptr<alpha_schedule> clone() const override {
    return std::make_unique<diffusion_alpha_schedule>(alpha_);
  }

  [[nodiscard]] std::string name() const override { return "diffusion"; }

 private:
  std::vector<real_t> alpha_;
};

/// Periodic matching schedule: a fixed list of matchings used round-robin,
/// P(t) = P(t mod period) (paper §2.1, periodic matching model). Active
/// edges get the makespan-equalizing α = s_i·s_j/(s_i+s_j).
class periodic_matching_schedule final : public alpha_schedule {
 public:
  periodic_matching_schedule(const graph& g, const speed_vector& s,
                             std::vector<matching> matchings);

  void fill_alphas(round_t t, real_t* out,
                   const edge_slice& es) const override;

  [[nodiscard]] std::unique_ptr<alpha_schedule> clone() const override;

  [[nodiscard]] std::string name() const override {
    return "periodic-matchings";
  }

  [[nodiscard]] std::size_t period() const { return matchings_.size(); }

 private:
  edge_id num_edges_;
  std::vector<matching> matchings_;
  std::vector<real_t> edge_alpha_;  // matching α per edge, precomputed
  // Inverted index for the ranged fill: slots_of edge e = the sorted
  // matching indices containing e, as CSR rows [slot_offsets_[e],
  // slot_offsets_[e+1]) into slot_values_. Built once at construction so a
  // fill slice answers "is e active in round t" without scanning matchings.
  std::vector<std::uint32_t> slot_offsets_;
  std::vector<std::uint32_t> slot_values_;
};

/// Random matching schedule: a fresh random maximal matching every round,
/// derived deterministically from (seed, t) so coupled instances coincide.
class random_matching_schedule final : public alpha_schedule {
 public:
  random_matching_schedule(const graph& g, const speed_vector& s,
                           std::uint64_t seed);

  void begin_round(round_t t) const override;
  void fill_alphas(round_t t, real_t* out,
                   const edge_slice& es) const override;

  /// Copies the configuration only; the clone draws into its own buffers.
  [[nodiscard]] std::unique_ptr<alpha_schedule> clone() const override;

  [[nodiscard]] std::string name() const override {
    return "random-matchings";
  }

 private:
  random_matching_schedule(const graph* g, std::uint64_t seed,
                           std::vector<real_t> edge_alpha);

  const graph* g_;  // non-owning; the linear_process keeps the graph alive
  std::uint64_t seed_;
  std::vector<real_t> edge_alpha_;
  // The round cache: begin_round(t) draws round t's matching into buffers
  // reused across rounds (sequential — the greedy draw's result depends on
  // visit order), leaving per-edge marks that fill slices read. Mutable
  // because drawing is caching, not observable state; written only in
  // begin_round, before any slice runs.
  mutable matching_scratch draw_;
  mutable round_t drawn_round_ = -1;
};

/// The general linear process: additive and terminating by construction
/// (Lemma 1). β = 1 gives first-order behaviour; β in (1, 2] gives SOS. It
/// is the library's continuous process A — FOS, SOS and both matching models
/// are linear processes over different α schedules.
///
/// Steps in two phases — compute flows (per edge), then apply them (per
/// node, incident edges in ascending id order) — through the shared
/// `sharded_stepper` protocol, so the round can be sharded over a thread
/// pool via `enable_sharded_stepping` with bit-identical results at any
/// shard count (see core/sharding.hpp). A flow imitator runs its own round
/// inside those two phases, as tails (see step(edge_tail, node_tail)).
class linear_process final : public sharded_stepper {
 public:
  /// Per-chunk work a caller runs inside step()'s edge phase, on the chunk's
  /// edge slice.
  using edge_tail = std::function<void(const edge_slice&)>;
  /// Per-chunk work a caller runs inside step()'s node phase, on the chunk's
  /// node range [i0, i1); returns an integer that step() sums.
  using node_tail = std::function<weight_t(node_id, node_id)>;

  linear_process(std::shared_ptr<const graph> g, speed_vector s,
                 std::unique_ptr<alpha_schedule> schedule, real_t beta,
                 std::string process_name);

  /// Starts (or restarts) the process from load vector `x0` (size n, >= 0).
  void reset(std::vector<real_t> x0);

  /// Executes one synchronous round. Requires reset() first.
  void step() { (void)step(nullptr, nullptr); }

  /// Executes one round that also runs the caller's tails: `edge` on each
  /// edge chunk right after that chunk's flow update, `node` on each node
  /// chunk right after that chunk's apply (a null tail is skipped). Returns
  /// the sum of `node`'s returns, folded beside the Definition-1 check.
  /// Tails keep the phase purity rules (core/sharding.hpp): an edge tail
  /// reads f^A of its own chunk's edges, which the chunk has just written,
  /// plus pre-round state, and writes only its own edges' slots; a node
  /// tail writes its own nodes' state and the slots of the edges its nodes
  /// send on. The sum is an integer fold, so the round stays bit-identical
  /// at any shard count.
  weight_t step(const edge_tail& edge, const node_tail& node);

  [[nodiscard]] const graph& topology() const override { return *g_; }
  [[nodiscard]] const speed_vector& speeds() const { return s_; }

  /// Load vector x(t) at the current time.
  [[nodiscard]] const std::vector<real_t>& loads() const { return x_; }

  /// Number of rounds executed since reset.
  [[nodiscard]] round_t rounds_executed() const { return t_; }

  /// Cumulative flow f^A_{u,v}(t-1) over edge e, oriented u→v positive,
  /// where t-1 is the last executed round (paper §3: f includes all rounds
  /// up to and including the last one).
  [[nodiscard]] real_t cumulative_flow(edge_id e) const {
    DLB_EXPECTS(e >= 0 && e < g_->num_edges());
    return cum_flow_[static_cast<size_t>(e)];
  }

  /// Flows y of the most recently executed round.
  [[nodiscard]] const std::vector<directed_flow>& last_flows() const {
    return y_prev_;
  }

  /// True if some round violated Definition 1, i.e. a node's total outgoing
  /// demand exceeded its load (only SOS can trigger this; paper §3).
  [[nodiscard]] bool negative_load_detected() const { return negative_load_; }

  /// Fresh, un-reset copy with identical configuration (including any
  /// randomness seed, so copies are coupled). It starts sequential and
  /// unobserved.
  [[nodiscard]] std::unique_ptr<linear_process> clone_fresh() const;

  /// Adds `amount` load to node i mid-run (dynamic arrivals). By additivity
  /// (Definition 3) the process keeps balancing the enlarged load; flow
  /// imitators inject into their reference through this hook. `amount` may
  /// be negative — that is how departures (service completions) are
  /// mirrored; the load may then transiently dip below a node's balanced
  /// share, which additivity also absorbs.
  void inject_load(node_id i, real_t amount);

  [[nodiscard]] std::string name() const { return name_; }
  [[nodiscard]] real_t beta() const { return beta_; }
  [[nodiscard]] const alpha_schedule& schedule() const { return *schedule_; }

 private:
  // One round's phases; `es` / [i0, i1) are one slice's ranges. The apply
  // phase returns whether the slice saw a Definition-1 violation.
  void flow_phase(const edge_slice& es);
  [[nodiscard]] bool apply_phase(node_id i0, node_id i1);
  std::shared_ptr<const graph> g_;
  speed_vector s_;
  std::unique_ptr<alpha_schedule> schedule_;
  real_t beta_;
  std::string name_;

  bool started_ = false;
  bool negative_load_ = false;
  round_t t_ = 0;
  std::vector<real_t> x_;
  std::vector<directed_flow> y_prev_;  // y(t-1), the last executed round
  std::vector<real_t> cum_flow_;       // f^A per edge, oriented u→v
  std::vector<real_t> alpha_buf_;
  bool alphas_cached_ = false;  // alpha_buf_ valid for every round (diffusion)
  std::vector<directed_flow> y_next_;  // this round's flows (reused buffer)
};

/// A second name for linear_process, kept only because the frozen scale
/// benchmark (perfbench/) still uses it.
using continuous_process = linear_process;

// ---- Factory helpers (the concrete processes of the paper) ----------------

/// First order diffusion (FOS, paper eqs. (1)-(2)).
[[nodiscard]] std::unique_ptr<linear_process> make_fos(
    std::shared_ptr<const graph> g, speed_vector s,
    std::vector<real_t> alpha);

/// Second order diffusion (SOS, paper eq. (4)); β in (0, 2].
[[nodiscard]] std::unique_ptr<linear_process> make_sos(
    std::shared_ptr<const graph> g, speed_vector s, std::vector<real_t> alpha,
    real_t beta);

/// The β minimizing SOS balancing time: 2/(1 + sqrt(1-λ²)) (paper §2.1).
[[nodiscard]] real_t optimal_sos_beta(real_t lambda);

/// Dimension exchange over a fixed periodic matching schedule.
[[nodiscard]] std::unique_ptr<linear_process> make_periodic_matching_process(
    std::shared_ptr<const graph> g, speed_vector s,
    std::vector<matching> matchings);

/// Dimension exchange over fresh random maximal matchings (seeded).
[[nodiscard]] std::unique_ptr<linear_process> make_random_matching_process(
    std::shared_ptr<const graph> g, speed_vector s, std::uint64_t seed);

/// Second-order dimension exchange: the general recurrence (eqs. (10)-(11))
/// with β in (0, 2] over a periodic matching schedule. Lemma 1's proof
/// covers arbitrary matrix sequences with β, so this hybrid is additive and
/// terminating too — the conversion framework applies unchanged.
[[nodiscard]] std::unique_ptr<linear_process>
make_sos_periodic_matching_process(std::shared_ptr<const graph> g,
                                   speed_vector s,
                                   std::vector<matching> matchings,
                                   real_t beta);

}  // namespace dlb
