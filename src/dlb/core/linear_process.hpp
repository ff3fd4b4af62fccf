// The general linear continuous process (paper eqs. (10)-(11)) and the three
// α-schedules that instantiate every process covered by Lemma 1:
// FOS, SOS, and matching-based dimension exchange.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlb/core/process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/matching.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {

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
/// (Lemma 1). β = 1 gives first-order behaviour; β in (1, 2] gives SOS.
///
/// Steps in two phases — compute flows (per edge), then apply them (per
/// node, incident edges in ascending id order) — through the shared
/// `sharded_stepper` protocol, so the round can be sharded over a thread
/// pool via `enable_sharded_stepping` with bit-identical results at any
/// shard count (see core/sharding.hpp).
class linear_process final : public continuous_process,
                             public sharded_stepper,
                             public snapshot::checkpointable {
 public:
  linear_process(std::shared_ptr<const graph> g, speed_vector s,
                 std::unique_ptr<alpha_schedule> schedule, real_t beta,
                 std::string process_name);

  void reset(std::vector<real_t> x0) override;
  void step() override;

  [[nodiscard]] const graph& topology() const override { return *g_; }
  [[nodiscard]] const speed_vector& speeds() const override { return s_; }
  [[nodiscard]] const std::vector<real_t>& loads() const override {
    return x_;
  }
  [[nodiscard]] round_t rounds_executed() const override { return t_; }
  [[nodiscard]] real_t cumulative_flow(edge_id e) const override;
  [[nodiscard]] const std::vector<directed_flow>& last_flows() const override {
    return y_prev_;
  }
  [[nodiscard]] bool negative_load_detected() const override {
    return negative_load_;
  }
  [[nodiscard]] std::unique_ptr<continuous_process> clone_fresh()
      const override;
  void inject_load(node_id i, real_t amount) override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] real_t beta() const { return beta_; }
  [[nodiscard]] const alpha_schedule& schedule() const { return *schedule_; }

  // checkpointable: loads, previous-round flows, cumulative flows, round
  // counter. Configuration (graph, speeds, schedule, β) is fingerprinted,
  // not stored — restore into a freshly constructed identical process.
  void save_state(snapshot::writer& w) const override;
  void restore_state(snapshot::reader& r) override;

  // shardable:
  [[nodiscard]] load_extrema real_load_extrema(node_id begin,
                                               node_id end) const override;

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

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
