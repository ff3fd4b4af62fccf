// Extending dlb with your own continuous process.
//
// The conversion framework applies to ANY additive terminating process.
// Because every process of that class that we know of is a linear recurrence
// y(t) = (β-1)·y(t-1) + β·P(t)·x(t), extending dlb means writing a new
// alpha_schedule — the per-round α_{i,j}(t) coefficients, filled one edge
// slice at a time — and handing it to linear_process. Algorithm 1/2 then
// discretize it with the Theorem 3/8 guarantees.
//
// This example implements a "weighted-edge diffusion" schedule: each edge
// gets a fixed random conductance, normalized so Σ_j α_{i,j} < s_i. Think of
// it as heterogeneous link bandwidths.
#include <iostream>
#include <memory>

#include "dlb/common/rng.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

namespace {

using namespace dlb;

/// Custom schedule: static random conductances. Deterministic in its seed,
/// so coupled copies coincide (the requirement Definition 3's footnote puts
/// on randomized schedules).
class conductance_schedule final : public alpha_schedule {
 public:
  conductance_schedule(const graph& g, std::uint64_t seed)
      : alpha_(static_cast<size_t>(g.num_edges())) {
    rng_t rng = make_rng(seed, /*stream=*/0xC0DDu);
    // Draw raw conductances, then normalize by twice the max weighted
    // degree so that Σ_j α_{i,j} <= 1/2 < s_i for unit speeds.
    std::vector<real_t> raw(alpha_.size());
    for (real_t& c : raw) c = uniform_real(rng, 0.5, 2.0);
    std::vector<real_t> weighted_degree(
        static_cast<size_t>(g.num_nodes()), 0.0);
    for (edge_id e = 0; e < g.num_edges(); ++e) {
      const edge& ed = g.endpoints(e);
      weighted_degree[static_cast<size_t>(ed.u)] += raw[static_cast<size_t>(e)];
      weighted_degree[static_cast<size_t>(ed.v)] += raw[static_cast<size_t>(e)];
    }
    real_t max_wd = 0;
    for (const real_t wd : weighted_degree) max_wd = std::max(max_wd, wd);
    for (std::size_t e = 0; e < alpha_.size(); ++e) {
      alpha_[e] = raw[e] / (2.0 * max_wd);
    }
  }

  // The conductances never change, so the stepper fills them once.
  [[nodiscard]] bool time_invariant() const override { return true; }
  void fill_alphas(round_t /*t*/, real_t* out,
                   const edge_slice& es) const override {
    es.for_each(
        [&](edge_id e) { out[e] = alpha_[static_cast<std::size_t>(e)]; });
  }
  [[nodiscard]] std::unique_ptr<alpha_schedule> clone() const override {
    return std::make_unique<conductance_schedule>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "random-conductance-diffusion";
  }

 private:
  std::vector<real_t> alpha_;
};

}  // namespace

int main() {
  using namespace dlb;

  auto g = std::make_shared<const graph>(generators::torus_2d(8));
  const node_id n = g->num_nodes();
  const speed_vector s = uniform_speeds(n);

  // The custom continuous process...
  auto process = std::make_unique<linear_process>(
      g, s, std::make_unique<conductance_schedule>(*g, /*seed=*/7),
      /*beta=*/1.0, "conductance-FOS");

  // ...discretized by Algorithm 1, exactly like the built-ins.
  const auto tokens = workload::add_speed_multiple(
      workload::point_mass(n, 0, 50 * n), s,
      static_cast<weight_t>(g->max_degree()));
  algorithm1 alg(std::move(process), task_assignment::tokens(tokens));
  const experiment_result r =
      run_experiment(alg, alg.continuous(), 1'000'000);

  std::cout << "custom process : " << alg.continuous().name() << "\n"
            << "T^A            : " << r.rounds << "\n"
            << "final max-min  : " << r.final_max_min << "\n"
            << "Theorem 3 bound: " << 2 * g->max_degree() + 2 << "\n"
            << "dummies        : " << r.dummy_created << "\n";
  return r.final_max_min <=
                 static_cast<real_t>(2 * g->max_degree() + 2)
             ? 0
             : 1;
}
