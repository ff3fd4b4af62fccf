// Quickstart: discretize first-order diffusion on an 8x8 torus with
// Algorithm 1 and watch the guarantee of Theorem 3 hold.
//
//   $ ./quickstart
//
// Walkthrough:
//   1. build a graph and a continuous process (FOS),
//   2. put tokens on it (a spike plus the d·w_max floor of Lemma 7),
//   3. wrap the process in algorithm1 — the deterministic flow imitator,
//   4. run to the continuous balancing time T^A and check the bound.
#include <iostream>
#include <memory>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

int main() {
  using namespace dlb;

  // 1. The network: an 8x8 torus (n = 64, every node has degree d = 4).
  auto g = std::make_shared<const graph>(generators::torus_2d(8));
  const node_id n = g->num_nodes();
  const speed_vector speeds = uniform_speeds(n);

  // 2. Tasks: 6400 tokens on node 0, plus d tokens everywhere so that the
  //    max-min guarantee (Theorem 3(2)) is in scope — Lemma 7 then promises
  //    the infinite dummy source is never used.
  const auto tokens = workload::add_speed_multiple(
      workload::point_mass(n, 0, 6400), speeds,
      static_cast<weight_t>(g->max_degree()));

  std::cout << "initial max-min discrepancy : "
            << max_min_discrepancy(tokens, speeds) << " tokens\n";

  // 3. The continuous process to imitate: FOS with the standard
  //    alpha = 1/(2·max(d_i,d_j)) coefficients.
  auto fos = make_fos(g, speeds,
                      make_alphas(*g, alpha_scheme::half_max_degree));

  // 4. Discretize and run to T^A.
  algorithm1 alg(std::move(fos), tokens);
  const experiment_result r = run_experiment(alg, alg.continuous(),
                                             /*cap=*/1'000'000);

  const weight_t d = g->max_degree();
  std::cout << "continuous balancing time T : " << r.rounds << " rounds\n"
            << "final max-min discrepancy   : " << r.final_max_min
            << " tokens\n"
            << "Theorem 3 bound (2d·w_max+2): " << 2 * d + 2 << "\n"
            << "dummy tokens created        : " << r.dummy_created
            << " (Lemma 7 predicts 0)\n";

  return r.final_max_min <= static_cast<real_t>(2 * d + 2) ? 0 : 1;
}
