// The adversarial spike: all load starts on one node of a poorly-expanding
// network. This is where discrete diffusion schemes classically get stuck —
// once every local difference is below one token, round-down freezes with
// discrepancy Ω(d·diam(G)) — while flow imitation keeps draining the
// *cumulative* continuous flow and lands within 2d+2.
//
// The example prints an ASCII convergence chart for both schemes.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "dlb/baselines/local_rounding.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/workload/initial_load.hpp"

namespace {

std::string bar(double value, double scale) {
  const int width = std::clamp(static_cast<int>(value / scale), 0, 60);
  return std::string(static_cast<size_t>(width), '#');
}

}  // namespace

int main() {
  using namespace dlb;

  auto g = std::make_shared<const graph>(generators::ring_of_cliques(8, 4));
  const node_id n = g->num_nodes();
  const speed_vector speeds = uniform_speeds(n);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);

  const auto tokens = workload::point_mass(n, 0, 200 * n);
  std::cout << "ring-of-cliques(8,4): n = " << n << ", d = "
            << g->max_degree() << ", diameter = " << g->diameter() << "\n"
            << "all " << 200 * n << " tokens start on node 0\n\n";

  algorithm1 alg(make_fos(g, speeds, alpha), tokens);
  local_rounding_process down(
      g, speeds, std::make_unique<diffusion_alpha_schedule>(alpha),
      rounding_policy::round_down, tokens, /*seed=*/1);

  // Find T^A, then sample both runs at 12 checkpoints.
  auto probe = make_fos(g, speeds, alpha);
  std::vector<real_t> x0(tokens.begin(), tokens.end());
  const auto bt = measure_balancing_time(*probe, x0, 2'000'000);
  const round_t T = bt.rounds;
  std::cout << "continuous FOS balancing time T = " << T << " rounds\n\n";
  std::cout << "round        Alg1(FOS)                      round-down\n";

  const double scale =
      max_min_discrepancy(tokens, speeds) / 60.0;
  round_t done = 0;
  for (int k = 0; k <= 12; ++k) {
    const round_t target = k * T / 12;
    while (done < target) {
      alg.step();
      down.step();
      ++done;
    }
    const real_t a = max_min_discrepancy(alg.real_loads(), speeds);
    const real_t b = max_min_discrepancy(down.loads(), speeds);
    std::printf("%6lld %8.1f %-22s %8.1f %s\n",
                static_cast<long long>(target), a,
                bar(a, scale).c_str(), b, bar(b, scale).c_str());
  }

  const real_t final_alg = max_min_discrepancy(alg.real_loads(), speeds);
  const real_t final_down = max_min_discrepancy(down.loads(), speeds);
  std::cout << "\nfinal discrepancy: Alg1 = " << final_alg
            << " (bound 2d+2 = " << 2 * g->max_degree() + 2
            << "), round-down = " << final_down << "\n"
            << "dummy tokens created: " << alg.dummy_created()
            << " (spike start is below the Lemma 7 floor, so some dummies "
               "are expected)\n";
  return 0;
}
