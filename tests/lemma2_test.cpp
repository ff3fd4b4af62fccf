// Lemma 2, executed: if x(0) = x' + ℓ·(s_1..s_n) and A does not induce
// negative load on x', then for every node i, round t, and any subset L of
// its neighbours,
//     x^A_i(t) - Σ_{j∈L} (y^A_{i,j}(t) - y^A_{j,i}(t)) >= s_i·ℓ.
// This is the engine behind Lemma 7 / Theorem 3(2). We check it for the
// worst subsets directly: L chosen to maximize the subtracted term (all
// j with positive net outflow).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"

namespace dlb {
namespace {

enum class process_kind { fos, periodic_matching, random_matching };

std::string kind_name(process_kind k) {
  switch (k) {
    case process_kind::fos:
      return "fos";
    case process_kind::periodic_matching:
      return "periodic";
    case process_kind::random_matching:
      return "random";
  }
  return "?";
}

std::shared_ptr<const graph> make_case_graph(int which) {
  switch (which) {
    case 0:
      return std::make_shared<const graph>(generators::hypercube(4));
    case 1:
      return std::make_shared<const graph>(generators::star(9));
    default:
      return std::make_shared<const graph>(generators::ring_of_cliques(3, 4));
  }
}

std::unique_ptr<linear_process> build(process_kind k,
                                          std::shared_ptr<const graph> g,
                                          speed_vector s) {
  switch (k) {
    case process_kind::fos:
      return make_fos(g, std::move(s),
                      make_alphas(*g, alpha_scheme::half_max_degree));
    case process_kind::periodic_matching: {
      const edge_coloring c = misra_gries_edge_coloring(*g);
      return make_periodic_matching_process(g, std::move(s),
                                            to_matchings(*g, c));
    }
    case process_kind::random_matching:
      return make_random_matching_process(g, std::move(s), /*seed=*/61);
  }
  return nullptr;
}

using lemma2_params = std::tuple<process_kind, int, weight_t>;

class Lemma2Test : public ::testing::TestWithParam<lemma2_params> {};

TEST_P(Lemma2Test, ReserveNeverDipsBelowSpeedTimesEll) {
  const auto [kind, graph_case, ell] = GetParam();
  auto g = make_case_graph(graph_case);
  const node_id n = g->num_nodes();
  speed_vector s(static_cast<size_t>(n));
  for (node_id i = 0; i < n; ++i) s[static_cast<size_t>(i)] = 1 + (i % 2);

  // x' adversarial (everything on node 0), x'' = ℓ·s.
  std::vector<real_t> x0(static_cast<size_t>(n), 0.0);
  x0[0] = static_cast<real_t>(37 * n);
  for (node_id i = 0; i < n; ++i) {
    x0[static_cast<size_t>(i)] += static_cast<real_t>(ell) *
                                  static_cast<real_t>(s[static_cast<size_t>(i)]);
  }

  auto a = build(kind, g, s);
  a->reset(x0);
  for (int t = 0; t < 80; ++t) {
    // Evaluate BEFORE stepping: Lemma 2 speaks about x(t) and y(t) of the
    // same round. Take the worst subset L* = {j : y_ij - y_ji > 0}.
    // (We need y(t), which becomes available after step(); so step and use
    // the recorded pre-step loads.)
    const std::vector<real_t> x_before = a->loads();
    a->step();
    const auto& y = a->last_flows();
    for (node_id i = 0; i < n; ++i) {
      real_t worst_out = 0;
      for (const incidence& inc : g->neighbors(i)) {
        const edge& ed = g->endpoints(inc.edge);
        const directed_flow& f = y[static_cast<size_t>(inc.edge)];
        const real_t net_out =
            (ed.u == i) ? f.forward - f.backward : f.backward - f.forward;
        if (net_out > 0) worst_out += net_out;
      }
      ASSERT_GE(x_before[static_cast<size_t>(i)] - worst_out,
                static_cast<real_t>(ell) *
                        static_cast<real_t>(s[static_cast<size_t>(i)]) -
                    1e-9)
          << kind_name(kind) << " node " << i << " round " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma2Test,
    ::testing::Combine(::testing::Values(process_kind::fos,
                                         process_kind::periodic_matching,
                                         process_kind::random_matching),
                       ::testing::Range(0, 3),
                       ::testing::Values<weight_t>(0, 1, 5)),
    [](const ::testing::TestParamInfo<lemma2_params>& tpi) {
      return kind_name(std::get<0>(tpi.param)) + "_g" +
             std::to_string(std::get<1>(tpi.param)) + "_ell" +
             std::to_string(std::get<2>(tpi.param));
    });

}  // namespace
}  // namespace dlb
