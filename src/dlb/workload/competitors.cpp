#include "dlb/workload/competitors.hpp"

#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/common/contracts.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/tasks.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb::workload {

namespace {

// The reference process's name per model. Snapshots fingerprint it, so it
// keeps the names of the make_fos / make_*_matching_process factories.
const char* continuous_name(model m) {
  switch (m) {
    case model::diffusion:
      return "FOS";
    case model::periodic_matching:
      return "dimension-exchange-periodic";
    case model::random_matching:
      return "dimension-exchange-random";
  }
  return "?";
}

}  // namespace

std::string model_name(model m) {
  switch (m) {
    case model::diffusion:
      return "diffusion";
    case model::periodic_matching:
      return "periodic";
    case model::random_matching:
      return "random";
  }
  return "?";
}

model parse_model(const std::string& name) {
  if (name == "diffusion") return model::diffusion;
  if (name == "periodic") return model::periodic_matching;
  if (name == "random") return model::random_matching;
  throw contract_violation("unknown model: " + name);
}

std::unique_ptr<alpha_schedule> make_schedule(model m, const graph& g,
                                              const speed_vector& s,
                                              std::uint64_t seed) {
  switch (m) {
    case model::diffusion:
      return std::make_unique<diffusion_alpha_schedule>(
          make_alphas(g, alpha_scheme::half_max_degree));
    case model::periodic_matching: {
      const edge_coloring c = misra_gries_edge_coloring(g);
      return std::make_unique<periodic_matching_schedule>(
          g, s, to_matchings(g, c));
    }
    case model::random_matching:
      return std::make_unique<random_matching_schedule>(g, s, seed);
  }
  return nullptr;
}

std::unique_ptr<linear_process> make_continuous(
    model m, std::shared_ptr<const graph> g, const speed_vector& s,
    std::uint64_t seed) {
  DLB_EXPECTS(g != nullptr);
  auto schedule = make_schedule(m, *g, s, seed);
  return std::make_unique<linear_process>(std::move(g), s, std::move(schedule),
                                          /*beta=*/1.0, continuous_name(m));
}

std::vector<competitor> standard_competitors(bool diffusion_model) {
  std::vector<competitor> rows;
  rows.push_back(
      {"round-down [37]", false,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, model m, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s, make_schedule(m, *g, s, seed),
             rounding_policy::round_down, tokens, seed);
       }});
  rows.push_back(
      {"quasirandom [26]", false,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, model m, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s, make_schedule(m, *g, s, seed),
             rounding_policy::quasirandom, tokens, seed);
       }});
  rows.push_back(
      {diffusion_model ? "rand-rounding [26]" : "rand-rounding [24]", true,
       [diffusion_model](std::shared_ptr<const graph> g,
                         const speed_vector& s,
                         const std::vector<weight_t>& tokens, model m,
                         std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s, make_schedule(m, *g, s, seed),
             diffusion_model ? rounding_policy::randomized_fraction
                             : rounding_policy::randomized_half,
             tokens, seed);
       }});
  if (diffusion_model) {
    rows.push_back(
        {"excess-tokens [9]", true,
         [](std::shared_ptr<const graph> g, const speed_vector& s,
            const std::vector<weight_t>& tokens, model /*m*/,
            std::uint64_t seed) {
           return std::make_unique<excess_token_process>(
               g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
               seed);
         }});
  }
  rows.push_back(
      {"Alg1 (this paper)", false,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, model m, std::uint64_t seed) {
         return std::make_unique<algorithm1>(
             make_continuous(m, g, s, seed), task_assignment::tokens(tokens));
       }});
  rows.push_back(
      {"Alg2 (this paper)", true,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, model m, std::uint64_t seed) {
         return std::make_unique<algorithm2>(make_continuous(m, g, s, seed),
                                             tokens, seed);
       }});
  return rows;
}

std::vector<competitor> competitor_subset(
    bool diffusion_model, const std::vector<std::string>& prefixes) {
  const std::vector<competitor> all = standard_competitors(diffusion_model);
  std::vector<competitor> rows;
  for (const std::string& prefix : prefixes) {
    bool found = false;
    for (const competitor& c : all) {
      if (c.name.starts_with(prefix)) {
        rows.push_back(c);
        found = true;
      }
    }
    if (!found) {
      throw contract_violation("no competitor matches prefix: " + prefix);
    }
  }
  return rows;
}

std::vector<weight_t> spike_workload(const graph& g, const speed_vector& s,
                                     weight_t spike_per_node) {
  const auto spike =
      point_mass(g.num_nodes(), 0, spike_per_node * g.num_nodes());
  return add_speed_multiple(spike, s,
                            static_cast<weight_t>(g.max_degree()));
}

}  // namespace dlb::workload
