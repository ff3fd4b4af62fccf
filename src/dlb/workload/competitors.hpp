// The competitor registry of the paper's comparison tables (Tables 1-2),
// promoted from the bench harness into the library so that the experiment
// runtime, the examples, and the `dlb_run` driver all instantiate identical
// process sets: flow imitation (Algorithms 1-2) against round-down [37],
// quasirandom deterministic rounding [26], per-edge randomized rounding
// [26]/[24], and the excess-token scheme [9], over the diffusion and
// matching models.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dlb/core/linear_process.hpp"
#include "dlb/core/process.hpp"
#include "dlb/graph/graph.hpp"

namespace dlb::workload {

/// The communication model of a competitor row.
enum class model { diffusion, periodic_matching, random_matching };

[[nodiscard]] std::string model_name(model m);

/// Parses "diffusion" / "periodic" / "random"; throws contract_violation on
/// anything else.
[[nodiscard]] model parse_model(const std::string& name);

/// Builds the per-round α schedule for a model — the one place a model maps
/// to its schedule (the local baselines step it directly).
[[nodiscard]] std::unique_ptr<alpha_schedule> make_schedule(
    model m, const graph& g, const speed_vector& s, std::uint64_t seed);

/// Builds the continuous reference process for a model: a first-order
/// linear_process over make_schedule(m, *g, s, seed).
[[nodiscard]] std::unique_ptr<linear_process> make_continuous(
    model m, std::shared_ptr<const graph> g, const speed_vector& s,
    std::uint64_t seed);

/// One competitor row of the comparison tables.
struct competitor {
  std::string name;  ///< e.g. "Alg1 (this paper)"
  bool randomized;   ///< aggregate over several seeds if true
  std::function<std::unique_ptr<discrete_process>(
      std::shared_ptr<const graph>, const speed_vector&,
      const std::vector<weight_t>&, model, std::uint64_t seed)>
      build;
};

/// The standard competitor set (token model). `diffusion_model` controls
/// whether the excess-token row (defined only for diffusion) is produced and
/// which randomized-rounding variant is labelled.
[[nodiscard]] std::vector<competitor> standard_competitors(
    bool diffusion_model);

/// Rows of standard_competitors whose name starts with one of `prefixes`,
/// in prefix order — the per-study subsets the scaling and dynamic grids
/// run (e.g. {"round-down", "Alg1", "Alg2"}). Throws contract_violation
/// when a prefix matches nothing.
[[nodiscard]] std::vector<competitor> competitor_subset(
    bool diffusion_model, const std::vector<std::string>& prefixes);

/// The standard bench workload: a heavy spike on node 0 plus the
/// sufficient-load floor of d·w_max tokens per speed unit (so the max-min
/// guarantees of Theorems 3(2)/8(2) are in scope for the flow imitators).
[[nodiscard]] std::vector<weight_t> spike_workload(const graph& g,
                                                   const speed_vector& s,
                                                   weight_t spike_per_node);

}  // namespace dlb::workload
