// dlb simulator — a scriptable command-line driver over the whole library.
//
// Usage (key=value arguments, all optional):
//   simulator graph=torus n=256 process=fos algo=alg1 workload=spike
//             tokens_per_node=50 seed=1 trace=out.csv
//
//   graph    = torus | hypercube | expander | arbitrary | cycle | complete
//   process  = fos | sos | periodic | random        (continuous process A)
//   algo     = alg1 | alg2 | round-down | quasirandom | randomized |
//              excess
//   workload = spike | uniform | zipf | bimodal
//   n        = target node count        tokens_per_node = load scale
//   wmax     = task weight bound (alg1 only)   smax = max speed
//   seed     = master seed              trace = CSV path for the per-round
//                                               discrepancy/potential trace
//
// Prints the experiment summary (T^A, final discrepancies, bound, dummies).
// An unknown process or algo, a count out of range, or n × tokens_per_node
// above max_cell_tokens is refused with one `error:` line before anything
// is built; a load floor (d·wmax·smax per node) above the cap is refused
// the same way once the graph fixes d.
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "dlb/analysis/args.hpp"
#include "dlb/analysis/trace.hpp"
#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"
#include "dlb/workload/scenario.hpp"

namespace {

using namespace dlb;

std::shared_ptr<const graph> build_graph(const std::string& family,
                                         node_id n, std::uint64_t seed) {
  if (family == "cycle") {
    return std::make_shared<const graph>(generators::cycle(n));
  }
  if (family == "complete") {
    return std::make_shared<const graph>(generators::complete(n));
  }
  return workload::make_graph_case(family, n, seed).g;
}

// The communication model of a `process` value; SOS diffuses like FOS.
workload::model model_of(const std::string& process) {
  if (process == "fos" || process == "sos") return workload::model::diffusion;
  if (process == "periodic") return workload::model::periodic_matching;
  if (process == "random") return workload::model::random_matching;
  throw contract_violation("unknown process: " + process);
}

std::unique_ptr<linear_process> build_process(
    const std::string& kind, std::shared_ptr<const graph> g,
    const speed_vector& s, std::uint64_t seed) {
  if (kind == "sos") {
    const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
    const real_t lambda = diffusion_lambda(*g, s, alpha);
    return make_sos(g, s, alpha, optimal_sos_beta(lambda));
  }
  return workload::make_continuous(model_of(kind), std::move(g), s, seed);
}

std::vector<weight_t> build_workload(const std::string& kind, node_id n,
                                     weight_t per_node, std::uint64_t seed) {
  if (kind == "spike") return workload::point_mass(n, 0, per_node * n);
  if (kind == "uniform") {
    return workload::uniform_random(n, per_node * n, seed);
  }
  if (kind == "zipf") return workload::zipf(n, per_node * n, 1.1, seed);
  if (kind == "bimodal") {
    return workload::bimodal(n, 0, 2 * per_node, 0.5, seed);
  }
  throw contract_violation("unknown workload: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const analysis::arg_map args(argc, argv);
    const std::string family = args.get("graph", "torus");
    const std::string process = args.get("process", "fos");
    const std::string algo = args.get("algo", "alg1");
    const std::string workload_kind = args.get("workload", "spike");
    const auto n = static_cast<node_id>(
        args.get_int("n", 256, 1, std::numeric_limits<node_id>::max()));
    const weight_t per_node =
        args.get_int("tokens_per_node", 50, 0, max_cell_tokens);
    const weight_t wmax = args.get_int("wmax", 1, 1, max_cell_tokens);
    const weight_t smax = args.get_int("smax", 1, 1, max_cell_tokens);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::string trace_path = args.get("trace", "");

    for (const std::string& key : args.unused_keys()) {
      std::cerr << "unknown argument: " << key << "\n";
      return 2;
    }
    const workload::model comm = model_of(process);
    static const std::set<std::string> algos = {
        "alg1", "alg2", "excess", "round-down", "quasirandom", "randomized"};
    if (algos.count(algo) == 0) {
      throw contract_violation("unknown algorithm: " + algo);
    }
    runtime::require_cell_tokens("tokens_per_node", per_node, {n}, "nodes");

    auto g = build_graph(family, n, seed);
    const speed_vector s =
        smax == 1 ? uniform_speeds(g->num_nodes())
                  : workload::random_speeds(g->num_nodes(), smax, seed);
    const weight_t d = g->max_degree();
    // The sufficient-load floor below adds up to d·wmax·smax tokens per node.
    runtime::require_cell_tokens("wmax", wmax, {d, smax, g->num_nodes()},
                                 "(d × smax × nodes)");

    // Sufficient-load floor so the max-min theorems are in scope.
    auto tokens = workload::add_speed_multiple(
        build_workload(workload_kind, g->num_nodes(), per_node, seed), s,
        d * wmax);

    std::unique_ptr<discrete_process> proc;
    if (algo == "alg1") {
      // Unit tokens run on the count store; weighted tasks need the task
      // store.
      const algorithm1_config config{.removal = removal_policy::real_first,
                                     .wmax_override = wmax};
      auto reference = build_process(process, g, s, seed);
      proc = wmax == 1
                 ? std::make_unique<algorithm1>(std::move(reference), tokens,
                                                config)
                 : std::make_unique<algorithm1>(
                       std::move(reference),
                       workload::decompose_uniform_weights(tokens, wmax, seed),
                       config);
    } else if (algo == "alg2") {
      proc = std::make_unique<algorithm2>(build_process(process, g, s, seed),
                                          tokens, seed);
    } else if (algo == "excess") {
      proc = std::make_unique<excess_token_process>(
          g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
          seed);
    } else {
      rounding_policy policy = rounding_policy::round_down;
      if (algo == "quasirandom") policy = rounding_policy::quasirandom;
      if (algo == "randomized") policy = rounding_policy::randomized_fraction;
      proc = std::make_unique<local_rounding_process>(
          g, s, workload::make_schedule(comm, *g, s, seed), policy, tokens,
          seed);
    }

    analysis::run_trace trace;
    const round_observer obs = [&](round_t t, const discrete_process& p) {
      analysis::trace_row row;
      row.round = t;
      row.max_min = max_min_discrepancy(p.real_loads(), p.speeds());
      row.max_avg = max_avg_discrepancy(p.real_loads(), p.speeds());
      row.potential = potential(p.real_loads(), p.speeds());
      row.dummy = p.dummy_created();
      trace.record(row);
    };

    // Alg1/Alg2 gate the run on the process they imitate; a baseline gets
    // the continuous process built here as its T^A probe's template.
    std::unique_ptr<linear_process> reference;
    if (proc->imitated() == nullptr) {
      reference = build_process(process, g, s, seed);
    }
    const linear_process& continuous =
        reference != nullptr ? *reference : *proc->imitated();
    const experiment_result r =
        run_experiment(*proc, continuous, /*cap=*/2'000'000, obs);

    std::cout << "graph      : " << family << " (n=" << g->num_nodes()
              << ", m=" << g->num_edges() << ", d=" << d << ")\n"
              << "process    : " << continuous.name() << "\n"
              << "algorithm  : " << proc->name() << "\n"
              << "T^A        : " << r.rounds
              << (r.continuous_converged ? "" : " (cap hit!)") << "\n"
              << "max-min    : " << r.final_max_min << "\n"
              << "max-avg    : " << r.final_max_avg << "\n"
              << "Thm 3 bound: " << 2 * d * wmax + 2 << "\n"
              << "dummies    : " << r.dummy_created << "\n";

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      trace.write_csv(out);
      std::cout << "trace      : " << trace_path << " ("
                << trace.rows().size() << " rows)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
