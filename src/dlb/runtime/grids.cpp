#include "dlb/runtime/grids.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "dlb/analysis/locality.hpp"
#include "dlb/analysis/table.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/baselines/random_walk_balancer.hpp"
#include "dlb/common/contracts.hpp"
#include "dlb/common/rng.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/core/tasks.hpp"
#include "dlb/events/event_source.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb::runtime {

namespace {

// Stream id for graph-construction randomness, separate from cell streams
// (cells use 0, 1, 2, ... — this constant is far outside any grid size).
constexpr std::uint64_t graph_seed_stream = 0x6772617068ULL;  // "graph"

// ---------------------------------------------------------------- helpers

workload::graph_case make_case(std::string name, std::string family,
                               graph g) {
  return {std::move(name), std::move(family),
          std::make_shared<const graph>(std::move(g))};
}

/// Largest dim with 2^dim <= target (at least 2) — the sweep upper bound
/// for scaling-d; single-case construction goes through make_graph_case.
int hypercube_dim(node_id target) {
  int dim = 1;
  while ((node_id{1} << (dim + 1)) <= target) ++dim;
  return dim;
}

// The torus/hypercube sizing rules live in workload::make_graph_case so
// every grid realizes the same instances as the Tables 1-2 classes.
workload::graph_case torus_case(node_id target) {
  return workload::make_graph_case("torus", target, /*seed=*/0);
}

workload::graph_case hypercube_case(node_id target) {
  return workload::make_graph_case("hypercube", target, /*seed=*/0);
}

workload::graph_case ring_of_cliques_case(node_id target, node_id clique) {
  const node_id k = std::max<node_id>(3, target / clique);
  return make_case("ring-of-cliques(k=" + std::to_string(k) +
                       ",q=" + std::to_string(clique) + ")",
                   "arbitrary", generators::ring_of_cliques(k, clique));
}

/// run_experiment for a study cell's flow imitator, reporting to the cell's
/// probe: T^A comes off the imitator's own reference.
experiment_result run_imitator(flow_imitator& alg, const obs::probe& pb) {
  alg.set_probe(pb);
  return run_experiment(alg, alg.continuous(), static_round_cap, nullptr, pb);
}

/// Copies the standard experiment_result fields into a row.
void apply_static(result_row& row, const experiment_result& r) {
  row.rounds = r.rounds;
  row.converged = r.continuous_converged;
  row.final_max_min = r.final_max_min;
  row.final_max_avg = r.final_max_avg;
  row.dummy_created = r.dummy_created;
}

/// Mirrors the headline outcome fields into `extra` so the extras table
/// view (sweep parameter columns) shows them next to the knobs.
void push_outcomes(result_row& row) {
  row.extra.push_back({"max_min", row.final_max_min});
  row.extra.push_back({"max_avg", row.final_max_avg});
  row.extra.push_back({"dummies", static_cast<real_t>(row.dummy_created)});
}

/// A process row of a custom (study) grid; `build` is unused there.
workload::competitor variant(std::string name, bool randomized = false) {
  return {std::move(name), randomized, nullptr};
}

std::vector<real_t> default_alphas(const graph& g) {
  return make_alphas(g, alpha_scheme::half_max_degree);
}

/// Appends the paper's per-graph discrepancy ceilings (Theorems 3 and 8) so
/// measured values can be read against them straight from the rows.
void annotate_degree_bounds(const grid_spec& s, const grid_cell& cell,
                            result_row& row) {
  const graph& g = *s.graphs[cell.graph_index].g;
  const real_t d = static_cast<real_t>(g.max_degree());
  const real_t n = static_cast<real_t>(g.num_nodes());
  row.extra.push_back({"max_degree", d});
  row.extra.push_back({"bound_alg1", 2 * d + 2});
  row.extra.push_back({"bound_alg2", d / 4 + std::sqrt(d * std::log(n))});
}

grid_spec base_spec(const grid_options& opts, std::uint64_t master_seed,
                    workload::model m, bool diffusion_competitors) {
  grid_spec spec;
  spec.comm_model = m;
  spec.graphs = workload::table_graph_classes(
      opts.target_n, derive_seed(master_seed, graph_seed_stream));
  spec.processes = workload::standard_competitors(diffusion_competitors);
  spec.repeats = opts.repeats;
  spec.spike_per_node = opts.spike_per_node;
  // Sharded stepping is uniform across the engine-driven grids: every
  // competitor (and the T^A probe) steps through the shared protocol, so
  // any grid can take --shard-threads with byte-identical rows.
  spec.shard_threads = opts.shard_threads;
  return spec;
}

// ------------------------------------------------------------ table grids

grid_spec table1_grid(const grid_options& opts, std::uint64_t master) {
  grid_spec spec = base_spec(opts, master, workload::model::diffusion,
                             /*diffusion_competitors=*/true);
  spec.annotate = annotate_degree_bounds;
  return spec;
}

grid_spec table2_periodic_grid(const grid_options& opts,
                               std::uint64_t master) {
  return base_spec(opts, master, workload::model::periodic_matching,
                   /*diffusion_competitors=*/false);
}

grid_spec table2_random_grid(const grid_options& opts, std::uint64_t master) {
  return base_spec(opts, master, workload::model::random_matching,
                   /*diffusion_competitors=*/false);
}

// ---------------------------------------------------------- dynamic grids

grid_spec dynamic_uniform_grid(const grid_options& opts,
                               std::uint64_t master) {
  grid_spec spec = base_spec(opts, master, workload::model::diffusion,
                             /*diffusion_competitors=*/true);
  spec.kind = grid_kind::dynamic_arrivals;
  spec.view = table_view::mean_discrepancy;
  spec.dynamic_rounds = opts.dynamic_rounds;
  spec.arrivals_per_round = opts.arrivals_per_round;
  return spec;
}

grid_spec dynamic_bursts_grid(const grid_options& opts,
                              std::uint64_t master) {
  grid_spec spec = base_spec(opts, master, workload::model::diffusion,
                             /*diffusion_competitors=*/true);
  spec.kind = grid_kind::dynamic_arrivals;
  spec.view = table_view::mean_discrepancy;
  spec.arrivals = arrival_pattern::bursts;
  spec.dynamic_rounds = opts.dynamic_rounds;
  spec.burst_size = opts.burst_size;
  spec.burst_period = opts.burst_period;
  return spec;
}

// ------------------------------------------------------------ async grids

// Event-driven arrivals (dlb::events): a seeded Poisson token stream fires
// at real-valued virtual times between balancing rounds instead of lock-step
// at round starts — the Berenbrink et al. dynamic-averaging regime. With
// `--replay-trace FILE` an additional recorded `(time, node, count)` stream is
// replayed alongside the Poisson source.
grid_spec async_poisson_grid(const grid_options& opts, std::uint64_t master) {
  grid_spec spec = base_spec(opts, master, workload::model::diffusion,
                             /*diffusion_competitors=*/true);
  spec.kind = grid_kind::async_events;
  spec.view = table_view::mean_discrepancy;
  spec.dynamic_rounds = opts.dynamic_rounds;
  spec.arrival_rate = opts.arrival_rate;
  return spec;
}

// Open service model: Poisson arrivals plus Poisson service completions —
// tokens are served and *leave* (discrete_process::drain_tokens, mirrored
// into the continuous copy as negative load). Restricted to the competitors
// that support departures; with arrival_rate > service_rate the backlog
// grows, with the reverse the system drains toward idle servers.
grid_spec async_service_grid(const grid_options& opts, std::uint64_t master) {
  grid_spec spec = base_spec(opts, master, workload::model::diffusion,
                             /*diffusion_competitors=*/true);
  spec.processes = workload::competitor_subset(
      /*diffusion_model=*/true, {"round-down", "quasirandom", "Alg1", "Alg2"});
  spec.kind = grid_kind::async_events;
  spec.view = table_view::mean_discrepancy;
  spec.dynamic_rounds = opts.dynamic_rounds;
  spec.arrival_rate = opts.arrival_rate;
  spec.service_rate = opts.service_rate;
  return spec;
}

// ---------------------------------------------------------- scaling grids

// Figure A: final discrepancy vs network size n, per graph family. The
// headline claim of Tables 1-2 — Alg1's discrepancy is flat in n while
// round-down grows, strongly on the low-expansion family. The table view
// fits a log-log slope per (family, process): ≈ 0 for Alg1/Alg2, > 0 for
// round-down, largest on the arbitrary family.
grid_spec scaling_n_grid(const grid_options& opts, std::uint64_t master) {
  grid_spec spec;
  spec.comm_model = workload::model::diffusion;
  spec.view = table_view::discrepancy_slopes;
  spec.processes = workload::standard_competitors(true);
  spec.repeats = opts.repeats;
  spec.spike_per_node = opts.spike_per_node;
  spec.shard_threads = opts.shard_threads;
  const std::uint64_t gseed = derive_seed(master, graph_seed_stream);
  for (const char* family : {"arbitrary", "expander", "hypercube", "torus"}) {
    std::string last;
    for (const node_id t : {opts.target_n / 4, opts.target_n / 2,
                            opts.target_n}) {
      auto gc = workload::make_graph_case(family, std::max<node_id>(16, t),
                                          gseed);
      // Coarse families (hypercube doubles, torus squares) can realize the
      // same instance for nearby targets; keep each scenario column once.
      if (gc.name == last) continue;
      last = gc.name;
      spec.graphs.push_back(std::move(gc));
    }
  }
  return spec;
}

// Figure B: final discrepancy vs maximum degree d — hypercube dimension
// sweep plus complete graphs, exposing the Alg1 (Θ(d)) vs Alg2
// (O(sqrt(d log n))) crossover at large d.
grid_spec scaling_d_grid(const grid_options& opts, std::uint64_t /*master*/) {
  grid_spec spec;
  spec.comm_model = workload::model::diffusion;
  spec.processes = workload::competitor_subset(
      true, {"round-down", "Alg1", "Alg2"});
  spec.repeats = opts.repeats;
  spec.spike_per_node = opts.spike_per_node;
  spec.shard_threads = opts.shard_threads;
  const int max_dim = std::max(3, hypercube_dim(opts.target_n));
  for (int dim = 3; dim <= max_dim; ++dim) {
    spec.graphs.push_back(
        make_case("hypercube(dim=" + std::to_string(dim) + ")", "hypercube",
                  generators::hypercube(dim)));
  }
  const node_id max_complete = std::max<node_id>(8, opts.target_n / 2);
  for (node_id c = 8; c <= max_complete; c *= 2) {
    spec.graphs.push_back(make_case("complete(n=" + std::to_string(c) + ")",
                                    "complete", generators::complete(c)));
  }
  spec.annotate = annotate_degree_bounds;
  return spec;
}

// ------------------------------------------------- weighted-speeds grid

// Figure D: the heterogeneous setting. Theorem 3's bound 2·d·w_max + 2 is
// independent of n, expansion, and s_max; the sweeps hold the graph fixed
// and scale task weights (w_max), node speeds (s_max), and both at once.
grid_spec weighted_speeds_grid(const grid_options& opts,
                               std::uint64_t /*master*/) {
  struct hetero_variant {
    enum class kind { wmax, smax, combined } k;
    weight_t wmax = 1;
    weight_t smax = 1;
    workload::model m = workload::model::diffusion;
  };

  grid_spec spec;
  spec.view = table_view::extras;
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n, 5));
  spec.graphs.push_back(torus_case(opts.target_n));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n, 6));

  std::vector<hetero_variant> variants;
  using kind = hetero_variant::kind;
  for (const weight_t w : {1, 2, 4, 8, 16}) {
    spec.pairs.emplace_back(0, spec.processes.size());
    spec.processes.push_back(
        variant("Alg1 wmax=" + std::to_string(w), /*randomized=*/true));
    variants.push_back({kind::wmax, w, 1, workload::model::diffusion});
  }
  for (const weight_t s : {1, 2, 4, 8}) {
    spec.pairs.emplace_back(1, spec.processes.size());
    spec.processes.push_back(
        variant("Alg1 smax=" + std::to_string(s), /*randomized=*/true));
    variants.push_back({kind::smax, 1, s, workload::model::diffusion});
  }
  for (const workload::model m :
       {workload::model::diffusion, workload::model::periodic_matching,
        workload::model::random_matching}) {
    spec.pairs.emplace_back(2, spec.processes.size());
    spec.processes.push_back(variant(
        "Alg1 wmax=5 smax=3 (" + workload::model_name(m) + ")",
        /*randomized=*/true));
    variants.push_back({kind::combined, 5, 3, m});
  }
  spec.repeats = opts.repeats;

  spec.custom_cell = [variants](const grid_spec& s, const grid_cell& cell,
                                result_row& row, const obs::probe& pb) {
    const hetero_variant v = variants[cell.process_index];
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const weight_t d = static_cast<weight_t>(g->max_degree());
    switch (v.k) {
      case kind::wmax: {
        const speed_vector sp = uniform_speeds(n);
        const auto loads = workload::add_speed_multiple(
            workload::zipf(n, 200 * v.wmax * n, 1.0,
                           derive_seed(cell.seed, 2)),
            sp, d * v.wmax);
        algorithm1 alg(make_fos(g, sp, default_alphas(*g)),
                       workload::decompose_uniform_weights(
                           loads, v.wmax, derive_seed(cell.seed, 3)),
                       {.removal = removal_policy::real_first,
                        .wmax_override = v.wmax});
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"w_max", static_cast<real_t>(v.wmax)});
        row.extra.push_back(
            {"bound", static_cast<real_t>(2 * d * v.wmax + 2)});
        push_outcomes(row);
        break;
      }
      case kind::smax: {
        const speed_vector sp =
            workload::random_speeds(n, v.smax, derive_seed(cell.seed, 2));
        weight_t total_speed = 0;
        for (const weight_t si : sp) total_speed += si;
        const auto tokens = workload::add_speed_multiple(
            workload::point_mass(n, 0, 100 * n), sp, d);
        algorithm1 alg(make_fos(g, sp, default_alphas(*g)), tokens);
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"s_max", static_cast<real_t>(v.smax)});
        row.extra.push_back(
            {"total_speed", static_cast<real_t>(total_speed)});
        row.extra.push_back({"bound", static_cast<real_t>(2 * d + 2)});
        push_outcomes(row);
        break;
      }
      case kind::combined: {
        const speed_vector sp =
            workload::random_speeds(n, v.smax, derive_seed(cell.seed, 2));
        const auto loads = workload::add_speed_multiple(
            workload::uniform_random(n, 150 * n, derive_seed(cell.seed, 3)),
            sp, d * v.wmax);
        algorithm1 alg(
            workload::make_continuous(v.m, g, sp, derive_seed(cell.seed, 4)),
            workload::decompose_uniform_weights(loads, v.wmax,
                                                derive_seed(cell.seed, 5)),
            {.removal = removal_policy::real_first,
             .wmax_override = v.wmax});
        apply_static(row, run_imitator(alg, pb));
        row.model = workload::model_name(v.m);
        row.extra.push_back({"w_max", static_cast<real_t>(v.wmax)});
        row.extra.push_back({"s_max", static_cast<real_t>(v.smax)});
        row.extra.push_back(
            {"bound", static_cast<real_t>(2 * d * v.wmax + 2)});
        push_outcomes(row);
        break;
      }
    }
  };
  return spec;
}

// ------------------------------------------------- dummy-threshold grid

// Figure E: dummy-token usage around the Lemma 7 initial-load threshold
// d·w_max (Alg1 on a star, Alg2's d/4 + 2c·sqrt(d log n) analogue on a
// hypercube), the SOS-overshoot regime that genuinely mints dummies, and
// the Theorem 3(1) dummy-preload reporting device.
grid_spec dummy_threshold_grid(const grid_options& opts,
                               std::uint64_t /*master*/) {
  struct threshold_variant {
    enum class kind { alg1_floor, alg2_floor, sos_beta, preload } k;
    // alg1_floor: ℓ = d·num/den + offset; alg2_floor: ℓ = offset.
    int num = 0;
    int den = 1;
    weight_t offset = 0;
    real_t beta = 0;
  };

  grid_spec spec;
  spec.view = table_view::extras;
  const node_id star_n = std::max<node_id>(9, opts.target_n / 4);
  spec.graphs.push_back(make_case("star(n=" + std::to_string(star_n) + ")",
                                  "star", generators::star(star_n)));
  spec.graphs.push_back(
      hypercube_case(std::max<node_id>(16, opts.target_n / 4)));
  const node_id path_n = std::max<node_id>(8, opts.target_n / 8);
  spec.graphs.push_back(make_case("path(n=" + std::to_string(path_n) + ")",
                                  "path", generators::path(path_n)));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n / 5, 5));

  std::vector<threshold_variant> variants;
  using kind = threshold_variant::kind;
  const auto add = [&](std::size_t graph_index, std::string name,
                       bool randomized, threshold_variant v) {
    spec.pairs.emplace_back(graph_index, spec.processes.size());
    spec.processes.push_back(variant(std::move(name), randomized));
    variants.push_back(v);
  };
  // The star is the stress case for the infinite source: the hub fans flow
  // over d = n-1 edges while its cumulative inflow still has rounding slack.
  struct floor_level {
    const char* label;
    int num, den;
    weight_t offset;
  };
  for (const floor_level f :
       {floor_level{"0", 0, 1, 0}, {"d/4", 1, 4, 0}, {"d/2", 1, 2, 0},
        {"3d/4", 3, 4, 0}, {"d", 1, 1, 0}, {"d+8", 1, 1, 8}}) {
    add(0, std::string("Alg1 ell=") + f.label, false,
        {kind::alg1_floor, f.num, f.den, f.offset, 0});
  }
  for (const weight_t ell : {0, 4, 8, 12, 16}) {
    add(1, "Alg2 ell=" + std::to_string(ell), /*randomized=*/true,
        {kind::alg2_floor, 0, 1, ell, 0});
  }
  // SOS with large β induces negative continuous load (Definition 1); the
  // discrete imitator covers the overdraft from the infinite source.
  for (const real_t beta : {1.0, 1.3, 1.6, 1.8, 1.95}) {
    add(2, "Alg1(SOS) beta=" + analysis::ascii_table::fmt(beta, 2), false,
        {kind::sos_beta, 0, 1, 0, beta});
  }
  add(3, "Alg1 dummy-preload", false, {kind::preload, 0, 1, 0, 0});
  spec.repeats = opts.repeats;

  spec.custom_cell = [variants](const grid_spec& s, const grid_cell& cell,
                                result_row& row, const obs::probe& pb) {
    const threshold_variant v = variants[cell.process_index];
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const weight_t d = static_cast<weight_t>(g->max_degree());
    const speed_vector sp = uniform_speeds(n);
    switch (v.k) {
      case kind::alg1_floor: {
        const weight_t ell =
            d * static_cast<weight_t>(v.num) / static_cast<weight_t>(v.den) +
            v.offset;
        const auto tokens = workload::add_speed_multiple(
            workload::point_mass(n, /*at=*/1, 60 * n), sp, ell);
        algorithm1 alg(make_fos(g, sp, default_alphas(*g)), tokens);
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"floor", static_cast<real_t>(ell)});
        row.extra.push_back({"threshold", static_cast<real_t>(d)});
        push_outcomes(row);
        break;
      }
      case kind::alg2_floor: {
        const auto tokens = workload::add_speed_multiple(
            workload::point_mass(n, 0, 60 * n), sp, v.offset);
        algorithm2 alg(make_fos(g, sp, default_alphas(*g)), tokens,
                       cell.seed);
        apply_static(row, run_imitator(alg, pb));
        const real_t dr = static_cast<real_t>(d);
        row.extra.push_back({"floor", static_cast<real_t>(v.offset)});
        row.extra.push_back(
            {"theory",
             dr / 4 + 2 * std::sqrt(dr * std::log(static_cast<real_t>(n)))});
        push_outcomes(row);
        break;
      }
      case kind::sos_beta: {
        algorithm1 alg(make_sos(g, sp, default_alphas(*g), v.beta),
                       workload::point_mass(n, 0, 100 * n));
        const auto r = run_imitator(alg, pb);
        apply_static(row, r);
        row.extra.push_back({"beta", v.beta});
        row.extra.push_back(
            {"negative_load", r.continuous_negative_load ? 1.0 : 0.0});
        push_outcomes(row);
        break;
      }
      case kind::preload: {
        algorithm1 alg(make_fos(g, sp, default_alphas(*g)),
                       workload::point_mass(n, 0, 80 * n), {},
                       workload::add_speed_multiple(
                           std::vector<weight_t>(static_cast<size_t>(n), 0),
                           sp, d));
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"preload_per_speed", static_cast<real_t>(d)});
        row.extra.push_back({"bound", static_cast<real_t>(2 * d + 2)});
        push_outcomes(row);
        break;
      }
    }
  };
  return spec;
}

// ----------------------------------------------------- convergence grid

// Figure C: max-min discrepancy traces at 10% checkpoints of T^FOS — the
// discrete curves track the continuous one until the rounding floor, and
// round-down plateaus far above Alg1 on the low-expansion graph.
grid_spec convergence_grid(const grid_options& opts, std::uint64_t /*master*/) {
  enum class trace_kind { fos, sos, alg1, alg2, round_down };

  grid_spec spec;
  spec.view = table_view::extras;
  spec.graphs.push_back(torus_case(opts.target_n));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n, 6));

  std::vector<trace_kind> variants;
  const auto add = [&](std::string name, trace_kind k) {
    spec.processes.push_back(variant(std::move(name)));
    variants.push_back(k);
  };
  add("FOS (continuous)", trace_kind::fos);
  add("SOS opt-beta (continuous)", trace_kind::sos);
  add("Alg1(FOS)", trace_kind::alg1);
  add("Alg2(FOS)", trace_kind::alg2);
  add("round-down(FOS)", trace_kind::round_down);
  spec.spike_per_node = 2 * opts.spike_per_node;

  // T^FOS anchors every trace so the checkpoint columns line up; it depends
  // only on the graph (the probe draws no cell randomness), so measure it
  // once per graph here instead of once per cell.
  struct trace_anchor {
    real_t lambda = 0;
    round_t T = 0;
    bool converged = false;
  };
  std::vector<trace_anchor> anchors;
  for (const workload::graph_case& gc : spec.graphs) {
    const speed_vector sp = uniform_speeds(gc.g->num_nodes());
    const auto alpha = default_alphas(*gc.g);
    const auto tokens =
        workload::spike_workload(*gc.g, sp, spec.spike_per_node);
    const std::vector<real_t> x0(tokens.begin(), tokens.end());
    auto probe = make_fos(gc.g, sp, alpha);
    const auto bt = measure_balancing_time(*probe, x0, static_round_cap);
    anchors.push_back(
        {diffusion_lambda(*gc.g, sp, alpha), bt.rounds, bt.converged});
  }

  spec.custom_cell = [variants, anchors](const grid_spec& s,
                                         const grid_cell& cell,
                                         result_row& row,
                                         const obs::probe& pb) {
    const trace_kind k = variants[cell.process_index];
    const trace_anchor& anchor = anchors[cell.graph_index];
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const speed_vector sp = uniform_speeds(n);
    const auto alpha = default_alphas(*g);
    const real_t lambda = anchor.lambda;
    const auto tokens = workload::spike_workload(*g, sp, s.spike_per_node);
    const std::vector<real_t> x0(tokens.begin(), tokens.end());

    const round_t T = anchor.T;
    std::vector<round_t> checkpoints;
    for (int c = 0; c <= 10; ++c) checkpoints.push_back(c * T / 10);

    std::vector<real_t> series;
    const auto sample = [&](auto& p, const auto& loads_of) {
      p.set_probe(pb);
      std::size_t next = 0;
      for (round_t t = 0; t <= T; ++t) {
        while (next < checkpoints.size() && t == checkpoints[next]) {
          series.push_back(max_min_discrepancy(loads_of(p), sp));
          ++next;
        }
        if (t < T) counted_round(p, pb);
      }
    };
    const auto sample_continuous = [&](std::unique_ptr<linear_process> p) {
      p->reset(x0);
      sample(*p, [](const linear_process& q) -> const std::vector<real_t>& {
        return q.loads();
      });
    };
    const auto sample_discrete = [&](discrete_process& p) {
      sample(p, [](const discrete_process& q) { return q.real_loads(); });
    };
    switch (k) {
      case trace_kind::fos:
        sample_continuous(make_fos(g, sp, alpha));
        break;
      case trace_kind::sos:
        sample_continuous(make_sos(g, sp, alpha, optimal_sos_beta(lambda)));
        break;
      case trace_kind::alg1: {
        algorithm1 alg(make_fos(g, sp, alpha), tokens);
        sample_discrete(alg);
        break;
      }
      case trace_kind::alg2: {
        algorithm2 alg(make_fos(g, sp, alpha), tokens, cell.seed);
        sample_discrete(alg);
        break;
      }
      case trace_kind::round_down: {
        local_rounding_process down(
            g, sp, std::make_unique<diffusion_alpha_schedule>(alpha),
            rounding_policy::round_down, tokens, cell.seed);
        sample_discrete(down);
        break;
      }
    }
    row.rounds = T;
    row.converged = anchor.converged;
    row.final_max_min = series.back();
    row.extra.push_back({"lambda", lambda});
    row.extra.push_back({"T_fos", static_cast<real_t>(T)});
    for (std::size_t c = 0; c < series.size(); ++c) {
      row.extra.push_back(
          {"t/T=" + analysis::ascii_table::fmt(
                        static_cast<double>(c) / 10.0, 1),
           series[c]});
    }
  };
  return spec;
}

// -------------------------------------------------------- locality grid

// Figure G (intro claim): neighbourhood balancing keeps tasks near their
// origin — displacement of every task vs the mean pairwise distance (the
// cost of an arbitrary route-anywhere reassignment).
grid_spec locality_grid(const grid_options& opts, std::uint64_t /*master*/) {
  grid_spec spec;
  spec.view = table_view::extras;
  spec.graphs.push_back(torus_case(opts.target_n));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n, 5));
  spec.processes.push_back(variant("Alg1 balanced+spike"));
  spec.processes.push_back(variant("Alg1 point-mass"));
  spec.pairs = {{0, 0}, {0, 1}, {1, 0}};

  spec.custom_cell = [](const grid_spec& s, const grid_cell& cell,
                        result_row& row, const obs::probe& pb) {
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const speed_vector sp = uniform_speeds(n);
    const auto loads =
        cell.process_index == 0
            ? workload::balanced_plus_spike(n, 40, 0, 4 * n)
            : workload::point_mass(n, 0, 40 * n);
    algorithm1 alg(
        workload::make_continuous(workload::model::diffusion, g, sp,
                                  cell.seed),
        task_assignment::tokens(loads));
    apply_static(row, run_imitator(alg, pb));
    const auto stats = analysis::task_locality(*g, alg.tasks());
    row.extra.push_back({"T_A", static_cast<real_t>(row.rounds)});
    row.extra.push_back({"max_min", row.final_max_min});
    row.extra.push_back({"tasks", static_cast<real_t>(stats.tasks)});
    row.extra.push_back({"mean_displacement", stats.mean_distance});
    row.extra.push_back(
        {"max_displacement", static_cast<real_t>(stats.max_distance)});
    row.extra.push_back({"stationary_fraction", stats.stationary_fraction});
    row.extra.push_back(
        {"mean_pairwise_distance", analysis::mean_pairwise_distance(*g)});
  };
  return spec;
}

// -------------------------------------------------------- ablation grid

// The DESIGN.md ablations: Alg1 removal policy in the dummy-minting regime,
// FOS α scheme, periodic-matching colouring, and random-walk laziness.
grid_spec ablation_grid(const grid_options& opts, std::uint64_t master) {
  struct ablation_variant {
    enum class kind { removal, alpha, coloring, random_walk } k;
    removal_policy policy = removal_policy::real_first;
    alpha_scheme scheme = alpha_scheme::half_max_degree;
    bool misra_gries = true;
    double laziness = 0;
  };

  grid_spec spec;
  spec.view = table_view::extras;
  const node_id path_n = std::max<node_id>(8, opts.target_n / 8);
  spec.graphs.push_back(make_case("path(n=" + std::to_string(path_n) + ")",
                                  "path", generators::path(path_n)));
  spec.graphs.push_back(torus_case(std::max<node_id>(16, opts.target_n / 2)));
  spec.graphs.push_back(
      hypercube_case(std::max<node_id>(16, opts.target_n / 2)));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n / 4, 5));
  const node_id reg_n = std::max<node_id>(16, opts.target_n / 2);
  spec.graphs.push_back(
      make_case("random-4-regular(n=" + std::to_string(reg_n) + ")",
                "expander",
                generators::random_regular(
                    reg_n, 4, derive_seed(master, graph_seed_stream))));

  std::vector<ablation_variant> variants;
  using kind = ablation_variant::kind;
  const auto add = [&](std::size_t graph_index, std::string name,
                       ablation_variant v) {
    spec.pairs.emplace_back(graph_index, spec.processes.size());
    spec.processes.push_back(variant(std::move(name)));
    variants.push_back(v);
  };
  const auto reuse = [&](std::size_t graph_index, std::size_t process_index) {
    spec.pairs.emplace_back(graph_index, process_index);
  };
  add(0, "Alg1 removal=real-first",
      {kind::removal, removal_policy::real_first, {}, true, 0});
  add(0, "Alg1 removal=dummy-first",
      {kind::removal, removal_policy::dummy_first, {}, true, 0});
  add(1, "Alg1 alpha=1/(2 max d)",
      {kind::alpha, {}, alpha_scheme::half_max_degree, true, 0});
  add(1, "Alg1 alpha=1/(max d+1)",
      {kind::alpha, {}, alpha_scheme::max_degree_plus_one, true, 0});
  reuse(2, 2);
  reuse(2, 3);
  add(2, "periodic colouring=Misra-Gries",
      {kind::coloring, {}, {}, /*misra_gries=*/true, 0});
  add(2, "periodic colouring=greedy",
      {kind::coloring, {}, {}, /*misra_gries=*/false, 0});
  reuse(3, 4);
  reuse(3, 5);
  for (const double lazy : {0.0, 0.25, 0.5, 0.75}) {
    add(4, "random-walk laziness=" + analysis::ascii_table::fmt(lazy, 2),
        {kind::random_walk, {}, {}, true, lazy});
  }

  spec.custom_cell = [variants](const grid_spec& s, const grid_cell& cell,
                                result_row& row, const obs::probe& pb) {
    const ablation_variant v = variants[cell.process_index];
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const speed_vector sp = uniform_speeds(n);
    switch (v.k) {
      case kind::removal: {
        // The dummy-minting regime (SOS overshoot) where the policy matters.
        algorithm1 alg(make_sos(g, sp, default_alphas(*g), 1.95),
                       workload::point_mass(n, 0, 100 * n),
                       {.removal = v.policy, .wmax_override = 0});
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"beta", 1.95});
        push_outcomes(row);
        break;
      }
      case kind::alpha: {
        const auto alpha = make_alphas(*g, v.scheme);
        const auto tokens = workload::spike_workload(*g, sp, 50);
        algorithm1 alg(make_fos(g, sp, alpha), tokens);
        apply_static(row, run_imitator(alg, pb));
        row.extra.push_back({"lambda", diffusion_lambda(*g, sp, alpha)});
        row.extra.push_back({"T_fos", static_cast<real_t>(row.rounds)});
        row.extra.push_back({"max_min", row.final_max_min});
        break;
      }
      case kind::coloring: {
        const edge_coloring c = v.misra_gries
                                    ? misra_gries_edge_coloring(*g)
                                    : greedy_edge_coloring(*g);
        auto p = make_periodic_matching_process(g, sp, to_matchings(*g, c));
        p->set_probe(pb);
        std::vector<real_t> x0(static_cast<std::size_t>(n), 0.0);
        x0[0] = static_cast<real_t>(100 * n);
        const auto bt = measure_balancing_time(*p, x0, static_round_cap, pb);
        row.rounds = bt.rounds;
        row.converged = bt.converged;
        row.model = workload::model_name(workload::model::periodic_matching);
        row.extra.push_back({"colors", static_cast<real_t>(c.num_colors)});
        row.extra.push_back(
            {"T_periodic", static_cast<real_t>(bt.rounds)});
        break;
      }
      case kind::random_walk: {
        random_walk_balancer p(
            g, sp, default_alphas(*g), workload::point_mass(n, 0, 100 * n),
            cell.seed, {.phase1_rounds = 200, .slack = 1, .laziness = v.laziness});
        p.set_probe(pb);
        run_rounds(p, 2200, nullptr, pb);
        row.rounds = 2200;
        row.final_max_min = max_min_discrepancy(p.loads(), sp);
        row.extra.push_back({"laziness", v.laziness});
        row.extra.push_back(
            {"positive_left", static_cast<real_t>(p.positive_tokens())});
        row.extra.push_back(
            {"negative_left", static_cast<real_t>(p.negative_tokens())});
        row.extra.push_back({"max_min", row.final_max_min});
        break;
      }
    }
  };
  return spec;
}

// ----------------------------------------------------- huge-uniform grid

// Sharded huge-graph stepping: a single ring / torus / hypercube with n in
// the millions under a uniform token stream — the regime of Sauerwald–Sun
// (arbitrary topologies at scale) and Berenbrink et al.'s dynamic
// averaging. A static run is off the table here (T^FOS on a ring grows with
// n²), so the grid is a dynamic-arrivals study: fixed round budget,
// steady-state discrepancy band. The *full* competitor set runs — every
// process steps through the shared sharding protocol — plus an Alg1 row
// over a periodic schedule from the *greedy* colouring (Misra–Gries's
// O(m·n) worst case is prohibitive at this scale) and the random-walk
// baseline of [19]. Cells honour `opts.shard_threads`: rounds step
// shard-parallel with byte-identical rows at any thread count
// (docs/ARCHITECTURE.md, "Sharded stepping").
grid_spec huge_uniform_grid(const grid_options& opts,
                            std::uint64_t /*master*/) {
  grid_spec spec;
  spec.kind = grid_kind::dynamic_arrivals;
  spec.view = table_view::mean_discrepancy;
  spec.comm_model = workload::model::diffusion;
  spec.shard_threads = opts.shard_threads;
  spec.dynamic_rounds = opts.dynamic_rounds;
  spec.arrivals_per_round = opts.arrivals_per_round;
  spec.spike_per_node = opts.spike_per_node;
  spec.repeats = opts.repeats;

  const node_id ring_n = std::max<node_id>(16, opts.target_n);
  spec.graphs.push_back(make_case("ring(n=" + std::to_string(ring_n) + ")",
                                  "ring", generators::cycle(ring_n)));
  spec.graphs.push_back(torus_case(opts.target_n));
  spec.graphs.push_back(hypercube_case(opts.target_n));

  spec.processes = workload::standard_competitors(/*diffusion_model=*/true);
  const std::size_t matching_row = spec.processes.size();
  spec.processes.push_back(
      {"Alg1 (periodic matchings, greedy)", false,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, workload::model,
          std::uint64_t) -> std::unique_ptr<discrete_process> {
         const edge_coloring c = greedy_edge_coloring(*g);
         return std::make_unique<algorithm1>(
             make_periodic_matching_process(g, s, to_matchings(*g, c)),
             tokens);
       }});
  spec.processes.push_back(
      {"random-walk [19]", true,
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, workload::model,
          std::uint64_t seed) -> std::unique_ptr<discrete_process> {
         // A short coarse phase spreads the spike before the walkers mark.
         return std::make_unique<random_walk_balancer>(
             g, s, default_alphas(*g), tokens, seed,
             random_walk_config{
                 .phase1_rounds = 50, .slack = 1, .laziness = 0.5});
       }});
  // The matching row ignores spec.comm_model (it fixes its own schedule);
  // relabel it so the model column stays honest. Note: shard_threads
  // deliberately never reaches the rows — rows must stay byte-identical
  // across shard counts.
  spec.annotate = [matching_row](const grid_spec&, const grid_cell& cell,
                                 result_row& row) {
    if (cell.process_index == matching_row) {
      row.model = workload::model_name(workload::model::periodic_matching);
    }
  };
  return spec;
}

// ------------------------------------------------------ huge-static grid

// Static T^A at n ≈ 1M: the probe loop (measure_balancing_time →
// is_balanced every round) and every competitor's rounds run shard-parallel,
// which is what makes million-node *static* balancing-time studies feasible
// — the probe's O(n) membership test was the last sequential scan on this
// path. Families whose T^A stays tame at scale only: hypercube and a random
// 4-regular expander (a ring's T^FOS ~ n² is off the table; that regime is
// huge-uniform's). Full competitor set, spike workload, discrepancy view —
// Table 1 at three orders of magnitude more nodes.
grid_spec huge_static_grid(const grid_options& opts, std::uint64_t master) {
  grid_spec spec;
  spec.comm_model = workload::model::diffusion;
  spec.shard_threads = opts.shard_threads;
  spec.spike_per_node = opts.spike_per_node;
  spec.repeats = opts.repeats;
  spec.processes = workload::standard_competitors(/*diffusion_model=*/true);
  spec.graphs.push_back(hypercube_case(opts.target_n));
  const node_id reg_n = std::max<node_id>(16, opts.target_n);
  spec.graphs.push_back(
      make_case("random-4-regular(n=" + std::to_string(reg_n) + ")",
                "expander",
                generators::random_regular(
                    reg_n, 4, derive_seed(master, graph_seed_stream))));
  spec.annotate = annotate_degree_bounds;
  return spec;
}

// -------------------------------------------------- balancing-time grid

// Figure F: continuous balancing times vs spectral predictions —
// T_FOS ~ 1/(1-λ), T_SOS ~ 1/sqrt(1-λ) at the optimal β, matchings vs γ.
grid_spec balancing_time_grid(const grid_options& opts,
                              std::uint64_t master) {
  enum class process_kind { fos, sos, periodic, random };

  grid_spec spec;
  spec.view = table_view::rounds;
  spec.graphs.push_back(hypercube_case(opts.target_n));
  spec.graphs.push_back(torus_case(opts.target_n));
  const node_id reg_n = std::max<node_id>(16, opts.target_n);
  spec.graphs.push_back(
      make_case("random-4-regular(n=" + std::to_string(reg_n) + ")",
                "expander",
                generators::random_regular(
                    reg_n, 4, derive_seed(master, graph_seed_stream))));
  spec.graphs.push_back(ring_of_cliques_case(opts.target_n, 5));
  const node_id cycle_n = std::max<node_id>(8, opts.target_n / 2);
  spec.graphs.push_back(make_case("cycle(n=" + std::to_string(cycle_n) + ")",
                                  "cycle", generators::cycle(cycle_n)));

  std::vector<process_kind> variants;
  const auto add = [&](std::string name, process_kind k) {
    spec.processes.push_back(variant(std::move(name)));
    variants.push_back(k);
  };
  add("FOS", process_kind::fos);
  add("SOS opt-beta", process_kind::sos);
  add("periodic (Misra-Gries)", process_kind::periodic);
  add("random matchings", process_kind::random);

  spec.custom_cell = [variants](const grid_spec& s, const grid_cell& cell,
                                result_row& row, const obs::probe& pb) {
    const process_kind k = variants[cell.process_index];
    const auto g = s.graphs[cell.graph_index].g;
    const node_id n = g->num_nodes();
    const speed_vector sp = uniform_speeds(n);
    const auto alpha = default_alphas(*g);
    const real_t lambda = diffusion_lambda(*g, sp, alpha);
    std::vector<real_t> x0(static_cast<std::size_t>(n), 0.0);
    x0[0] = static_cast<real_t>(100 * n);

    std::unique_ptr<linear_process> p;
    real_t predictor = 0;
    switch (k) {
      case process_kind::fos:
        p = make_fos(g, sp, alpha);
        predictor = 1.0 / (1.0 - lambda);
        break;
      case process_kind::sos:
        p = make_sos(g, sp, alpha, optimal_sos_beta(lambda));
        predictor = 1.0 / std::sqrt(1.0 - lambda);
        break;
      case process_kind::periodic: {
        const edge_coloring c = misra_gries_edge_coloring(*g);
        p = make_periodic_matching_process(g, sp, to_matchings(*g, c));
        predictor = static_cast<real_t>(c.num_colors);
        row.model = workload::model_name(workload::model::periodic_matching);
        break;
      }
      case process_kind::random:
        p = make_random_matching_process(g, sp, cell.seed);
        predictor = laplacian_gamma(*g);
        row.model = workload::model_name(workload::model::random_matching);
        break;
    }
    p->set_probe(pb);
    const auto bt = measure_balancing_time(*p, x0, static_round_cap, pb);
    row.rounds = bt.rounds;
    row.converged = bt.converged;
    row.extra.push_back({"lambda", lambda});
    row.extra.push_back({"predictor", predictor});
  };
  return spec;
}

// -------------------------------------------------------------- registry

struct grid_entry {
  const char* name;
  const char* description;
  grid_spec (*build)(const grid_options&, std::uint64_t);
};

constexpr grid_entry registry[] = {
    {"table1", "Table 1: diffusion model, final max-min discrepancy at T^A",
     table1_grid},
    {"table2-periodic",
     "Table 2: periodic matchings (Misra-Gries colouring) at T^A",
     table2_periodic_grid},
    {"table2-random",
     "Table 2: fresh random maximal matchings each round, at T^A",
     table2_random_grid},
    {"scaling-n",
     "Figure A: final discrepancy vs network size n, per graph family",
     scaling_n_grid},
    {"scaling-d",
     "Figure B: final discrepancy vs max degree d (hypercubes + complete)",
     scaling_d_grid},
    {"convergence",
     "Figure C: max-min discrepancy traces at 10% checkpoints of T^FOS",
     convergence_grid},
    {"weighted-speeds",
     "Figure D: heterogeneous tasks (w_max) and speeds (s_max) vs Theorem 3",
     weighted_speeds_grid},
    {"dummy-threshold",
     "Figure E: dummy usage around the d*w_max initial-load threshold",
     dummy_threshold_grid},
    {"balancing-time",
     "Figure F: continuous balancing times T vs spectral predictions",
     balancing_time_grid},
    {"locality",
     "Figure G: task displacement of Alg1 vs arbitrary reassignment",
     locality_grid},
    {"ablation",
     "Ablations: removal policy, alpha scheme, colouring, walk laziness",
     ablation_grid},
    {"dynamic-uniform",
     "Dynamic arrivals: uniform token stream while diffusing",
     dynamic_uniform_grid},
    {"dynamic-bursts",
     "Dynamic arrivals: periodic bursts at one hotspot while diffusing",
     dynamic_bursts_grid},
    {"huge-uniform",
     "Huge-graph stream: full competitor set on ring/torus/hypercube, "
     "stepped shard-parallel (--shard-threads)",
     huge_uniform_grid},
    {"huge-static",
     "Huge-graph T^A: full competitor set to the sharded balancing-time "
     "probe (--shard-threads)",
     huge_static_grid},
    {"async-poisson",
     "Event-driven arrivals: seeded Poisson stream interleaved with rounds "
     "(--arrival-rate)",
     async_poisson_grid},
    {"async-service",
     "Event-driven open service model: Poisson arrivals + departures "
     "(--service-rate)",
     async_service_grid},
};

/// Refuses a Poisson `rate` (events per unit of virtual time) whose
/// expected event count over `rounds` exceeds max_cell_tokens, naming the
/// flag: an event-driven cell fires every event its source draws, so the
/// rate bounds its traffic as a count bounds a lock-step cell's.
void require_cell_rate(const char* flag, real_t rate, round_t rounds) {
  if (rate * static_cast<real_t>(rounds) <=
      static_cast<real_t>(max_cell_tokens)) {
    return;
  }
  std::ostringstream os;
  os << "argument '" << flag << "': rate " << rate << " × " << rounds
     << " rounds exceeds the cap of " << max_cell_tokens
     << " tokens per cell";
  throw contract_violation(os.str());
}

/// Refuses a grid whose cells would be asked to create more than
/// max_cell_tokens tokens, naming the flag that sets the count.
void check_cell_tokens(const grid_spec& spec) {
  for (const workload::graph_case& gc : spec.graphs) {
    require_cell_tokens("spike-per-node", spec.spike_per_node,
                        {gc.g->num_nodes()}, "nodes of " + gc.name);
  }
  if (spec.kind == grid_kind::async_events) {
    require_cell_rate("arrival-rate", spec.arrival_rate, spec.dynamic_rounds);
    require_cell_rate("service-rate", spec.service_rate, spec.dynamic_rounds);
    return;
  }
  if (spec.kind != grid_kind::dynamic_arrivals) return;
  const round_t rounds = spec.dynamic_rounds;
  if (spec.arrivals == arrival_pattern::uniform) {
    require_cell_tokens("arrivals-per-round", spec.arrivals_per_round,
                        {rounds}, "rounds");
  } else {
    require_cell_tokens("burst-size", spec.burst_size,
                        {(rounds - 1) / spec.burst_period + 1}, "bursts");
  }
}

}  // namespace

void require_cell_tokens(const char* flag, weight_t tokens,
                         std::initializer_list<std::int64_t> factors,
                         const std::string& what) {
  weight_t room = max_cell_tokens;
  std::string product;
  for (const std::int64_t f : factors) {
    room /= std::max<std::int64_t>(f, 1);
    product += " × " + std::to_string(f);
  }
  if (tokens <= room) return;
  throw contract_violation(std::string("argument '") + flag + "': " +
                           std::to_string(tokens) + " tokens" + product + " " +
                           what + " exceeds the cap of " +
                           std::to_string(max_cell_tokens) +
                           " tokens per cell");
}

std::vector<grid_info> list_grids() {
  std::vector<grid_info> infos;
  for (const grid_entry& e : registry) {
    infos.push_back({e.name, e.description});
  }
  return infos;
}

grid_spec make_named_grid(const std::string& name, const grid_options& opts,
                          std::uint64_t master_seed) {
  for (const grid_entry& e : registry) {
    if (name == e.name) {
      grid_spec spec = e.build(opts, master_seed);
      spec.name = e.name;
      spec.description = e.description;
      DLB_ENSURES(!spec.graphs.empty() && !spec.processes.empty());
      check_cell_tokens(spec);
      if (spec.kind == grid_kind::async_events && !opts.trace_path.empty()) {
        spec.trace_proto = events::load_trace(opts.trace_path);
      }
      return spec;
    }
  }
  throw contract_violation("unknown grid: " + name +
                           " (try `dlb_run --list`)");
}

}  // namespace dlb::runtime
