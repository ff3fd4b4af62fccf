// perfbench: the scale benchmark of the dlb library.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--digests FILE] [--write-digests FILE]
//             [--trace-out FILE] [--manifest KEY=VALUE ...]
//
// One run executes a named workload as repeated *passes* until --seconds
// have elapsed. A pass builds every cell of the workload (timed: setup_s),
// drives it through the engine (timed: wall_s, per-round and per-cell
// times), and verifies its result. With --trace 1 each untraced pass is
// followed by a traced pass that replays the same cells through the public
// pieces the engine calls are made of, recording one span per call; the
// per-layer metrics come from those spans. Nothing here instruments the
// library itself. README.md in this directory documents the workloads, the
// metrics and how to read a traced run.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dlb/common/rng.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/arrival.hpp"
#include "dlb/workload/competitors.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using perfbench::mean;
using perfbench::median;
using perfbench::now_ns;
using perfbench::quantile;
using perfbench::scoped_span;
using perfbench::smooth_quantile;
using perfbench::span_log;

constexpr std::uint64_t default_seed = 31;
constexpr unsigned huge_shard_threads = 4;
constexpr unsigned table_cell_threads = 4;
// Seed stream of the random-regular topology (distinct from cell streams).
constexpr std::uint64_t graph_stream = 0x6772617068ULL;

const std::vector<std::string> workload_names = {
    "stream-diffusion", "stream-matching", "static-tA", "paper-tables"};
const std::vector<std::string> step_labels = {"round-down", "alg1", "alg2",
                                              "alg1-periodic"};

struct options {
  std::string workload;
  std::uint64_t seed = default_seed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string digests;        // committed digests, checked at the default seed
  std::string write_digests;  // regenerate this workload's digests into FILE
  std::string trace_out;      // a traced run writes its spans here
  std::vector<std::pair<std::string, std::string>> manifest;
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// A measured value with all its digits.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// ------------------------------------------------------------ verification

/// The verdict on one executed cell: its digest plus every check it failed.
struct cell_check {
  std::string key;  // "<graph>/<competitor>" or "<grid>/<scenario>/..."
  std::string digest;
  std::vector<std::string> failures;
  std::string timing;  // huge cells: a one-line timing summary

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

template <typename T>
std::int64_t sum_of(const std::vector<T>& xs) {
  std::int64_t s = 0;
  for (const T x : xs) s += static_cast<std::int64_t>(x);
  return s;
}

void check_real_loads(cell_check& ck, const dlb::discrete_process& d) {
  const std::vector<dlb::weight_t> real = d.real_loads();
  for (const dlb::weight_t x : real) {
    if (x < 0) {
      ck.expect(false, "negative real load");
      return;
    }
  }
}

/// Stream cells: digest of run_dynamic's result, conservation with
/// arrivals and dummies, non-negative real loads.
void check_stream(cell_check& ck, const dlb::discrete_process& d,
                  const std::vector<dlb::weight_t>& initial,
                  const dlb::dynamic_result& r) {
  perfbench::digest dg;
  dg.add(static_cast<std::int64_t>(r.rounds));
  dg.add(static_cast<std::int64_t>(r.total_arrived));
  dg.add(r.mean_max_min);
  dg.add(r.peak_max_min);
  dg.add(r.final_max_min);
  dg.add(static_cast<std::int64_t>(d.dummy_created()));
  dg.add_all(d.loads());
  ck.digest = dg.hex();
  ck.expect(sum_of(d.loads()) ==
                sum_of(initial) + r.total_arrived + d.dummy_created(),
            "conservation: sum(loads) != initial + arrived + dummies");
  check_real_loads(ck, d);
}

/// Static cells: digest of run_experiment's result, conservation, and for
/// Alg1 the paper's guarantees on the spike workload (which carries the
/// d·w_max floor): no dummy is ever created (Lemma 7) and the final max-min
/// discrepancy is at most 2d + 2 (Theorem 3(2)).
void check_static(cell_check& ck, const dlb::discrete_process& d,
                  const std::vector<dlb::weight_t>& initial,
                  const dlb::experiment_result& r, bool is_alg1) {
  perfbench::digest dg;
  dg.add(static_cast<std::int64_t>(r.rounds));
  dg.add(r.continuous_converged);
  dg.add(r.continuous_negative_load);
  dg.add(r.final_max_min);
  dg.add(r.final_max_avg);
  dg.add(static_cast<std::int64_t>(r.dummy_created));
  dg.add_all(r.final_loads);
  ck.digest = dg.hex();
  ck.expect(r.continuous_converged, "continuous reference did not converge");
  ck.expect(sum_of(r.final_loads) == sum_of(initial) + r.dummy_created,
            "conservation: sum(loads) != initial + dummies");
  check_real_loads(ck, d);
  if (is_alg1) {
    const double d_max = static_cast<double>(d.topology().max_degree());
    ck.expect(r.dummy_created == 0, "Alg1 created dummies (Lemma 7)");
    ck.expect(r.final_max_min <= 2 * d_max + 2,
              "Alg1 max-min above 2d+2 (Theorem 3)");
  }
}

// ------------------------------------------------------------- huge cells

struct graph_def {
  std::string name;
  std::function<dlb::graph()> make;
  dlb::round_t rounds = 0;  // stream: rounds per cell on this graph
};

struct competitor_def {
  std::string label;  // one of step_labels
  std::function<std::unique_ptr<dlb::discrete_process>(
      const std::shared_ptr<const dlb::graph>&, const dlb::speed_vector&,
      const std::vector<dlb::weight_t>&, std::uint64_t)>
      build;
};

/// A workload over graphs of 2^16..2^18 nodes, stepped on a shard pool.
struct huge_workload {
  bool stream = true;  // run_dynamic with arrivals; else run_experiment
  dlb::workload::model model = dlb::workload::model::diffusion;
  std::vector<graph_def> graphs;
  std::vector<competitor_def> comps;
  dlb::round_t cap = 0;  // static: T^A search cap
  dlb::weight_t spike_per_node = 2;
  dlb::weight_t arrivals_per_round = 0;
  std::string params;  // one-line description for the manifest
};

/// A row of the library's standard competitor set under model `m`.
competitor_def library_competitor(const std::string& label,
                                  const std::string& prefix,
                                  dlb::workload::model m) {
  const dlb::workload::competitor c =
      dlb::workload::competitor_subset(m == dlb::workload::model::diffusion,
                                       {prefix})
          .front();
  return {label, [c, m](const std::shared_ptr<const dlb::graph>& g,
                        const dlb::speed_vector& s,
                        const std::vector<dlb::weight_t>& tokens,
                        std::uint64_t seed) {
            return c.build(g, s, tokens, m, seed);
          }};
}

/// Alg1 over periodic matchings from the greedy colouring (Misra–Gries is
/// O(m·n) in the worst case, prohibitive at this scale).
competitor_def alg1_periodic_greedy() {
  return {"alg1-periodic",
          [](const std::shared_ptr<const dlb::graph>& g,
             const dlb::speed_vector& s,
             const std::vector<dlb::weight_t>& tokens, std::uint64_t)
              -> std::unique_ptr<dlb::discrete_process> {
            dlb::edge_coloring col;
            {
              const scoped_span sp("graph.coloring");
              col = dlb::greedy_edge_coloring(*g);
            }
            return std::make_unique<dlb::algorithm1>(
                dlb::make_periodic_matching_process(
                    g, s, dlb::to_matchings(*g, col)),
                dlb::task_assignment::tokens(tokens));
          }};
}

huge_workload make_huge_workload(const std::string& name, bool smoke,
                                 std::uint64_t seed) {
  using dlb::workload::model;
  huge_workload w;
  const dlb::node_id side = smoke ? 32 : 512;
  const auto torus = [side](dlb::round_t rounds) {
    return graph_def{
        "torus(" + std::to_string(side) + "x" + std::to_string(side) + ")",
        [side] { return dlb::generators::torus_2d(side); }, rounds};
  };
  const auto cube = [](int dim, dlb::round_t rounds) {
    return graph_def{"hypercube(dim=" + std::to_string(dim) + ")",
                     [dim] { return dlb::generators::hypercube(dim); },
                     rounds};
  };
  if (name == "stream-diffusion" || name == "stream-matching") {
    const bool diffusion = name == "stream-diffusion";
    // Round counts per graph place the pooled per-round p50 window among
    // the hypercube rounds, away from the short torus rounds whose time is
    // mostly the discrepancy sample (README.md, "Steadiness").
    const dlb::round_t torus_rounds = smoke ? 6 : (diffusion ? 6 : 4);
    const dlb::round_t cube_rounds = smoke ? 6 : (diffusion ? 32 : 16);
    w.graphs = {torus(torus_rounds), cube(smoke ? 10 : 18, cube_rounds)};
    w.arrivals_per_round = 1000;
    if (diffusion) {
      w.comps = {
          library_competitor("round-down", "round-down", model::diffusion),
          library_competitor("alg1", "Alg1", model::diffusion),
          library_competitor("alg2", "Alg2", model::diffusion)};
    } else {
      w.model = model::random_matching;
      w.comps = {library_competitor("round-down", "round-down",
                                    model::random_matching),
                 library_competitor("alg1", "Alg1", model::random_matching),
                 alg1_periodic_greedy()};
    }
    w.params = "rounds=" + std::to_string(torus_rounds) + "/" +
               std::to_string(cube_rounds) +
               " (torus/hypercube) spike_per_node=2 arrivals_per_round=1000"
               " shard_threads=4";
  } else if (name == "static-tA") {
    w.stream = false;
    w.cap = 100000;
    const dlb::node_id reg_n = smoke ? 1024 : 65536;
    w.graphs = {cube(smoke ? 10 : 16, 0),
                {"random-4-regular(n=" + std::to_string(reg_n) + ")",
                 [reg_n, seed] {
                   return dlb::generators::random_regular(
                       reg_n, 4, dlb::derive_seed(seed, graph_stream));
                 },
                 0}};
    w.comps = {library_competitor("round-down", "round-down", model::diffusion),
               library_competitor("alg1", "Alg1", model::diffusion),
               library_competitor("alg2", "Alg2", model::diffusion)};
    w.params = "spike_per_node=2 cap=100000 shard_threads=4";
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// One cell's shard pool and the context its process steps under. Built
/// before the timed engine call, like the runtime's own cells.
struct shard_rig {
  std::unique_ptr<dlb::runtime::thread_pool> pool;
  std::shared_ptr<const dlb::shard_context> ctx;
};

shard_rig make_rig(const dlb::graph& g, unsigned threads) {
  shard_rig rig;
  if (threads <= 1) return rig;
  {
    const scoped_span sp("sharding.pool_start");
    rig.pool = std::make_unique<dlb::runtime::thread_pool>(threads);
  }
  dlb::shard_plan plan;
  {
    const scoped_span sp("sharding.plan");
    plan = dlb::shard_plan(g, threads);
  }
  dlb::runtime::thread_pool* pool = rig.pool.get();
  rig.ctx = std::make_shared<const dlb::shard_context>(dlb::shard_context{
      std::move(plan),
      [pool](std::size_t count, const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      dlb::shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
  return rig;
}

/// A cell ready to run. Members are destroyed in reverse order, so the
/// processes (which hold the context) go before the pool they step on.
struct built_cell {
  std::shared_ptr<const dlb::graph> g;
  dlb::speed_vector s;
  std::vector<dlb::weight_t> tokens;
  std::uint64_t seed = 0;
  shard_rig rig;
  std::unique_ptr<dlb::discrete_process> d;
  std::unique_ptr<dlb::continuous_process> reference;  // static cells only
};

built_cell build_cell(const huge_workload& w,
                      const std::shared_ptr<const dlb::graph>& g,
                      const competitor_def& c, std::uint64_t seed,
                      unsigned threads) {
  built_cell b;
  b.g = g;
  b.seed = seed;
  b.rig = make_rig(*g, threads);
  {
    const scoped_span sp("workload.build");
    b.s = dlb::uniform_speeds(g->num_nodes());
    b.tokens = dlb::workload::spike_workload(*g, b.s, w.spike_per_node);
    b.d = c.build(g, b.s, b.tokens, seed);
    if (!w.stream) {
      b.reference = dlb::workload::make_continuous(w.model, g, b.s, seed);
    }
  }
  if (b.rig.ctx != nullptr) {
    const scoped_span sp("sharding.enable");
    dlb::try_enable_sharding(*b.d, b.rig.ctx);
  }
  return b;
}

std::unique_ptr<dlb::workload::arrival_schedule> arrivals_of(
    const huge_workload& w, const built_cell& b) {
  return std::make_unique<dlb::workload::uniform_arrivals>(
      b.g->num_nodes(), w.arrivals_per_round, dlb::derive_seed(b.seed, 1));
}

/// Per-call timings of one replayed cell.
struct replay_stats {
  std::vector<double> step_ms;
  std::vector<double> sample_ms;
  double arrivals_ms = 0;
  double inject_ms = 0;
  std::int64_t tokens = 0;
};

/// run_dynamic, replayed through its public pieces — arrivals →
/// inject_tokens → step → round_discrepancy — with a span per call. The
/// returned result is bit-identical to run_dynamic's (same calls, same
/// order, same warm-up rule).
dlb::dynamic_result replay_dynamic(dlb::discrete_process& d,
                                   const dlb::workload::arrival_schedule& sched,
                                   dlb::round_t rounds, replay_stats& st) {
  const scoped_span root("engine.run_dynamic");
  dlb::dynamic_result r;
  r.rounds = rounds;
  const dlb::round_t warmup = rounds / 2;
  dlb::real_t sum = 0;
  dlb::round_t samples = 0;
  const auto sample = [&] {
    const scoped_span sp("engine.sample");
    const std::int64_t t0 = now_ns();
    const dlb::real_t disc = dlb::round_discrepancy(d);
    st.sample_ms.push_back(ms_between(t0, now_ns()));
    return disc;
  };
  for (dlb::round_t t = 0; t < rounds; ++t) {
    std::vector<dlb::workload::arrival> batch;
    std::int64_t t0 = now_ns();
    {
      const scoped_span sp("workload.arrivals");
      batch = sched.arrivals(t);
    }
    std::int64_t t1 = now_ns();
    st.arrivals_ms += ms_between(t0, t1);
    dlb::weight_t arrived = 0;
    {
      const scoped_span sp("workload.inject");
      for (const dlb::workload::arrival& a : batch) {
        d.inject_tokens(a.node, a.count);
        arrived += a.count;
      }
    }
    t0 = now_ns();
    st.inject_ms += ms_between(t1, t0);
    r.total_arrived += arrived;
    st.tokens += arrived;
    {
      const scoped_span sp("core.step");
      t0 = now_ns();
      d.step();
      t1 = now_ns();
    }
    st.step_ms.push_back(ms_between(t0, t1));
    if (t >= warmup) {
      const dlb::real_t disc = sample();
      sum += disc;
      r.peak_max_min = std::max(r.peak_max_min, disc);
      ++samples;
    }
  }
  r.mean_max_min = samples > 0 ? sum / static_cast<dlb::real_t>(samples) : 0;
  r.final_max_min = sample();
  return r;
}

/// The α schedule a cell's process draws from, rebuilt from the same
/// inputs: flow imitators expose their continuous process; the rounding
/// baselines take the model's schedule with the same seed.
std::unique_ptr<dlb::alpha_schedule> schedule_of(const built_cell& b,
                                                 dlb::workload::model m) {
  const dlb::continuous_process* inner = nullptr;
  if (const auto* a1 = dynamic_cast<const dlb::algorithm1*>(b.d.get())) {
    inner = &a1->continuous();
  } else if (const auto* a2 =
                 dynamic_cast<const dlb::algorithm2*>(b.d.get())) {
    inner = &a2->continuous();
  }
  if (const auto* lp = dynamic_cast<const dlb::linear_process*>(inner)) {
    return lp->schedule().clone();
  }
  return dlb::workload::make_schedule(m, *b.g, b.s, b.seed);
}

/// begin_round + fill_alphas for `rounds` rounds on the cell's own schedule
/// and shard plan, one span per round. Empty for time-invariant schedules,
/// whose steppers fill once and cache.
std::vector<double> replay_alpha_fill(const built_cell& b,
                                      dlb::workload::model m,
                                      dlb::round_t rounds) {
  const std::unique_ptr<dlb::alpha_schedule> sch = schedule_of(b, m);
  std::vector<double> out;
  if (sch->time_invariant()) return out;
  const auto m_edges = b.g->num_edges();
  std::vector<dlb::real_t> buf(static_cast<std::size_t>(m_edges));
  for (dlb::round_t t = 0; t < rounds; ++t) {
    const scoped_span sp("core.alpha_fill");
    const std::int64_t t0 = now_ns();
    if (!sch->ranged_fill()) {
      sch->alphas(t, buf);
    } else if (b.rig.ctx == nullptr) {
      sch->begin_round(t);
      sch->fill_alphas(t, buf.data(), dlb::edge_slice(0, m_edges, nullptr));
    } else {
      sch->begin_round(t);
      const dlb::shard_context& ctx = *b.rig.ctx;
      ctx.for_each_shard([&](std::size_t s) {
        sch->fill_alphas(t, buf.data(),
                         dlb::edge_slice(ctx.plan.edge_begin(s),
                                         ctx.plan.edge_end(s),
                                         ctx.plan.edge_order()));
      });
    }
    out.push_back(ms_between(t0, now_ns()));
  }
  return out;
}

/// run_experiment, replayed through its public pieces — clone_fresh +
/// try_enable_sharding → measure_balancing_time → run_rounds → final
/// metrics — with a span per call. Bit-identical to run_experiment.
dlb::experiment_result replay_experiment(built_cell& b, dlb::round_t cap,
                                         std::vector<double>& step_ms) {
  const scoped_span root("engine.run_experiment");
  dlb::discrete_process& d = *b.d;
  std::vector<dlb::real_t> x0(d.loads().size());
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<dlb::real_t>(d.loads()[i]);
  }
  std::unique_ptr<dlb::continuous_process> ref;
  {
    const scoped_span sp("engine.clone_reference");
    ref = b.reference->clone_fresh();
    if (b.rig.ctx != nullptr) dlb::try_enable_sharding(*ref, b.rig.ctx);
  }
  dlb::balancing_time_result bt;
  {
    const scoped_span sp("engine.tA_probe");
    bt = dlb::measure_balancing_time(*ref, x0, cap);
  }
  {
    const scoped_span sp("engine.discrete_rounds");
    std::int64_t prev = now_ns();
    dlb::run_rounds(d, bt.rounds,
                    [&](dlb::round_t, const dlb::discrete_process&) {
                      const std::int64_t t = now_ns();
                      step_ms.push_back(ms_between(prev, t));
                      prev = t;
                    });
  }
  dlb::experiment_result r;
  {
    const scoped_span sp("engine.final_metric");
    r.rounds = bt.rounds;
    r.continuous_converged = bt.converged;
    r.continuous_negative_load = bt.negative_load;
    r.final_loads = d.loads();
    r.final_real_loads = d.real_loads();
    r.dummy_created = d.dummy_created();
    r.final_max_min = dlb::max_min_discrepancy(r.final_real_loads, d.speeds());
    r.final_max_avg = dlb::max_avg_discrepancy(r.final_real_loads, d.speeds());
  }
  return r;
}

// ------------------------------------------------------------------ passes

/// What one pass measured. Timings of the traced pass live in `layer`.
struct pass_stats {
  double setup_s = 0;
  double wall_s = 0;
  double node_rounds = 0;
  std::vector<double> round_ms;
  std::vector<double> cell_ms;
  std::vector<cell_check> cells;
  std::map<std::string, double> layer;  // traced passes only
  std::vector<double> coverage;         // traced: named-span share per cell
};

/// Per-layer figures of one traced pass over huge cells, gathered across
/// its cells and reduced to the named per-layer metrics at the end.
struct huge_trace {
  std::vector<double> step_ms;
  std::map<std::string, std::vector<double>> step_by_label;
  double edge_steps = 0;  // Σ m × steps
  std::vector<double> sample_ms;
  std::vector<double> fill_ms;
  double arrivals_ms = 0;
  double inject_ms = 0;
  double rounds = 0;
  std::int64_t tokens = 0;
  double s1_step_ms = 0, s4_step_ms = 0;
  double s1_sample_ms = 0, s4_sample_ms = 0;
  std::uint64_t tokens_moved = 0;
  std::uint64_t edges_touched = 0;
  double tA_rounds = 0;
};

double sum_ms(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// One pass over every cell of a huge workload. Untraced: build, engine
/// call, verify. Traced: build, replay with spans (and the α-fill replay
/// and the 1-shard-thread re-step for stream cells), verify.
pass_stats run_huge_pass(const huge_workload& w, std::uint64_t seed,
                         span_log* log, unsigned shard_threads) {
  pass_stats ps;
  huge_trace tr;
  perfbench::active_log() = log;
  std::uint64_t cell_index = 0;
  for (const graph_def& gd : w.graphs) {
    std::shared_ptr<const dlb::graph> g;
    std::int64_t t0 = now_ns();
    {
      const scoped_span sp("graph.generate");
      g = std::make_shared<const dlb::graph>(gd.make());
    }
    ps.setup_s += ms_between(t0, now_ns()) / 1e3;
    for (const competitor_def& c : w.comps) {
      const std::uint64_t cseed = dlb::derive_seed(seed, cell_index++);
      cell_check ck;
      ck.key = gd.name + "/" + c.label;
      const scoped_span cell_span("bench.cell");
      t0 = now_ns();
      built_cell b = build_cell(w, g, c, cseed, shard_threads);
      const double setup_ms = ms_between(t0, now_ns());
      ps.setup_s += setup_ms / 1e3;
      const std::size_t first_round = ps.round_ms.size();
      const double n = static_cast<double>(g->num_nodes());
      // Traced passes read the library's own obs counters (tokens moved,
      // edges touched) through a metrics-only probe.
      dlb::obs::metrics met;
      if (log != nullptr) {
        dlb::try_attach_probe(*b.d, dlb::obs::probe{nullptr, &met});
      }
      double engine_ms = 0;
      if (w.stream) {
        const auto sched = arrivals_of(w, b);
        dlb::dynamic_result r;
        t0 = now_ns();
        if (log == nullptr) {
          std::int64_t prev = t0;
          r = dlb::run_dynamic(
              *b.d, *sched, gd.rounds,
              [&](dlb::round_t, const dlb::discrete_process&) {
                const std::int64_t t = now_ns();
                ps.round_ms.push_back(ms_between(prev, t));
                prev = t;
              });
        } else {
          replay_stats st;
          r = replay_dynamic(*b.d, *sched, gd.rounds, st);
          tr.step_ms.insert(tr.step_ms.end(), st.step_ms.begin(),
                            st.step_ms.end());
          auto& lab = tr.step_by_label[c.label];
          lab.insert(lab.end(), st.step_ms.begin(), st.step_ms.end());
          tr.edge_steps += static_cast<double>(g->num_edges()) *
                           static_cast<double>(st.step_ms.size());
          tr.sample_ms.insert(tr.sample_ms.end(), st.sample_ms.begin(),
                              st.sample_ms.end());
          tr.arrivals_ms += st.arrivals_ms;
          tr.inject_ms += st.inject_ms;
          tr.rounds += static_cast<double>(gd.rounds);
          tr.tokens += st.tokens;
          tr.s4_step_ms += sum_ms(st.step_ms);
          tr.s4_sample_ms += sum_ms(st.sample_ms);
        }
        engine_ms = ms_between(t0, now_ns());
        ps.node_rounds += n * static_cast<double>(gd.rounds);
        check_stream(ck, *b.d, b.tokens, r);
        if (log != nullptr) {
          const std::vector<double> fill =
              replay_alpha_fill(b, w.model, gd.rounds);
          tr.fill_ms.insert(tr.fill_ms.end(), fill.begin(), fill.end());
        }
      } else {
        dlb::experiment_result r;
        t0 = now_ns();
        if (log == nullptr) {
          // The first observer call follows the T^A probe and the first
          // round, so per-round samples start at the second round.
          std::int64_t prev = 0;
          r = dlb::run_experiment(
              *b.d, *b.reference, w.cap,
              [&](dlb::round_t, const dlb::discrete_process&) {
                const std::int64_t t = now_ns();
                if (prev != 0) ps.round_ms.push_back(ms_between(prev, t));
                prev = t;
              });
        } else {
          std::vector<double> steps;
          r = replay_experiment(b, w.cap, steps);
          tr.step_ms.insert(tr.step_ms.end(), steps.begin(), steps.end());
          auto& lab = tr.step_by_label[c.label];
          lab.insert(lab.end(), steps.begin(), steps.end());
          tr.edge_steps += static_cast<double>(g->num_edges()) *
                           static_cast<double>(steps.size());
          tr.tA_rounds += static_cast<double>(r.rounds);
        }
        engine_ms = ms_between(t0, now_ns());
        ps.node_rounds += n * static_cast<double>(r.rounds);
        check_static(ck, *b.d, b.tokens, r, c.label == "alg1");
      }
      if (log != nullptr) {
        const dlb::obs::metrics_snapshot snap = met.take();
        tr.tokens_moved += snap.counter("tokens_moved");
        tr.edges_touched += snap.counter("edges_touched");
      }
      ps.wall_s += engine_ms / 1e3;
      // A huge cell's time is what running it alone costs: its own set-up
      // plus the engine call.
      ps.cell_ms.push_back(setup_ms + engine_ms);
      const std::vector<double> cell_rounds(
          ps.round_ms.begin() + static_cast<std::ptrdiff_t>(first_round),
          ps.round_ms.end());
      ck.timing = "setup_ms " + num(setup_ms) + " wall_ms " + num(engine_ms) +
                  " round_ms_p50 " + num(quantile(cell_rounds, 0.5)) +
                  " round_ms_p90 " + num(quantile(cell_rounds, 0.9));
      // Free the cell (process before pool) before the re-step builds its
      // twin.
      b.d.reset();
      b.reference.reset();
      b.rig = shard_rig{};
      if (log != nullptr && w.stream) {
        // The same cell re-stepped at 1 shard thread: the speedup base, and
        // a shard-count byte-identity check at any seed.
        perfbench::active_log() = nullptr;
        built_cell b1 = build_cell(w, g, c, cseed, 1);
        replay_stats st1;
        const auto sched1 = arrivals_of(w, b1);
        const dlb::dynamic_result r1 =
            replay_dynamic(*b1.d, *sched1, gd.rounds, st1);
        cell_check ck1;
        check_stream(ck1, *b1.d, b1.tokens, r1);
        ck.expect(ck1.digest == ck.digest,
                  "1-shard-thread re-step differs from the sharded run");
        tr.s1_step_ms += sum_ms(st1.step_ms);
        tr.s1_sample_ms += sum_ms(st1.sample_ms);
        perfbench::active_log() = log;
      }
      ps.cells.push_back(std::move(ck));
    }
  }
  perfbench::active_log() = nullptr;
  if (log == nullptr) return ps;

  // Reduce the traced pass to the per-layer metrics (README.md).
  std::map<std::string, double>& L = ps.layer;
  L["graph.generate_ms"] = log->total_ms("graph.generate");
  L["graph.coloring_ms"] = log->total_ms("graph.coloring");
  L["workload.build_ms"] = log->total_ms("workload.build");
  L["workload.arrivals_ms"] = tr.rounds > 0 ? tr.arrivals_ms / tr.rounds : 0;
  L["workload.inject_ms"] = tr.rounds > 0 ? tr.inject_ms / tr.rounds : 0;
  L["workload.tokens_injected"] = static_cast<double>(tr.tokens);
  L["sharding.plan_ms"] = log->total_ms("sharding.plan");
  L["sharding.pool_start_ms"] = log->total_ms("sharding.pool_start");
  L["core.step_ms"] = mean(tr.step_ms);
  L["core.step_ms_p90"] = smooth_quantile(tr.step_ms, 0.9);
  for (const std::string& label : step_labels) {
    const auto it = tr.step_by_label.find(label);
    L["core.step." + label + "_ms"] =
        it == tr.step_by_label.end() ? 0 : mean(it->second);
  }
  L["core.step_ns_per_edge"] =
      tr.edge_steps > 0 ? sum_ms(tr.step_ms) * 1e6 / tr.edge_steps : 0;
  L["core.alpha_fill_ms"] =
      tr.rounds > 0 ? sum_ms(tr.fill_ms) / tr.rounds : 0;
  L["core.tokens_moved"] = static_cast<double>(tr.tokens_moved);
  L["core.edges_touched"] = static_cast<double>(tr.edges_touched);
  L["core.step_speedup_s4"] =
      tr.s4_step_ms > 0 ? tr.s1_step_ms / tr.s4_step_ms : 0;
  L["engine.sample_speedup_s4"] =
      tr.s4_sample_ms > 0 ? tr.s1_sample_ms / tr.s4_sample_ms : 0;
  L["engine.sample_ms"] = mean(tr.sample_ms);
  L["engine.sample_ms_p90"] = smooth_quantile(tr.sample_ms, 0.9);
  L["engine.tA_probe_ms"] = log->total_ms("engine.tA_probe");
  L["engine.discrete_rounds_ms"] = log->total_ms("engine.discrete_rounds");
  L["engine.final_metric_ms"] = log->total_ms("engine.final_metric");
  L["engine.tA_rounds"] = tr.tA_rounds;
  // Named-span coverage of each cell's engine-call replay.
  const std::string replay_name =
      w.stream ? "engine.run_dynamic" : "engine.run_experiment";
  for (std::size_t i = 0; i < log->spans().size(); ++i) {
    const auto& sp = log->spans()[i];
    if (sp.name == replay_name) {
      ps.coverage.push_back(log->child_coverage(static_cast<int>(i)));
    }
  }
  return ps;
}

// ----------------------------------------------------------- paper tables

const std::vector<std::string> table_grids = {"table1", "table2-periodic",
                                              "table2-random"};

dlb::runtime::grid_options table_options(bool smoke) {
  dlb::runtime::grid_options opts;
  opts.target_n = smoke ? 32 : 128;
  opts.repeats = smoke ? 2 : 5;
  opts.shard_threads = 1;
  return opts;
}

void check_table_row(cell_check& ck, const dlb::runtime::result_row& row,
                     const dlb::runtime::grid_spec& spec) {
  perfbench::digest dg;
  dg.add(static_cast<std::int64_t>(row.n));
  dg.add(static_cast<std::uint64_t>(row.seed));
  dg.add(static_cast<std::int64_t>(row.rounds));
  dg.add(row.converged);
  dg.add(row.final_max_min);
  dg.add(row.final_max_avg);
  dg.add(row.mean_max_min);
  dg.add(row.peak_max_min);
  dg.add(static_cast<std::int64_t>(row.dummy_created));
  ck.digest = dg.hex();
  ck.expect(row.converged, "continuous reference did not converge");
  ck.expect(std::isfinite(row.final_max_min) && row.final_max_min >= 0,
            "bad final discrepancy");
  if (row.process.starts_with("Alg1")) {
    for (const auto& gc : spec.graphs) {
      if (gc.name != row.scenario) continue;
      const double d_max = static_cast<double>(gc.g->max_degree());
      ck.expect(row.dummy_created == 0, "Alg1 created dummies (Lemma 7)");
      ck.expect(row.final_max_min <= 2 * d_max + 2,
                "Alg1 max-min above 2d+2 (Theorem 3)");
    }
  }
}

/// One pass over the three paper grids on a 4-thread cell pool. Traced:
/// spans around grid construction and each run_grid call, plus the
/// Misra–Gries colouring of each periodic cell's graph timed from outside.
pass_stats run_tables_pass(bool smoke, std::uint64_t seed, span_log* log,
                           unsigned cell_threads) {
  pass_stats ps;
  perfbench::active_log() = log;
  const dlb::runtime::grid_options opts = table_options(smoke);
  std::int64_t t0 = now_ns();
  std::unique_ptr<dlb::runtime::thread_pool> pool;
  {
    const scoped_span sp("runtime.pool_start");
    pool = std::make_unique<dlb::runtime::thread_pool>(cell_threads);
  }
  std::vector<dlb::runtime::grid_spec> specs;
  for (const std::string& name : table_grids) {
    // Grid construction is dominated by generating its graph classes.
    const scoped_span sp("graph.generate");
    specs.push_back(dlb::runtime::make_named_grid(name, opts, seed));
  }
  ps.setup_s = ms_between(t0, now_ns()) / 1e3;
  double busy_ms = 0;
  double coloring_ms = 0;
  for (const dlb::runtime::grid_spec& spec : specs) {
    std::vector<dlb::runtime::result_row> rows;
    t0 = now_ns();
    {
      const scoped_span sp("runtime.run_grid");
      rows = dlb::runtime::run_grid(spec, seed, *pool);
    }
    ps.wall_s += ms_between(t0, now_ns()) / 1e3;
    for (const dlb::runtime::result_row& row : rows) {
      const double cell_ms = static_cast<double>(row.wall_ns) / 1e6;
      busy_ms += cell_ms;
      ps.cell_ms.push_back(cell_ms);
      if (row.rounds > 0) {
        ps.round_ms.push_back(cell_ms / static_cast<double>(row.rounds));
      }
      ps.node_rounds +=
          static_cast<double>(row.n) * static_cast<double>(row.rounds);
      cell_check ck;
      ck.key = spec.name + "/" + row.scenario + "/" + row.process + "/cell" +
               std::to_string(row.cell);
      check_table_row(ck, row, spec);
      ps.cells.push_back(std::move(ck));
      if (log != nullptr &&
          spec.comm_model == dlb::workload::model::periodic_matching) {
        for (const auto& gc : spec.graphs) {
          if (gc.name != row.scenario) continue;
          const std::int64_t c0 = now_ns();
          const scoped_span sp("graph.coloring");
          const dlb::edge_coloring col = dlb::misra_gries_edge_coloring(*gc.g);
          (void)col;
          coloring_ms += ms_between(c0, now_ns());
        }
      }
    }
  }
  perfbench::active_log() = nullptr;
  if (log == nullptr) return ps;
  std::map<std::string, double>& L = ps.layer;
  L["graph.generate_ms"] = log->total_ms("graph.generate");
  L["graph.coloring_ms"] = coloring_ms;
  L["runtime.cell_busy_share"] =
      ps.wall_s > 0 ? busy_ms / 1e3 / (cell_threads * ps.wall_s) : 0;
  L["runtime.cells"] = static_cast<double>(ps.cells.size());
  return ps;
}

// ----------------------------------------------------------------- output

/// Every per-layer metric, in the order BENCHMARK.json lists them, with its
/// unit. A metric a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> per_layer_units = {
    {"graph.generate_ms", "ms"},
    {"graph.coloring_ms", "ms"},
    {"workload.build_ms", "ms"},
    {"workload.arrivals_ms", "ms"},
    {"workload.inject_ms", "ms"},
    {"workload.tokens_injected", "count"},
    {"sharding.plan_ms", "ms"},
    {"sharding.pool_start_ms", "ms"},
    {"core.step_ms", "ms"},
    {"core.step_ms_p90", "ms"},
    {"core.step.round-down_ms", "ms"},
    {"core.step.alg1_ms", "ms"},
    {"core.step.alg2_ms", "ms"},
    {"core.step.alg1-periodic_ms", "ms"},
    {"core.step_ns_per_edge", "ns"},
    {"core.alpha_fill_ms", "ms"},
    {"core.tokens_moved", "count"},
    {"core.edges_touched", "count"},
    {"core.step_speedup_s4", "ratio"},
    {"engine.sample_ms", "ms"},
    {"engine.sample_ms_p90", "ms"},
    {"engine.sample_speedup_s4", "ratio"},
    {"engine.tA_probe_ms", "ms"},
    {"engine.discrete_rounds_ms", "ms"},
    {"engine.final_metric_ms", "ms"},
    {"engine.tA_rounds", "count"},
    {"runtime.cell_busy_share", "ratio"},
    {"runtime.cells", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.span_coverage_min", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

long l3_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  return sysconf(_SC_LEVEL3_CACHE_SIZE);
#else
  return -1;
#endif
}

std::string manifest_json(const options& o, const std::string& params) {
  std::ostringstream os;
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"size\": \"" << (o.smoke ? "smoke" : "full") << "\", \"params\": \""
     << json_escape(params) << "\", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \""
     << json_escape(PERFBENCH_FLAGS) << "\", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ", \"l3_bytes\": "
     << l3_bytes();
  for (const auto& [k, v] : o.manifest) {
    os << ", \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  os << "}";
  return os.str();
}

/// The process's own peak RSS from the library's memory sampler: VmHWM,
/// which exec resets (ru_maxrss would also count the launcher's image),
/// falling back to ru_maxrss where /proc is absent.
double peak_rss_mb() {
  const dlb::obs::prof::memory_profile mem =
      dlb::obs::prof::sample_memory(nullptr, nullptr);
  const std::uint64_t kb = mem.vm_hwm_kb > 0 ? mem.vm_hwm_kb : mem.max_rss_kb;
  return static_cast<double>(kb) / 1024.0;
}

/// Committed digests: "<key> <hex>" per line, keys
/// "seed<N>/<size>/<workload>/<cell>".
std::map<std::string, std::string> read_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

std::string digest_prefix(const options& o) {
  return "seed" + std::to_string(o.seed) + "/" + (o.smoke ? "smoke" : "full") +
         "/" + o.workload + "/";
}

pass_stats run_pass(const options& o, span_log* log, unsigned shard_threads) {
  if (o.workload == "paper-tables") {
    return run_tables_pass(o.smoke, o.seed, log, table_cell_threads);
  }
  return run_huge_pass(make_huge_workload(o.workload, o.smoke, o.seed),
                       o.seed, log, shard_threads);
}

std::string params_of(const options& o) {
  if (o.workload == "paper-tables") {
    const auto opts = table_options(o.smoke);
    return "grids=table1,table2-periodic,table2-random n=" +
           std::to_string(opts.target_n) +
           " repeats=" + std::to_string(opts.repeats) +
           " cell_threads=4 shard_threads=1";
  }
  return make_huge_workload(o.workload, o.smoke, o.seed).params;
}

/// --write-digests: one pass at 1 shard thread (the runtime's cell pool for
/// paper-tables), its digests merged into FILE under this run's prefix.
int write_digests(const options& o) {
  std::map<std::string, std::string> all;
  if (std::ifstream(o.write_digests)) all = read_digests(o.write_digests);
  const std::string prefix = digest_prefix(o);
  for (auto it = all.begin(); it != all.end();) {
    it = it->first.starts_with(prefix) ? all.erase(it) : std::next(it);
  }
  const pass_stats ps = run_pass(o, nullptr, 1);
  int failed = 0;
  for (const cell_check& ck : ps.cells) {
    all[prefix + ck.key] = ck.digest;
    if (!ck.failures.empty()) {
      ++failed;
      std::cerr << "cell " << ck.key << " FAILED: " << ck.failures.front()
                << "\n";
    }
  }
  std::ofstream out(o.write_digests);
  out << "# perfbench result digests, generated at 1 shard thread\n";
  for (const auto& [k, v] : all) out << k << " " << v << "\n";
  std::cout << "wrote " << ps.cells.size() << " digests for " << prefix
            << " to " << o.write_digests << "\n";
  return failed == 0 ? 0 : 1;
}

void write_trace(const options& o, const span_log& log,
                 const std::map<std::string, double>& layer,
                 const std::string& manifest) {
  std::ofstream out(o.trace_out);
  if (!out) {
    std::cerr << "cannot write trace to " << o.trace_out << "\n";
    return;
  }
  const std::int64_t base =
      log.spans().empty() ? 0 : log.spans().front().start_ns;
  out << "{\"manifest\": " << manifest << ",\n \"per_layer\": {";
  bool first = true;
  for (const auto& [k, v] : layer) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << num(v);
    first = false;
  }
  out << "},\n \"layer_self_ms\": {";
  first = true;
  for (const auto& [k, v] : log.layer_self_ms()) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << num(v);
    first = false;
  }
  out << "},\n \"spans\": [";
  first = true;
  for (const perfbench::span_record& s : log.spans()) {
    out << (first ? "\n  " : ",\n  ") << "[\"" << json_escape(s.name) << "\", "
        << num(static_cast<double>(s.start_ns - base) / 1e3) << ", "
        << num(static_cast<double>(s.end_ns - base) / 1e3) << ", " << s.parent
        << "]";
    first = false;
  }
  out << "\n]}\n";
}

int run(const options& o) {
  const std::string manifest = manifest_json(o, params_of(o));
  std::cout << "manifest " << manifest << "\n";
  if (!o.write_digests.empty()) return write_digests(o);

  std::map<std::string, std::string> committed;
  if (!o.digests.empty()) committed = read_digests(o.digests);
  const bool check_committed = !o.digests.empty() && o.seed == default_seed;

  std::vector<pass_stats> plain;
  std::vector<pass_stats> traced;
  span_log log;  // the first traced pass, written to --trace-out
  // Passes repeat until --seconds are used up; a pass is not started when it
  // would end more than half a pass past the deadline.
  const std::int64_t start = now_ns();
  double iteration_s = 0;
  do {
    const std::int64_t iteration_start = now_ns();
    plain.push_back(run_pass(o, nullptr, huge_shard_threads));
    if (o.trace) {
      span_log pass_log;
      traced.push_back(run_pass(o, &pass_log, huge_shard_threads));
      const double plain_wall = plain.back().wall_s;
      traced.back().layer["trace.overhead_share"] =
          plain_wall > 0 ? (traced.back().wall_s - plain_wall) / plain_wall : 0;
      if (log.spans().empty()) log = pass_log;
    }
    iteration_s = ms_between(iteration_start, now_ns()) / 1e3;
  } while (ms_between(start, now_ns()) / 1e3 + iteration_s / 2 < o.seconds);

  // Verification: every pass must reproduce the first pass's digests (the
  // traced replays included), and at the default seed the committed ones.
  std::map<std::string, std::string> reference;
  for (const cell_check& ck : plain.front().cells) {
    reference[ck.key] = ck.digest;
  }
  const std::string prefix = digest_prefix(o);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto judge = [&](const pass_stats& ps, const char* kind) {
    for (cell_check ck : ps.cells) {
      ck.expect(reference[ck.key] == ck.digest,
                std::string(kind) + " result differs from the first pass");
      if (check_committed) {
        const auto it = committed.find(prefix + ck.key);
        ck.expect(it != committed.end() && it->second == ck.digest,
                  "digest does not match the committed one");
      }
      ++attempted;
      if (!ck.failures.empty()) {
        ++failed;
        std::cout << "cell " << ck.key << " FAILED (" << kind
                  << "): " << ck.failures.front() << "\n";
      }
    }
  };
  for (const pass_stats& ps : plain) judge(ps, "untraced");
  for (const pass_stats& ps : traced) judge(ps, "traced");
  // Per-cell lines for the huge workloads; one combined digest for all.
  perfbench::digest all;
  for (const auto& [key, dg] : reference) all.add(key + " " + dg);
  if (reference.size() <= 24) {
    for (const cell_check& ck : plain.front().cells) {
      std::cout << "cell " << ck.key << " digest " << ck.digest << " "
                << ck.timing << "\n";
    }
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::cout << "pass " << i << " setup_s " << num(plain[i].setup_s)
              << " wall_s " << num(plain[i].wall_s);
    if (i < traced.size()) {
      std::cout << " traced_setup_s " << num(traced[i].setup_s)
                << " traced_wall_s " << num(traced[i].wall_s);
    }
    std::cout << "\n";
  }
  std::cout << "result digest " << all.hex() << " over " << reference.size()
            << " cells\n";
  std::cout << "cells attempted " << attempted << " failed " << failed
            << " over " << plain.size() << " untraced and " << traced.size()
            << " traced passes\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!o.trace) {
    // Per-pass figures are reduced by their median over passes; per-round
    // times are pooled over all passes; per-cell percentiles are taken
    // within each pass (a pass holds every cell once), then the median.
    std::vector<double> setup, wall, rate, rounds, cell50, cell90;
    for (const pass_stats& ps : plain) {
      setup.push_back(ps.setup_s);
      wall.push_back(ps.wall_s);
      rate.push_back(ps.node_rounds / ps.wall_s / 1e6);
      rounds.insert(rounds.end(), ps.round_ms.begin(), ps.round_ms.end());
      cell50.push_back(smooth_quantile(ps.cell_ms, 0.5));
      cell90.push_back(smooth_quantile(ps.cell_ms, 0.9));
    }
    std::cout << "samples: " << plain.size() << " passes, " << rounds.size()
              << " rounds, " << plain.front().cell_ms.size()
              << " cells per pass\n";
    std::cout << "round_ms p45/p50/p55";
    for (const double q : {0.45, 0.5, 0.55}) {
      std::cout << " " << num(quantile(rounds, q));
    }
    std::cout << " p85/p90/p95";
    for (const double q : {0.85, 0.9, 0.95}) {
      std::cout << " " << num(quantile(rounds, q));
    }
    std::cout << "\n";
    metrics = {
        {"setup_s", {median(setup), "s"}},
        {"wall_s", {median(wall), "s"}},
        {"node_rounds_per_s", {median(rate), "Mnode-rounds/s"}},
        {"round_ms_p50", {smooth_quantile(rounds, 0.5), "ms"}},
        {"round_ms_p90", {smooth_quantile(rounds, 0.9), "ms"}},
        {"cell_ms_p50", {median(cell50), "ms"}},
        {"cell_ms_p90", {median(cell90), "ms"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
  } else {
    std::map<std::string, double> layer;
    for (const auto& [name, unit] : per_layer_units) {
      std::vector<double> vals;
      for (const pass_stats& ps : traced) {
        const auto it = ps.layer.find(name);
        if (it != ps.layer.end()) vals.push_back(it->second);
      }
      layer[name] = median(vals);
    }
    std::vector<double> coverage;
    for (const pass_stats& ps : traced) {
      coverage.insert(coverage.end(), ps.coverage.begin(), ps.coverage.end());
    }
    layer["trace.span_coverage_min"] =
        coverage.empty() ? 0
                         : *std::min_element(coverage.begin(), coverage.end());
    for (const auto& [name, unit] : per_layer_units) {
      metrics.push_back({name, {layer[name], unit}});
    }
    if (!o.trace_out.empty()) write_trace(o, log, layer, manifest);
    std::cout << "layer self time (ms, first traced pass):";
    for (const auto& [k, v] : log.layer_self_ms()) {
      std::cout << " " << k << "=" << num(v);
    }
    std::cout << "\n";
  }
  for (const auto& [name, vu] : metrics) {
    std::cout << "metric " << name << " = " << num(vu.first) << " "
              << vu.second << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << num(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--digests") {
      o.digests = value();
    } else if (a == "--write-digests") {
      o.write_digests = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--manifest") {
      const std::string kv = value();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--manifest needs KEY=VALUE");
      }
      o.manifest.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  bool known = false;
  for (const std::string& w : workload_names) known = known || w == o.workload;
  if (!known) throw std::invalid_argument("unknown workload: " + o.workload);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
