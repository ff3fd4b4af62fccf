#include "dlb/runtime/experiment_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "dlb/analysis/stats.hpp"
#include "dlb/common/contracts.hpp"
#include "dlb/common/rng.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/events/async_driver.hpp"
#include "dlb/events/event_source.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/runtime/grid_checkpoint.hpp"
#include "dlb/runtime/wall_timer.hpp"
#include "dlb/workload/arrival.hpp"

namespace dlb::runtime {

namespace {

/// Per-cell sharding rig: the shard pool plus the context handed to the
/// processes. Built before the timed engine call — the "only the engine call
/// is timed" contract extends to shard partition/pool construction, which
/// would otherwise skew wall_ns for exactly the short-round huge cells the
/// perf baseline watches.
struct shard_rig {
  std::unique_ptr<thread_pool> pool;
  std::shared_ptr<const shard_context> ctx;
};

/// Builds one cell's trace source (from the grid-level pre-parsed events
/// when available, else straight from the file) and validates it against
/// this cell's scenario: no service events on grids without a service model
/// (mixed drain support would corrupt the cross-process comparison), and
/// every node id in range — a bad trace must fail here with the file named,
/// not cells later inside a worker's inject_tokens precondition.
std::unique_ptr<events::trace_source> make_cell_trace(const grid_spec& spec,
                                                      node_id n) {
  // Copying the prototype is O(1): the parsed events are shared and the
  // service/max-node summaries below are cached at parse time.
  auto trace = spec.trace_proto != nullptr
                   ? std::make_unique<events::trace_source>(*spec.trace_proto)
                   : events::load_trace(spec.trace_path);
  if (spec.service_rate <= 0 && trace->has_service_events()) {
    throw contract_violation(
        "trace " + spec.trace_path + " carries service events, but grid " +
        spec.name + " has no service model (use async-service)");
  }
  if (trace->max_node() >= n) {
    throw contract_violation(
        "trace " + spec.trace_path + " names node " +
        std::to_string(trace->max_node()) + ", but scenario has only " +
        std::to_string(n) + " nodes");
  }
  return trace;
}

shard_rig make_shard_rig(const graph& g, unsigned shard_threads,
                         obs::recorder* rec) {
  shard_rig rig;
  if (shard_threads <= 1) return rig;
  rig.pool = std::make_unique<thread_pool>(shard_threads);
  // The shard pool's own scheduling telemetry (pool_task spans with
  // enqueue→start latency and any counter payload) goes to the same
  // recorder as the phase spans.
  if (rec != nullptr) rig.pool->set_recorder(rec);
  thread_pool* pool = rig.pool.get();
  rig.ctx = std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shard_threads),
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
  return rig;
}

}  // namespace

std::vector<grid_cell> expand_grid(const grid_spec& spec,
                                   std::uint64_t master_seed) {
  DLB_EXPECTS(spec.repeats >= 1);
  DLB_EXPECTS(!spec.graphs.empty());
  DLB_EXPECTS(!spec.processes.empty());
  if (spec.kind != grid_kind::static_balancing) {
    DLB_EXPECTS(spec.dynamic_rounds >= 1);
  }

  // n × expected rounds; a static cell's T^A is unknown before it runs, so
  // its expected rounds collapse to 1 and graph size carries the ordering.
  const std::uint64_t expected_rounds =
      spec.kind == grid_kind::static_balancing
          ? 1
          : static_cast<std::uint64_t>(spec.dynamic_rounds);
  // Far outside the cell-index stream (cells use 0, 1, 2, ...) and distinct
  // from graph_seed_stream in grids.cpp.
  constexpr std::uint64_t traffic_stream = 0x74726166666963ULL;  // "traffic"
  const std::uint64_t traffic_root = derive_seed(master_seed, traffic_stream);
  std::vector<grid_cell> cells;
  std::uint64_t index = 0;
  const auto push = [&](std::size_t g, std::size_t p) {
    const int reps = spec.processes[p].randomized ? spec.repeats : 1;
    const std::uint64_t cost =
        static_cast<std::uint64_t>(spec.graphs[g].g->num_nodes()) *
        expected_rounds;
    for (int r = 0; r < reps; ++r) {
      // Competitor-independent: (graph, repetition) only, so rows compared
      // in one pivot column share their event streams.
      const std::uint64_t traffic = derive_seed(
          traffic_root,
          static_cast<std::uint64_t>(g) * 0x10000ULL +
              static_cast<std::uint64_t>(r));
      cells.push_back(
          {index, g, p, r, derive_seed(master_seed, index), traffic, cost});
      ++index;
    }
  };
  if (!spec.pairs.empty()) {
    for (const auto& [g, p] : spec.pairs) {
      DLB_EXPECTS(g < spec.graphs.size() && p < spec.processes.size());
      push(g, p);
    }
    return cells;
  }
  for (std::size_t g = 0; g < spec.graphs.size(); ++g) {
    for (std::size_t p = 0; p < spec.processes.size(); ++p) {
      push(g, p);
    }
  }
  return cells;
}

namespace {

/// The cell body proper, with the observability probe threaded through the
/// process, shard rig, and engine driver. A default probe = no observation.
result_row run_cell_impl(const grid_spec& spec, const grid_cell& cell,
                         const obs::probe& pb) {
  const workload::graph_case& gc = spec.graphs[cell.graph_index];
  const workload::competitor& comp = spec.processes[cell.process_index];
  const node_id n = gc.g->num_nodes();

  result_row row;
  row.cell = cell.index;
  row.grid = spec.name;
  row.scenario = gc.name;
  row.process = comp.name;
  row.model = workload::model_name(spec.comm_model);
  row.n = n;
  row.seed = cell.seed;

  if (spec.custom_cell) {
    // Custom cells own their whole body, so wall_ns covers construction too.
    const wall_timer timer;
    spec.custom_cell(spec, cell, row);
    row.wall_ns = timer.elapsed_ns();
    if (spec.annotate) spec.annotate(spec, cell, row);
    return row;
  }

  const speed_vector s = uniform_speeds(n);
  const auto tokens = workload::spike_workload(*gc.g, s, spec.spike_per_node);
  // Only the engine call is timed; process/reference construction (graph
  // coloring etc.) and the shard pool/plan setup are identical per
  // competitor and would swamp fast cells.
  const auto timed = [&row](const auto& engine_call) {
    const wall_timer timer;
    const auto result = engine_call();
    row.wall_ns = timer.elapsed_ns();
    return result;
  };
  const shard_rig rig = make_shard_rig(*gc.g, spec.shard_threads, pb.rec);
  auto d = comp.build(gc.g, s, tokens, spec.comm_model, cell.seed);
  if (rig.ctx != nullptr) d->enable_sharded_stepping(rig.ctx);
  if (pb.active()) d->set_probe(pb);
  if (spec.kind == grid_kind::static_balancing) {
    auto reference =
        workload::make_continuous(spec.comm_model, gc.g, s, cell.seed);
    const experiment_result r = timed([&] {
      return run_experiment(*d, *reference, spec.round_cap, nullptr, pb);
    });
    row.rounds = r.rounds;
    row.converged = r.continuous_converged;
    row.final_max_min = r.final_max_min;
    row.final_max_avg = r.final_max_avg;
    row.dummy_created = r.dummy_created;
  } else if (spec.kind == grid_kind::async_events) {
    // Traffic streams derive from the competitor-independent traffic_seed
    // (sub-stream 0 = arrivals, 1 = service): every competitor row of one
    // scenario/repetition faces the identical event stream, and traffic
    // stays decorrelated from the process's internal randomness (cell.seed).
    std::vector<std::unique_ptr<events::event_source>> sources;
    DLB_EXPECTS(spec.arrival_rate > 0);
    sources.push_back(std::make_unique<events::poisson_source>(
        n, spec.arrival_rate, derive_seed(cell.traffic_seed, 0),
        events::event_kind::arrival));
    if (spec.service_rate > 0) {
      sources.push_back(std::make_unique<events::poisson_source>(
          n, spec.service_rate, derive_seed(cell.traffic_seed, 1),
          events::event_kind::service));
    }
    if (!spec.trace_path.empty()) {
      sources.push_back(make_cell_trace(spec, n));
    }
    const events::async_result r = timed([&] {
      return events::run_async(*d, std::move(sources),
                               {.rounds = spec.dynamic_rounds, .probe = pb});
    });
    row.rounds = r.rounds;
    row.converged = false;  // no T^A gate exists for event-driven runs
    row.final_max_min = r.final_max_min;
    row.mean_max_min = r.mean_max_min;
    row.peak_max_min = r.peak_max_min;
    row.dummy_created = d->dummy_created();
    row.extra.push_back({"arrived", static_cast<real_t>(r.total_arrived)});
    row.extra.push_back({"served", static_cast<real_t>(r.tokens_served)});
    row.extra.push_back(
        {"service_attempts", static_cast<real_t>(r.service_attempts)});
    // time_weighted_mean_max_min is deliberately not a column: at unit round
    // spacing it equals mean_max_min exactly (async_driver.hpp).
    row.extra.push_back({"depth_p50", static_cast<real_t>(r.depth_p50)});
    row.extra.push_back({"depth_p90", static_cast<real_t>(r.depth_p90)});
    row.extra.push_back({"depth_p99", static_cast<real_t>(r.depth_p99)});
    row.extra.push_back({"depth_max", static_cast<real_t>(r.depth_max)});
  } else {
    // Arrivals get their own stream off the cell seed so the process's
    // internal randomness and the arrival pattern stay decorrelated.
    const std::unique_ptr<workload::arrival_schedule> sched =
        spec.arrivals == arrival_pattern::uniform
            ? std::unique_ptr<workload::arrival_schedule>(
                  std::make_unique<workload::uniform_arrivals>(
                      n, spec.arrivals_per_round, derive_seed(cell.seed, 1)))
            : std::make_unique<workload::burst_arrivals>(
                  spec.burst_target, spec.burst_size, spec.burst_period);
    const dynamic_result r = timed([&] {
      return run_dynamic(*d, *sched, spec.dynamic_rounds, nullptr, pb);
    });
    row.rounds = r.rounds;
    row.converged = false;  // no T^A gate exists for dynamic runs
    row.final_max_min = r.final_max_min;
    row.mean_max_min = r.mean_max_min;
    row.peak_max_min = r.peak_max_min;
    row.dummy_created = d->dummy_created();
  }
  if (spec.annotate) spec.annotate(spec, cell, row);
  return row;
}

}  // namespace

result_row run_cell(const grid_spec& spec, const grid_cell& cell) {
  if (spec.recorder == nullptr && !spec.obs_extras) {
    return run_cell_impl(spec, cell, {});
  }
  // One metrics object per executing cell; shard threads bump it through
  // the probe, and the snapshot goes to the recorder's sidecar (and, under
  // --obs-extras, to row.extra) once the cell is done.
  obs::metrics met;
  obs::probe pb{spec.recorder, &met, obs::no_cell};
  std::int64_t cell_start = 0;
  if (spec.recorder != nullptr) {
    pb.cell = spec.recorder->register_cell(
        spec.name, spec.graphs[cell.graph_index].name,
        spec.processes[cell.process_index].name, cell.index);
    cell_start = spec.recorder->now();
  }
  result_row row = run_cell_impl(spec, cell, pb);
  const obs::metrics_snapshot snap = met.take();
  if (spec.obs_extras) {
    // Allow-list of counters that are deterministic at any --threads /
    // --shard-threads (experiment_grid.hpp); timing-derived metrics stay
    // out of rows by design.
    for (const char* key :
         {"tokens_moved", "edges_touched", "nodes_touched", "phases",
          "rounds"}) {
      row.extra.push_back({std::string("obs_") + key,
                           static_cast<real_t>(snap.counter(key))});
    }
  }
  if (spec.recorder != nullptr) {
    spec.recorder->complete("cell", cell_start,
                            spec.recorder->now() - cell_start, -1, pb.cell);
    spec.recorder->finish_cell(pb.cell, snap);
  }
  return row;
}

namespace {

/// One `slope(<family>)` pivot cell per (family, process) with at least two
/// sizes: the log-log fit of the mean final discrepancy over n, the mean
/// floored at 0.25 so a process that reaches zero stays log-safe. A family
/// is the scenario's generator name (the text before '('); the columns keep
/// the families' first-appearance order.
std::vector<analysis::pivot_cell> family_slope_cells(
    const std::vector<result_row>& rows) {
  std::vector<std::string> families;
  // (family, process) -> n -> (discrepancy sum, count)
  std::map<std::pair<std::string, std::string>,
           std::map<std::int64_t, std::pair<real_t, int>>>
      series;
  for (const result_row& row : rows) {
    const std::string family = row.scenario.substr(0, row.scenario.find('('));
    if (std::find(families.begin(), families.end(), family) ==
        families.end()) {
      families.push_back(family);
    }
    auto& [sum, count] = series[{family, row.process}][row.n];
    sum += row.final_max_min;
    ++count;
  }
  std::vector<analysis::pivot_cell> cells;
  for (const std::string& family : families) {
    for (auto it = series.lower_bound({family, ""});
         it != series.end() && it->first.first == family; ++it) {
      if (it->second.size() < 2) continue;
      std::vector<real_t> xs;
      std::vector<real_t> ys;
      for (const auto& [n, acc] : it->second) {
        xs.push_back(static_cast<real_t>(n));
        ys.push_back(std::max<real_t>(acc.first / acc.second, 0.25));
      }
      real_t slope = analysis::log_log_slope(xs, ys);
      // The pivot prints 2 decimals; a fit flatter than half a unit there
      // reads 0.00, never -0.00.
      if (std::abs(slope) < 0.005) slope = 0;
      cells.push_back({it->first.second, "slope(" + family + ")", slope});
    }
  }
  return cells;
}

/// Splits a `-s<k>` shard-thread suffix off a grid name. Returns (base
/// name, k); k = 0 when the name carries no such suffix.
std::pair<std::string, unsigned> split_shard_suffix(const std::string& grid) {
  const std::size_t pos = grid.rfind("-s");
  if (pos == std::string::npos || pos + 2 >= grid.size()) return {grid, 0};
  unsigned k = 0;
  for (std::size_t i = pos + 2; i < grid.size(); ++i) {
    if (grid[i] < '0' || grid[i] > '9') return {grid, 0};
    k = k * 10 + static_cast<unsigned>(grid[i] - '0');
  }
  return {grid.substr(0, pos), k};
}

}  // namespace

analysis::ascii_table render_view(const grid_spec& spec,
                                  const std::vector<result_row>& rows) {
  switch (spec.view) {
    case table_view::discrepancy_slopes: {
      std::vector<analysis::pivot_cell> cells = discrepancy_cells(rows);
      const std::vector<analysis::pivot_cell> slopes =
          family_slope_cells(rows);
      cells.insert(cells.end(), slopes.begin(), slopes.end());
      return analysis::pivot("process", cells);
    }
    case table_view::mean_discrepancy:
      return analysis::pivot("process", metric_cells(rows, "mean_max_min"));
    case table_view::rounds: {
      // A balancing time only exists for converged cells; rendering the
      // round cap as a measured T would corrupt the T-vs-predictor shape,
      // so unconverged cells show as empty ("-") instead.
      std::vector<result_row> converged;
      std::copy_if(rows.begin(), rows.end(), std::back_inserter(converged),
                   [](const result_row& r) { return r.converged; });
      return analysis::pivot("process", metric_cells(converged, "rounds"),
                             /*precision=*/0);
    }
    case table_view::extras:
      return analysis::pivot("case", extras_cells(rows));
    case table_view::discrepancy:
      break;
  }
  return analysis::pivot("process", discrepancy_cells(rows));
}

void print_scaling_efficiency(const std::vector<result_row>& rows,
                              std::ostream& os) {
  // (base grid, cell) -> (k -> wall_ns)
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<unsigned, std::int64_t>>
      twins;
  for (const result_row& row : rows) {
    const auto [base, k] = split_shard_suffix(row.grid);
    if (k >= 1) twins[{base, row.cell}][k] = row.wall_ns;
  }
  bool header = false;
  for (const auto& [key, by_k] : twins) {
    const auto s1 = by_k.find(1);
    if (s1 == by_k.end() || by_k.size() < 2) continue;
    if (!header) {
      os << "\n=== scaling efficiency (speedup vs -s1, efficiency = "
            "speedup / threads) ===\n";
      header = true;
    }
    os << "  " << std::left << std::setw(28)
       << (key.first + "/cell" + std::to_string(key.second)) << std::right;
    for (const auto& [k, wall] : by_k) {
      if (k == 1 || wall <= 0) continue;
      const double speedup = static_cast<double>(s1->second) /
                             static_cast<double>(wall);
      char col[64];
      std::snprintf(col, sizeof(col), "  s%u: %.2fx (eff %.2f)", k, speedup,
                    speedup / static_cast<double>(k));
      os << col;
    }
    os << "\n";
  }
}

void run_grid(const grid_spec& spec, std::uint64_t master_seed,
              thread_pool& pool,
              const std::function<void(const result_row&)>& emit,
              grid_checkpoint* ckpt) {
  DLB_EXPECTS(emit != nullptr);
  const std::vector<grid_cell> cells = expand_grid(spec, master_seed);

  // Reorder buffer: cells finish in scheduler order, rows leave in cell
  // order. Checkpointed rows enter it up front; a finished cell parks its
  // row until every earlier cell has been emitted.
  std::map<std::uint64_t, result_row> pending;
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string* json =
        ckpt != nullptr ? ckpt->find(spec.name, cells[i].index) : nullptr;
    if (json != nullptr) {
      pending.emplace(cells[i].index, parse_row(*json));
    } else {
      todo.push_back(i);
    }
  }
  std::uint64_t next = 0;
  const auto emit_ready = [&]() {
    for (auto it = pending.find(next); it != pending.end();
         it = pending.find(next)) {
      emit(it->second);
      pending.erase(it);
      ++next;
    }
  };
  emit_ready();

  // Longest-first: the pool hands out indices in order, so the most
  // expensive cells do not land last and stretch the tail. Ties keep cell
  // order.
  std::stable_sort(todo.begin(), todo.end(), [&](std::size_t a, std::size_t b) {
    return cells[a].cost_estimate > cells[b].cost_estimate;
  });
  std::mutex mutex;
  pool.parallel_for_each(todo.size(), [&](std::size_t k) {
    result_row row = run_cell(spec, cells[todo[k]]);
    const std::lock_guard<std::mutex> lock(mutex);
    if (ckpt != nullptr) ckpt->record(spec.name, row);
    pending.emplace(row.cell, std::move(row));
    emit_ready();
  });
  if (ckpt != nullptr) ckpt->flush();
  DLB_ENSURES(pending.empty() && next == cells.size());
}

std::vector<result_row> run_grid(const grid_spec& spec,
                                 std::uint64_t master_seed,
                                 thread_pool& pool) {
  std::vector<result_row> rows;
  run_grid(spec, master_seed, pool,
           [&rows](const result_row& row) { rows.push_back(row); });
  return rows;
}

}  // namespace dlb::runtime
