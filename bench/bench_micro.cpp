// Per-phase kernel microbenchmarks: the cost of one edge-phase stream, one
// node-phase fold, and one sharded α-schedule fill, measured in isolation
// under real shard contexts at shard-threads 1 and 8, plus one whole
// flow-imitator round of Algorithm 1 and of Algorithm 2. Not a paper artifact —
// this is the engineering view of the round kernels the steal runner
// chunks: BENCH_micro.json carries `micro-kernels-s1` / `micro-kernels-s8`
// twin rows, so bench/check_regression.py gates both the absolute kernel
// cost and its parallel efficiency exactly like the `dlb_run
// --shard-threads 1,8` grid rows.
//
// Each kernel runs through the `sharded_stepper` protocol (edge_phase /
// node_phase), so the measurement includes the chunked claim loop and the
// completion barrier — the real per-round overheads, not an idealized loop.
// Every kernel runs on torus_2d(512); the edge stream also runs on
// hypercube(dim 18), whose edge endpoints lie up to 2^17 nodes apart in the
// load vector and whose edge arrays are 4.5× the torus's. The s1 instance
// steps sequentially (no context), the s8 instance on an 8-thread pool with
// the work-stealing runner; after timing, the two instances' output buffers
// are compared bit-for-bit, so the bench doubles as a large-n determinism
// smoke. Edge-stream rows also print the bytes a 40 B/item model says they
// touch per edge and the rate computed from it; the model counts cache hits
// as memory traffic, so the computed rate can exceed the host's memory
// bandwidth when the state fits the last-level cache.
//
// The imitator rows (cells 5 and 6) time one round of Algorithm 1 and of
// Algorithm 2 on the count store, imitating FOS on hypercube(dim 18) from
// a 2-per-node spike under 1000 uniform arrivals per round — the stream
// cells of the scale benchmark — and compare the s8 instance's loads with
// the s1 instance's bit for bit. The committed baseline has no such cells,
// so bench/check_regression.py skips them.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/runtime/experiment_grid.hpp"
#include "dlb/runtime/result_sink.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/arrival.hpp"
#include "dlb/workload/competitors.hpp"

namespace {

using namespace dlb;

constexpr std::uint64_t kMasterSeed = 7;
constexpr node_id kTorusSide = 512;  // n = 262144, m = 524288
constexpr int kCubeDim = 18;         // n = 262144, m = 2359296
constexpr int kRounds = 30;          // timed rounds per kernel
constexpr weight_t kArrivals = 1000;  // imitator rows: tokens per round

/// Bytes the edge stream touches per edge in the 40 B/item model, each
/// operand counted once: the endpoints (2 × 4 B), α and the flow it writes
/// (8 B each), and x_u, x_v (2 × 8 B). Reads that hit cache make the
/// memory traffic smaller than the model, and the computed rate larger.
constexpr auto kEdgeStreamBytes =
    static_cast<double>(2 * sizeof(node_id) + 4 * sizeof(real_t));

/// A stepper that exposes the three round kernels in isolation. The state
/// mirrors what linear_process touches per round: loads x, per-edge α, a
/// per-edge flow buffer, and an α fill buffer.
class kernel_bench final : public sharded_stepper {
 public:
  kernel_bench(std::shared_ptr<const graph> g, std::vector<real_t> alpha)
      : g_(std::move(g)),
        alpha_(std::move(alpha)),
        x_(static_cast<std::size_t>(g_->num_nodes()), 10.0),
        flow_(static_cast<std::size_t>(g_->num_edges()), 0.0),
        alpha_buf_(static_cast<std::size_t>(g_->num_edges()), 0.0) {
    // A deterministic non-uniform load so the stream kernel moves real data.
    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_[i] += static_cast<real_t>(i % 17);
    }
  }

  /// Edge-phase stream: flow[e] = α[e]·(x_u − x_v). One linear read of x
  /// through the adjacency, one linear write of flow — the memory shape of
  /// every flow computation in the repo.
  void edge_stream_round() {
    edge_phase([&](const edge_slice& es) {
      es.for_each([&](edge_id e) {
        const edge& ed = g_->endpoints(e);
        flow_[static_cast<std::size_t>(e)] =
            alpha_[static_cast<std::size_t>(e)] *
            (x_[static_cast<std::size_t>(ed.u)] -
             x_[static_cast<std::size_t>(ed.v)]);
      });
    });
  }

  /// Node-phase fold: x[i] += Σ signed flow over incident edges, visited in
  /// ascending edge-id order — the apply phase of every process.
  void node_fold_round() {
    node_phase([&](node_id i0, node_id i1) {
      for (node_id i = i0; i < i1; ++i) {
        real_t delta = 0;
        for (const incidence& inc : g_->neighbors(i)) {
          const real_t f = flow_[static_cast<std::size_t>(inc.edge)];
          delta += g_->endpoints(inc.edge).u == i ? -f : f;
        }
        x_[static_cast<std::size_t>(i)] += delta * 1e-3;
      }
    });
  }

  /// Sharded α-schedule fill through fill_round_alphas (begin_round — the
  /// random schedule's matching draw — then per-slice fill_alphas over
  /// edge_phase): the exact path linear/local-rounding steppers take for
  /// time-varying schedules.
  void alpha_fill_round(const alpha_schedule& schedule, round_t t) {
    bool cached = false;
    fill_round_alphas(schedule, t, alpha_buf_, cached);
  }

  [[nodiscard]] const std::vector<real_t>& flows() const { return flow_; }
  [[nodiscard]] const std::vector<real_t>& loads() const { return x_; }
  [[nodiscard]] const std::vector<real_t>& alpha_fill() const {
    return alpha_buf_;
  }

  [[nodiscard]] const graph& topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
  std::vector<real_t> alpha_;
  std::vector<real_t> x_;
  std::vector<real_t> flow_;
  std::vector<real_t> alpha_buf_;
};

/// The production wiring in miniature: a real pool, work-stealing runner.
std::shared_ptr<const shard_context> steal_context(const graph& g,
                                                   std::size_t shards) {
  auto pool =
      std::make_shared<runtime::thread_pool>(static_cast<unsigned>(shards));
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
}

std::int64_t time_rounds(const std::function<void(int)>& round) {
  round(-1);  // warmup: touch every page, build any lazy state
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kRounds; ++t) round(t);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

/// One graph the kernels run on, with its diffusion α.
struct bench_graph {
  std::string scenario;
  std::shared_ptr<const graph> g;
  std::vector<real_t> alpha;
};

bench_graph make_bench_graph(std::string scenario, graph g) {
  auto shared = std::make_shared<const graph>(std::move(g));
  auto alpha = make_alphas(*shared, alpha_scheme::half_max_degree);
  return {std::move(scenario), std::move(shared), std::move(alpha)};
}

struct kernel_row {
  std::uint64_t cell;
  std::string name;
  const bench_graph* on;
  double bytes_per_item;  ///< 0: not accounted
  std::function<void(kernel_bench&, const alpha_schedule&,
                     const alpha_schedule&, int)>
      run;
};

/// A flow imitator built on a fresh FOS reference from the initial tokens.
using imitator_factory = std::function<std::unique_ptr<flow_imitator>(
    std::unique_ptr<linear_process>, std::vector<weight_t>)>;

struct imitator_row {
  std::uint64_t cell;
  std::string name;
  imitator_factory make;
};

/// Prints one timed cell (per-item cost over m edges per round, plus the
/// model rate when `bytes_per_item` > 0) and appends its row.
void add_row(std::vector<runtime::result_row>& rows, std::uint64_t cell,
             const std::string& grid, const std::string& scenario,
             const std::string& name, const graph& g, std::int64_t wall,
             double bytes_per_item) {
  runtime::result_row row;
  row.cell = cell;
  row.grid = grid;
  row.scenario = scenario;
  row.process = name;
  row.model = "kernel";
  row.n = g.num_nodes();
  row.seed = kMasterSeed;
  row.rounds = kRounds;
  row.wall_ns = wall;
  const double items =
      static_cast<double>(kRounds) * static_cast<double>(g.num_edges());
  const double ns_per_item = static_cast<double>(wall) / items;
  std::printf("  %-20s %-14s %10.3f ms  (%7.2f ns/item/round", name.c_str(),
              scenario.c_str(), static_cast<double>(wall) / 1e6, ns_per_item);
  if (bytes_per_item > 0) {
    // B/ns == GB/s, computed from the model, not measured.
    std::printf(", %.0f B/item model, %6.2f GB/s computed", bytes_per_item,
                bytes_per_item / ns_per_item);
  }
  std::printf(")\n");
  rows.push_back(std::move(row));
}

}  // namespace

int main() {
  const bench_graph torus = make_bench_graph(
      "torus_2d(" + std::to_string(kTorusSide) + ")",
      generators::torus_2d(kTorusSide));
  const bench_graph cube = make_bench_graph(
      "hypercube(" + std::to_string(kCubeDim) + ")",
      generators::hypercube(kCubeDim));
  const graph& tg = *torus.g;
  const speed_vector speeds = uniform_speeds(tg.num_nodes());
  const auto matchings = to_matchings(tg, misra_gries_edge_coloring(tg));
  const periodic_matching_schedule periodic(tg, speeds, matchings);
  const random_matching_schedule random(tg, speeds, kMasterSeed);

  const auto edge_stream = [](kernel_bench& k, const alpha_schedule&,
                              const alpha_schedule&,
                              int) { k.edge_stream_round(); };
  const std::vector<kernel_row> kernels = {
      {0, "edge-stream", &torus, kEdgeStreamBytes, edge_stream},
      {1, "node-fold", &torus, 0,
       [](kernel_bench& k, const alpha_schedule&, const alpha_schedule&,
          int) { k.node_fold_round(); }},
      {2, "alpha-fill-periodic", &torus, 0,
       [](kernel_bench& k, const alpha_schedule& p, const alpha_schedule&,
          int t) { k.alpha_fill_round(p, t < 0 ? 0 : t); }},
      {3, "alpha-fill-random", &torus, 0,
       [](kernel_bench& k, const alpha_schedule&, const alpha_schedule& r,
          int t) { k.alpha_fill_round(r, t < 0 ? 0 : t); }},
      {4, "edge-stream", &cube, kEdgeStreamBytes, edge_stream},
  };
  const std::vector<imitator_row> imitators = {
      {5, "alg1-round",
       [](std::unique_ptr<linear_process> fos, std::vector<weight_t> tokens)
           -> std::unique_ptr<flow_imitator> {
         return std::make_unique<algorithm1>(std::move(fos),
                                             std::move(tokens));
       }},
      {6, "alg2-round",
       [](std::unique_ptr<linear_process> fos, std::vector<weight_t> tokens)
           -> std::unique_ptr<flow_imitator> {
         return std::make_unique<algorithm2>(std::move(fos),
                                             std::move(tokens), kMasterSeed);
       }},
  };
  const graph& cg = *cube.g;
  const speed_vector cube_speeds = uniform_speeds(cg.num_nodes());
  const std::vector<weight_t> cube_tokens =
      workload::spike_workload(cg, cube_speeds, 2);
  // Round t's arrivals, drawn before timing (the warm-up round takes
  // round 0's batch).
  const workload::uniform_arrivals stream(cg.num_nodes(), kArrivals,
                                          kMasterSeed);
  std::vector<std::vector<workload::arrival>> batches;
  for (int t = 0; t < kRounds; ++t) batches.push_back(stream.arrivals(t));

  std::vector<runtime::result_row> rows;
  std::vector<std::unique_ptr<kernel_bench>> witnesses;  // s1 state, per kernel
  std::vector<std::vector<weight_t>> imitator_loads;  // s1 loads, per row

  for (const unsigned shards : {1u, 8u}) {
    const std::string grid = "micro-kernels-s" + std::to_string(shards);
    std::cout << "=== " << grid << " (" << kRounds << " rounds/kernel) ===\n";
    for (const kernel_row& kernel : kernels) {
      const graph& g = *kernel.on->g;
      auto bench = std::make_unique<kernel_bench>(kernel.on->g,
                                                  kernel.on->alpha);
      if (shards > 1) {
        bench->enable_sharded_stepping(steal_context(g, shards));
      }
      auto& k = *bench;
      const std::int64_t wall = time_rounds(
          [&](int t) { kernel.run(k, periodic, random, t); });

      // The s1 instance is the reference; the sharded twin must reproduce
      // its buffers bit-for-bit (same rounds, same inputs).
      if (shards == 1) {
        witnesses.push_back(std::move(bench));
      } else {
        const kernel_bench& ref = *witnesses[kernel.cell];
        if (k.flows() != ref.flows() || k.loads() != ref.loads() ||
            k.alpha_fill() != ref.alpha_fill()) {
          std::cerr << "FATAL: kernel '" << kernel.name << "' on "
                    << kernel.on->scenario << " at s" << shards
                    << " diverged from the sequential reference\n";
          return 1;
        }
      }

      add_row(rows, kernel.cell, grid, kernel.on->scenario, kernel.name, g,
              wall, kernel.bytes_per_item);
    }
    for (const imitator_row& imitator : imitators) {
      auto p = imitator.make(make_fos(cube.g, cube_speeds, cube.alpha),
                             cube_tokens);
      if (shards > 1) p->enable_sharded_stepping(steal_context(cg, shards));
      const std::int64_t wall = time_rounds([&](int t) {
        for (const workload::arrival& a : batches[t < 0 ? 0 : t]) {
          p->inject_tokens(a.node, a.count);
        }
        p->step();
      });
      if (shards == 1) {
        imitator_loads.push_back(p->loads());
      } else if (p->loads() !=
                 imitator_loads[imitator.cell - imitators[0].cell]) {
        std::cerr << "FATAL: '" << imitator.name << "' on " << cube.scenario
                  << " at s" << shards
                  << " diverged from the sequential reference\n";
        return 1;
      }
      add_row(rows, imitator.cell, grid, cube.scenario, imitator.name, cg,
              wall, 0);
    }
  }

  runtime::print_scaling_efficiency(rows, std::cout);

  const std::string path = "BENCH_micro.json";
  std::ofstream out(path);
  runtime::write_rows(out, rows, runtime::sink_format::json,
                      runtime::timing::include);
  std::cout << "\nwrote " << rows.size() << " cells to " << path << "\n";
  std::cerr << "BENCH " << path << ": " << rows.size() << " cells\n";
  return 0;
}
