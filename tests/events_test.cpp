// The dlb::events subsystem: stable event-queue ordering, deterministic
// seeded sources, departures (drain_tokens), and the async driver's two
// headline contracts — a lock-step schedule run through run_async
// reproduces run_dynamic bit-for-bit, and async grids are byte-identical at
// any runtime thread or shard-thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/events/async_driver.hpp"
#include "dlb/events/event_queue.hpp"
#include "dlb/events/event_source.hpp"
#include "dlb/events/schedule_source.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/arrival.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

using events::async_options;
using events::async_result;
using events::event;
using events::event_kind;
using events::event_queue;
using events::run_async;
using events::sim_time;

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

std::unique_ptr<linear_process> fos_on(std::shared_ptr<const graph> g) {
  return make_fos(g, uniform_speeds(g->num_nodes()),
                  make_alphas(*g, alpha_scheme::half_max_degree));
}

// ------------------------------------------------------------ event_queue

TEST(EventQueueTest, PopsInTimeOrder) {
  event_queue q;
  q.push({3.5, event_kind::arrival, 0, 1});
  q.push({1.25, event_kind::arrival, 1, 1});
  q.push({2.0, event_kind::service, 2, 1});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().ev.time, 1.25);
  EXPECT_EQ(q.pop().ev.time, 2.0);
  EXPECT_EQ(q.pop().ev.time, 3.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EqualTimestampsPopInSchedulingOrder) {
  // The stability contract: ties on time break by the sequence number
  // assigned at push, never by heap internals.
  event_queue q;
  for (node_id i = 0; i < 50; ++i) {
    q.push({7.0, event_kind::arrival, i, 1}, /*source=*/static_cast<std::size_t>(i % 3));
  }
  for (node_id i = 0; i < 50; ++i) {
    const event_queue::entry e = q.pop();
    EXPECT_EQ(e.ev.node, i);
    EXPECT_EQ(e.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(e.source, static_cast<std::size_t>(i % 3));
  }
}

TEST(EventQueueTest, StabilitySurvivesInterleavedPushPop) {
  event_queue q;
  q.push({1.0, event_kind::arrival, 0, 1});
  q.push({1.0, event_kind::arrival, 1, 1});
  EXPECT_EQ(q.pop().ev.node, 0);
  q.push({1.0, event_kind::arrival, 2, 1});  // same time, later seq
  q.push({0.5, event_kind::arrival, 3, 1});  // earlier time beats any seq
  EXPECT_EQ(q.pop().ev.node, 3);
  EXPECT_EQ(q.pop().ev.node, 1);
  EXPECT_EQ(q.pop().ev.node, 2);
}

// ---------------------------------------------------------------- sources

TEST(PoissonSourceTest, StreamIsDeterministicAndTimeOrdered) {
  events::poisson_source a(/*n=*/16, /*total_rate=*/4.0, /*seed=*/9);
  events::poisson_source b(/*n=*/16, /*total_rate=*/4.0, /*seed=*/9);
  sim_time last = 0;
  for (int k = 0; k < 200; ++k) {
    const auto ea = a.next();
    const auto eb = b.next();
    ASSERT_TRUE(ea.has_value() && eb.has_value());
    EXPECT_EQ(ea->time, eb->time);
    EXPECT_EQ(ea->node, eb->node);
    EXPECT_GE(ea->time, last);
    EXPECT_GE(ea->node, 0);
    EXPECT_LT(ea->node, 16);
    EXPECT_EQ(ea->count, 1);
    last = ea->time;
  }
}

TEST(PoissonSourceTest, PerNodeRatesConcentrateWhereTheMassIs) {
  // Node 3 carries 90% of the rate; it must dominate the stream.
  std::vector<real_t> rates(8, 0.25);
  rates[3] = 15.75;  // total 17.5
  events::poisson_source src(rates, /*seed=*/5);
  int on_hot = 0;
  for (int k = 0; k < 500; ++k) {
    const auto ev = src.next();
    ASSERT_TRUE(ev.has_value());
    if (ev->node == 3) ++on_hot;
  }
  EXPECT_GT(on_hot, 350);
}

// An infinite rate makes every interarrival time 0, so simulated time never
// advances; a NaN rate fails every comparison. Both are refused.
TEST(PoissonSourceTest, RejectsNonFiniteRates) {
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  EXPECT_THROW(events::poisson_source(4, inf, 1), contract_violation);
  EXPECT_THROW(events::poisson_source(4, nan, 1), contract_violation);
  EXPECT_THROW(events::poisson_source(std::vector<real_t>{1.0, inf}, 1),
               contract_violation);
  EXPECT_THROW(events::poisson_source(std::vector<real_t>{1.0, nan}, 1),
               contract_violation);
  // Finite rates whose sum overflows would be an infinite aggregate rate.
  EXPECT_THROW(events::poisson_source(std::vector<real_t>{1e308, 1e308}, 1),
               contract_violation);
}

TEST(PoissonSourceTest, MeanInterarrivalTracksRate) {
  events::poisson_source src(/*n=*/4, /*total_rate=*/10.0, /*seed=*/1);
  sim_time last = 0;
  const int k = 2000;
  for (int i = 0; i < k; ++i) last = src.next()->time;
  // 2000 events at aggregate rate 10 → elapsed ≈ 200 virtual time units.
  EXPECT_NEAR(last, 200.0, 20.0);
}

TEST(TraceSourceTest, ParsesCommentsKindsAndOrder) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "0.5 3 2\n"
      "1.25 0 1 a\n"
      "1.25 1 4 s\n");
  events::trace_source src(in, "test-trace");
  EXPECT_EQ(src.size(), 3u);
  auto e1 = src.next();
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->time, 0.5);
  EXPECT_EQ(e1->node, 3);
  EXPECT_EQ(e1->count, 2);
  EXPECT_EQ(e1->kind, event_kind::arrival);
  EXPECT_EQ(src.next()->kind, event_kind::arrival);
  auto e3 = src.next();
  EXPECT_EQ(e3->kind, event_kind::service);
  EXPECT_EQ(e3->count, 4);
  EXPECT_FALSE(src.next().has_value());
}

TEST(TraceSourceTest, RejectsMalformedTraces) {
  std::istringstream decreasing("2.0 0 1\n1.0 0 1\n");
  EXPECT_THROW(events::trace_source s(decreasing), contract_violation);
  std::istringstream garbage("zero 0 1\n");
  EXPECT_THROW(events::trace_source s(garbage), contract_violation);
  std::istringstream bad_count("1.0 0 0\n");
  EXPECT_THROW(events::trace_source s(bad_count), contract_violation);
  // A NaN time must fail at parse, not poison the ordering check and the
  // event queue's comparator downstream. Infinities are equally unusable.
  std::istringstream nan_time("nan 0 1\n0.5 0 1\n");
  EXPECT_THROW(events::trace_source s(nan_time), contract_violation);
  std::istringstream inf_time("inf 0 1\n");
  EXPECT_THROW(events::trace_source s(inf_time), contract_violation);
  // Node ids past node_id's range must fail, not wrap into a valid id.
  std::istringstream wraps_to_zero("0 4294967296 1\n");
  EXPECT_THROW(events::trace_source s(wraps_to_zero), contract_violation);
  std::istringstream wraps_negative("0 2147483648 1\n");
  EXPECT_THROW(events::trace_source s(wraps_negative), contract_violation);
  // A count above max_cell_tokens must fail at parse, not as bad_alloc.
  std::istringstream huge_count("0.5 0 1000000000000\n");
  EXPECT_THROW(events::trace_source s(huge_count), contract_violation);
}

TEST(TraceSourceTest, ReportsServiceEvents) {
  std::istringstream with("1 0 1\n2 0 1 s\n");
  EXPECT_TRUE(events::trace_source(with).has_service_events());
  std::istringstream without("1 0 1\n2 0 1 a\n");
  EXPECT_FALSE(events::trace_source(without).has_service_events());
}

// ------------------------------------------------------------ drain_tokens

TEST(DrainTest, Algorithm1MirrorsDeparturesIntoContinuous) {
  auto g = make_g(generators::torus_2d(4));
  algorithm1 alg(fos_on(g),
                 task_assignment::tokens(workload::uniform_random(16, 320, 1)));
  for (int t = 0; t < 5; ++t) alg.step();
  const weight_t before = alg.loads()[2];
  const weight_t drained = alg.drain_tokens(2, 3);
  EXPECT_GE(drained, 0);
  EXPECT_LE(drained, 3);
  EXPECT_EQ(alg.loads()[2], before - drained);
  for (int t = 0; t < 60; ++t) alg.step();
  // The continuous copy saw the same signed injections, so totals agree.
  real_t cont_total = 0;
  for (const real_t x : alg.continuous().loads()) cont_total += x;
  weight_t disc_total = 0;
  for (const weight_t x : alg.loads()) disc_total += x;
  EXPECT_NEAR(cont_total,
              static_cast<real_t>(disc_total - alg.dummy_created()), 1e-6);
}

TEST(DrainTest, DrainStopsAtEmptyAndNeverTakesDummies) {
  auto g = make_g(generators::path(3));
  std::vector<weight_t> tokens = {2, 0, 0};
  algorithm1 alg(fos_on(g), task_assignment::tokens(tokens));
  EXPECT_EQ(alg.drain_tokens(0, 5), 2);  // only 2 real units available
  EXPECT_EQ(alg.drain_tokens(0, 5), 0);  // idle server
  EXPECT_EQ(alg.loads()[0], 0);
}

TEST(DrainTest, Algorithm2DrainRespectsRealLoad) {
  auto g = make_g(generators::cycle(8));
  algorithm2 alg(fos_on(g), workload::point_mass(8, 0, 80), /*seed=*/5);
  for (int t = 0; t < 10; ++t) alg.step();
  const auto real_before = alg.real_loads();
  const weight_t drained = alg.drain_tokens(4, 1'000'000);
  EXPECT_EQ(drained, real_before[4]);  // everything real, nothing more
  EXPECT_EQ(alg.real_loads()[4], 0);
}

// ----------------------------------------------------- adapter equivalence

// The acceptance contract: a lock-step arrival_schedule run through the
// async driver reproduces run_dynamic's metrics bit-for-bit (same injection
// order, same per-round sampling, same floating-point operation sequence).
TEST(AsyncDriverTest, LockStepAdapterReproducesRunDynamicBitForBit) {
  const node_id n = 16;
  const round_t rounds = 120;
  auto g = make_g(generators::torus_2d(4));
  const auto tokens = workload::balanced_plus_spike(n, 10, 0, 40);

  algorithm1 lockstep(fos_on(g), task_assignment::tokens(tokens));
  workload::uniform_arrivals sched(n, 6, /*seed=*/13);
  const dynamic_result want = run_dynamic(lockstep, sched, rounds);

  algorithm1 eventdriven(fos_on(g), task_assignment::tokens(tokens));
  std::vector<std::unique_ptr<events::event_source>> sources;
  sources.push_back(std::make_unique<events::schedule_source>(
      std::make_unique<workload::uniform_arrivals>(n, 6, /*seed=*/13),
      rounds));
  const async_result got =
      run_async(eventdriven, std::move(sources), {.rounds = rounds, .warmup = -1, .probe = {}});

  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.total_arrived, want.total_arrived);
  // Bit-for-bit: EXPECT_EQ on doubles, not EXPECT_NEAR.
  EXPECT_EQ(got.mean_max_min, want.mean_max_min);
  EXPECT_EQ(got.peak_max_min, want.peak_max_min);
  EXPECT_EQ(got.final_max_min, want.final_max_min);
  const dynamic_result slice = got.dynamics();
  EXPECT_EQ(slice.mean_max_min, want.mean_max_min);
  EXPECT_EQ(slice.peak_max_min, want.peak_max_min);
  EXPECT_EQ(slice.final_max_min, want.final_max_min);
  EXPECT_EQ(slice.total_arrived, want.total_arrived);
  // And the processes themselves marched in lock step.
  EXPECT_EQ(eventdriven.loads(), lockstep.loads());
}

// ----------------------------------------------------------- async driver

TEST(AsyncDriverTest, OpenServiceModelConservesTokens) {
  const node_id n = 16;
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::add_speed_multiple(
      workload::point_mass(n, 0, 64), uniform_speeds(n), 8);
  weight_t initial = 0;
  for (const weight_t w : tokens) initial += w;

  algorithm1 alg(fos_on(g), task_assignment::tokens(tokens));
  std::vector<std::unique_ptr<events::event_source>> sources;
  sources.push_back(std::make_unique<events::poisson_source>(
      n, /*total_rate=*/8.0, /*seed=*/3, event_kind::arrival));
  sources.push_back(std::make_unique<events::poisson_source>(
      n, /*total_rate=*/6.0, /*seed=*/4, event_kind::service));
  const async_result r = run_async(alg, std::move(sources), {.rounds = 200, .warmup = -1, .probe = {}});

  EXPECT_GT(r.total_arrived, 0);
  EXPECT_GT(r.tokens_served, 0);
  EXPECT_LE(r.tokens_served, r.service_attempts);
  weight_t final_real = 0;
  for (const weight_t w : alg.real_loads()) final_real += w;
  EXPECT_EQ(final_real, initial + r.total_arrived - r.tokens_served);
  // Depth percentiles are a nondecreasing ladder capped by the max.
  EXPECT_LE(r.depth_p50, r.depth_p90);
  EXPECT_LE(r.depth_p90, r.depth_p99);
  EXPECT_LE(r.depth_p99, r.depth_max);
  // Unit round spacing: the time-weighted mean equals the per-round mean.
  EXPECT_EQ(r.time_weighted_mean_max_min, r.mean_max_min);
}

TEST(AsyncDriverTest, TraceEventsLandInTheirRoundInterval) {
  auto g = make_g(generators::path(4));
  algorithm1 alg(fos_on(g),
                 task_assignment::tokens({8, 8, 8, 8}));
  std::vector<events::event> evs = {
      {0.25, event_kind::arrival, 0, 5},
      {2.0, event_kind::arrival, 1, 7},   // integer time → round 2's interval
      {3.75, event_kind::arrival, 2, 11},
  };
  std::vector<weight_t> seen_at_round;  // total load after each round
  std::vector<std::unique_ptr<events::event_source>> sources;
  sources.push_back(std::make_unique<events::trace_source>(evs));
  const async_result r = run_async(
      alg, std::move(sources), {.rounds = 5, .warmup = -1, .probe = {}},
      [&](round_t, const discrete_process& d) {
        weight_t total = 0;
        for (const weight_t w : d.loads()) total += w;
        seen_at_round.push_back(total);
      });
  EXPECT_EQ(r.total_arrived, 23);
  ASSERT_EQ(seen_at_round.size(), 5u);
  EXPECT_EQ(seen_at_round[0], 32 + 5);            // 0.25 ∈ [0,1)
  EXPECT_EQ(seen_at_round[1], 32 + 5);            // nothing in [1,2)
  EXPECT_EQ(seen_at_round[2], 32 + 5 + 7);        // 2.0 ∈ [2,3)
  EXPECT_EQ(seen_at_round[3], 32 + 5 + 7 + 11);   // 3.75 ∈ [3,4)
  EXPECT_EQ(seen_at_round[4], 32 + 5 + 7 + 11);
}

// ------------------------------------------------------- grid determinism

std::string serialized_grid(const std::string& name,
                            const runtime::grid_options& opts,
                            unsigned threads) {
  const runtime::grid_spec spec = runtime::make_named_grid(name, opts, 77);
  runtime::thread_pool pool(threads);
  const auto rows = runtime::run_grid(spec, 77, pool);
  std::ostringstream os;
  runtime::write_rows(os, rows, runtime::sink_format::json,
                      runtime::timing::exclude);
  return os.str();
}

runtime::grid_options tiny_async_options() {
  runtime::grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 40;
  opts.arrival_rate = 5.0;
  opts.service_rate = 3.0;
  return opts;
}

TEST(AsyncGridTest, PoissonGridByteIdenticalAtOneAndEightThreads) {
  const auto opts = tiny_async_options();
  const std::string one = serialized_grid("async-poisson", opts, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, serialized_grid("async-poisson", opts, 8));
}

TEST(AsyncGridTest, ServiceGridByteIdenticalAtOneAndEightThreads) {
  const auto opts = tiny_async_options();
  EXPECT_EQ(serialized_grid("async-service", opts, 1),
            serialized_grid("async-service", opts, 8));
}

TEST(AsyncGridTest, PoissonGridByteIdenticalAcrossShardThreads) {
  // The acceptance contract's second half: sharded stepping is an execution
  // strategy, so async rows cannot depend on --shard-threads either.
  auto opts = tiny_async_options();
  opts.shard_threads = 1;
  const std::string sequential = serialized_grid("async-poisson", opts, 1);
  opts.shard_threads = 8;
  EXPECT_EQ(sequential, serialized_grid("async-poisson", opts, 1));
}

TEST(AsyncGridTest, PoissonGridRejectsServiceBearingTraces) {
  // async-poisson runs competitors without departure support; a trace with
  // `s` events would drain some processes and silently no-op on others,
  // corrupting the comparison — it must be rejected up front.
  const std::string path = ::testing::TempDir() + "service_trace.txt";
  {
    std::ofstream out(path);
    out << "0.5 0 3\n1.5 1 2 s\n";
  }
  auto opts = tiny_async_options();
  opts.trace_path = path;
  const runtime::grid_spec poisson =
      runtime::make_named_grid("async-poisson", opts, 77);
  const auto cells = runtime::expand_grid(poisson, 77);
  EXPECT_THROW((void)runtime::run_cell(poisson, cells.front()),
               contract_violation);
  // The service grid models departures, so the same trace is fine there.
  const runtime::grid_spec service =
      runtime::make_named_grid("async-service", opts, 77);
  EXPECT_NO_THROW(
      (void)runtime::run_cell(service, runtime::expand_grid(service, 77)[0]));
}

TEST(AsyncGridTest, CompetitorsInOneScenarioShareTheTrafficStream) {
  // Traffic seeds derive from (graph, repetition) only — never from the
  // competitor — so every row of one pivot column faces identical traffic
  // and the mean-discrepancy comparison ranks algorithms, not arrival luck.
  const runtime::grid_spec spec =
      runtime::make_named_grid("async-poisson", tiny_async_options(), 77);
  runtime::thread_pool pool(2);
  const auto rows = runtime::run_grid(spec, 77, pool);
  const auto cells = runtime::expand_grid(spec, 77);
  ASSERT_EQ(rows.size(), cells.size());
  std::map<std::pair<std::size_t, int>, real_t> arrived;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const real_t a = rows[i].extra_value("arrived");
    EXPECT_GT(a, 0);
    const auto [it, fresh] = arrived.emplace(
        std::make_pair(cells[i].graph_index, cells[i].repetition), a);
    EXPECT_EQ(it->second, a)
        << rows[i].process << " @ " << rows[i].scenario << " saw different "
        << "traffic than an earlier competitor of the same cell group";
  }
}

TEST(AsyncGridTest, TraceNodesAreValidatedAgainstTheScenario) {
  // A trace naming a node outside the cell's graph must fail up front with
  // the file named, not cells later inside a worker's inject precondition.
  const std::string path = ::testing::TempDir() + "oob_trace.txt";
  {
    std::ofstream out(path);
    out << "0.5 900 1\n";  // node 900 >= any tiny-grid n
  }
  auto opts = tiny_async_options();
  opts.trace_path = path;
  const runtime::grid_spec spec =
      runtime::make_named_grid("async-poisson", opts, 77);
  try {
    (void)runtime::run_cell(spec, runtime::expand_grid(spec, 77).front());
    FAIL() << "out-of-range trace node must throw";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("900"), std::string::npos);
  }
}

TEST(AsyncGridTest, PreParsedTraceMatchesPerCellLoading) {
  // make_named_grid parses the trace file once and cells take in-memory
  // copies; the rows must be identical to per-cell file loading (run_cell's
  // fallback for a spec without a prototype).
  const std::string path = ::testing::TempDir() + "shared_trace.txt";
  {
    std::ofstream out(path);
    out << "0.5 0 3\n5.25 1 7\n20 2 2\n";
  }
  auto opts = tiny_async_options();
  opts.trace_path = path;
  runtime::grid_spec spec =
      runtime::make_named_grid("async-poisson", opts, 77);
  ASSERT_NE(spec.trace_proto, nullptr);
  runtime::thread_pool pool(2);
  const auto rows = runtime::run_grid(spec, 77, pool);  // pre-parsed path
  const auto cells = runtime::expand_grid(spec, 77);
  ASSERT_EQ(rows.size(), cells.size());
  spec.trace_proto = nullptr;
  auto direct = runtime::run_cell(spec, cells[3]);  // per-cell file load
  direct.wall_ns = rows[3].wall_ns;
  EXPECT_EQ(direct, rows[3]);
}

// ------------------------------------------- async resume exactness

using events::async_budget;
using events::async_run;

/// Field-by-field bit-exact comparison (EXPECT_EQ on the doubles, never
/// EXPECT_NEAR): a resumed run must not merely approximate the
/// uninterrupted one.
void expect_same_result(const async_result& got, const async_result& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.total_arrived, want.total_arrived);
  EXPECT_EQ(got.service_attempts, want.service_attempts);
  EXPECT_EQ(got.tokens_served, want.tokens_served);
  EXPECT_EQ(got.mean_max_min, want.mean_max_min);
  EXPECT_EQ(got.peak_max_min, want.peak_max_min);
  EXPECT_EQ(got.final_max_min, want.final_max_min);
  EXPECT_EQ(got.time_weighted_mean_max_min, want.time_weighted_mean_max_min);
  EXPECT_EQ(got.depth_p50, want.depth_p50);
  EXPECT_EQ(got.depth_p90, want.depth_p90);
  EXPECT_EQ(got.depth_p99, want.depth_p99);
  EXPECT_EQ(got.depth_max, want.depth_max);
  const dynamic_result gs = got.dynamics(), ws = want.dynamics();
  EXPECT_EQ(gs.rounds, ws.rounds);
  EXPECT_EQ(gs.total_arrived, ws.total_arrived);
  EXPECT_EQ(gs.mean_max_min, ws.mean_max_min);
  EXPECT_EQ(gs.peak_max_min, ws.peak_max_min);
  EXPECT_EQ(gs.final_max_min, ws.final_max_min);
}

std::vector<std::unique_ptr<events::event_source>> poisson_sources() {
  std::vector<std::unique_ptr<events::event_source>> sources;
  sources.push_back(std::make_unique<events::poisson_source>(
      16, /*total_rate=*/8.0, /*seed=*/3, event_kind::arrival));
  sources.push_back(std::make_unique<events::poisson_source>(
      16, /*total_rate=*/6.0, /*seed=*/4, event_kind::service));
  return sources;
}

// Kill a Poisson-driven run at every round, resume in a fresh process +
// fresh sources + fresh driver from the snapshot alone, and demand the
// exact bytes of the uninterrupted result — at shard-thread counts 1 and 8.
TEST(AsyncResumeTest, PoissonKillAtEveryRoundIsBitExact) {
  constexpr round_t rounds = 40;
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::point_mass(16, 0, 64);
  const async_options opts{.rounds = rounds, .warmup = -1, .probe = {}};

  for (const std::size_t shards : {1u, 8u}) {
    algorithm1 ref_p(fos_on(g), task_assignment::tokens(tokens));
    if (shards > 1) {
      ASSERT_TRUE(try_enable_sharding(ref_p, serial_shard_context(*g, shards)));
    }
    async_run reference(ref_p, poisson_sources(), opts);
    reference.advance();
    const async_result want = reference.result();

    for (round_t r = 0; r <= rounds; ++r) {
      // The doomed invocation: r rounds, then the process dies. r = 0
      // snapshots a run that never advanced (not even primed) — resume
      // must still produce the full run.
      algorithm1 doomed_p(fos_on(g), task_assignment::tokens(tokens));
      if (shards > 1) {
        try_enable_sharding(doomed_p, serial_shard_context(*g, shards));
      }
      async_run doomed(doomed_p, poisson_sources(), opts);
      if (r > 0) doomed.advance({.max_rounds = r});
      ASSERT_EQ(doomed.round(), r);
      snapshot::writer w;
      doomed.save_state(w);

      // The relaunch: everything rebuilt from configuration, state loaded
      // from the snapshot payload alone.
      algorithm1 resumed_p(fos_on(g), task_assignment::tokens(tokens));
      if (shards > 1) {
        try_enable_sharding(resumed_p, serial_shard_context(*g, shards));
      }
      async_run resumed(resumed_p, poisson_sources(), opts);
      snapshot::reader rd(w.payload());
      resumed.restore_state(rd);
      EXPECT_TRUE(rd.exhausted());
      EXPECT_TRUE(resumed.advance());
      expect_same_result(resumed.result(), want);
      ASSERT_EQ(resumed_p.loads(), ref_p.loads())
          << "shards=" << shards << " killed at round " << r;
    }
  }
}

TEST(AsyncResumeTest, TraceKillMidStreamIsBitExact) {
  auto g = make_g(generators::path(4));
  const std::vector<weight_t> tokens = {9, 3, 1, 1};
  const std::vector<events::event> evs = {
      {0.25, event_kind::arrival, 0, 5}, {1.5, event_kind::service, 0, 2},
      {2.0, event_kind::arrival, 1, 7},  {3.25, event_kind::service, 1, 4},
      {3.75, event_kind::arrival, 2, 11}, {5.5, event_kind::arrival, 3, 2},
  };
  const async_options opts{.rounds = 8, .warmup = -1, .probe = {}};

  algorithm1 ref_p(fos_on(g), task_assignment::tokens(tokens));
  async_run reference(ref_p,
                      [&] {
                        std::vector<std::unique_ptr<events::event_source>> s;
                        s.push_back(
                            std::make_unique<events::trace_source>(evs));
                        return s;
                      }(),
                      opts);
  reference.advance();
  const async_result want = reference.result();

  for (round_t r = 1; r < 8; ++r) {
    algorithm1 doomed_p(fos_on(g), task_assignment::tokens(tokens));
    std::vector<std::unique_ptr<events::event_source>> ds;
    ds.push_back(std::make_unique<events::trace_source>(evs));
    async_run doomed(doomed_p, std::move(ds), opts);
    doomed.advance({.max_rounds = r});
    snapshot::writer w;
    doomed.save_state(w);

    algorithm1 resumed_p(fos_on(g), task_assignment::tokens(tokens));
    std::vector<std::unique_ptr<events::event_source>> rs;
    rs.push_back(std::make_unique<events::trace_source>(evs));
    async_run resumed(resumed_p, std::move(rs), opts);
    snapshot::reader rd(w.payload());
    resumed.restore_state(rd);
    EXPECT_TRUE(resumed.advance());
    expect_same_result(resumed.result(), want);
    EXPECT_EQ(resumed_p.loads(), ref_p.loads()) << "killed at round " << r;
  }
}

TEST(AsyncResumeTest, MismatchedSourcesOrOptionsAreRejected) {
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::point_mass(16, 0, 24);
  algorithm1 p(fos_on(g), task_assignment::tokens(tokens));
  async_run run(p, poisson_sources(), {.rounds = 10, .warmup = -1, .probe = {}});
  run.advance({.max_rounds = 2});
  snapshot::writer w;
  run.save_state(w);

  // Different horizon.
  algorithm1 q(fos_on(g), task_assignment::tokens(tokens));
  async_run other(q, poisson_sources(), {.rounds = 12, .warmup = -1, .probe = {}});
  snapshot::reader rd(w.payload());
  EXPECT_THROW(other.restore_state(rd), contract_violation);

  // Different source seed (the poisson fingerprint).
  algorithm1 q2(fos_on(g), task_assignment::tokens(tokens));
  std::vector<std::unique_ptr<events::event_source>> wrong;
  wrong.push_back(std::make_unique<events::poisson_source>(
      16, 8.0, /*seed=*/999, event_kind::arrival));
  wrong.push_back(std::make_unique<events::poisson_source>(
      16, 6.0, /*seed=*/4, event_kind::service));
  async_run other2(q2, std::move(wrong), {.rounds = 10, .warmup = -1, .probe = {}});
  snapshot::reader rd2(w.payload());
  EXPECT_THROW(other2.restore_state(rd2), contract_violation);
}

// ------------------------------------------------------- pause budgets

TEST(AsyncBudgetTest, EventBudgetPausesAndResumesExactly) {
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::point_mass(16, 0, 64);
  const async_options opts{.rounds = 50, .warmup = -1, .probe = {}};

  algorithm1 ref_p(fos_on(g), task_assignment::tokens(tokens));
  async_run reference(ref_p, poisson_sources(), opts);
  reference.advance();
  const async_result want = reference.result();
  ASSERT_GT(reference.events_processed(), 50u);

  algorithm1 p(fos_on(g), task_assignment::tokens(tokens));
  async_run run(p, poisson_sources(), opts);
  int pauses = 0;
  while (!run.advance({.max_events = 7})) {
    // Paused strictly at the budget (never past the horizon): each call
    // processes at most 7 events.
    ++pauses;
    ASSERT_LT(pauses, 10'000) << "event budget failed to make progress";
  }
  EXPECT_GT(pauses, 0);
  EXPECT_EQ(run.events_processed(), reference.events_processed());
  expect_same_result(run.result(), want);
  EXPECT_EQ(p.loads(), ref_p.loads());
}

TEST(AsyncBudgetTest, WallClockBudgetTerminatesWithIdenticalResults) {
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::point_mass(16, 0, 64);
  const async_options opts{.rounds = 60, .warmup = -1, .probe = {}};

  algorithm1 ref_p(fos_on(g), task_assignment::tokens(tokens));
  async_run reference(ref_p, poisson_sources(), opts);
  reference.advance();

  // Wall time may pause the run anywhere (or nowhere, on a fast machine);
  // either way the loop terminates and the results carry identical bytes —
  // the clock chooses pause points, never outcomes.
  algorithm1 p(fos_on(g), task_assignment::tokens(tokens));
  async_run run(p, poisson_sources(), opts);
  int calls = 0;
  while (!run.advance({.max_wall_ms = 1})) {
    ++calls;
    ASSERT_LT(calls, 1'000'000) << "wall budget starved the run";
  }
  expect_same_result(run.result(), reference.result());
  EXPECT_EQ(p.loads(), ref_p.loads());
}

TEST(AsyncBudgetTest, RoundBudgetCountsPerCallNotPerRun) {
  auto g = make_g(generators::hypercube(4));
  algorithm1 p(fos_on(g),
               task_assignment::tokens(workload::point_mass(16, 0, 12)));
  async_run run(p, poisson_sources(), {.rounds = 10, .warmup = -1, .probe = {}});
  EXPECT_FALSE(run.advance({.max_rounds = 4}));
  EXPECT_EQ(run.round(), 4);
  EXPECT_FALSE(run.advance({.max_rounds = 4}));
  EXPECT_EQ(run.round(), 8);
  EXPECT_TRUE(run.advance({.max_rounds = 4}));  // clipped at the horizon
  EXPECT_EQ(run.round(), 10);
  EXPECT_TRUE(run.finished());
}

TEST(AsyncBudgetTest, CheckpointedRunSurvivesAKillAtTheFileLevel) {
  const std::string path = ::testing::TempDir() + "async_resume.ckpt";
  auto g = make_g(generators::hypercube(4));
  const auto tokens = workload::point_mass(16, 0, 64);
  const async_options opts{.rounds = 30, .warmup = -1, .probe = {}};

  algorithm1 ref_p(fos_on(g), task_assignment::tokens(tokens));
  const async_result want = run_async(ref_p, poisson_sources(), opts);

  // First invocation: checkpoint every 4 rounds, die after 13 (the last
  // file on disk then holds round 12's state).
  {
    algorithm1 p(fos_on(g), task_assignment::tokens(tokens));
    async_run run(p, poisson_sources(), opts);
    run.advance({.max_rounds = 4});
    snapshot::writer w;
    w.section("dlb-async-checkpoint");
    run.save_state(w);
    w.save_file(path);
    run.advance({.max_rounds = 9});  // dies with 13 rounds done, unsaved
  }

  // Relaunch with --resume semantics: run_async_checkpointed restores the
  // file and finishes; the result is the uninterrupted run's, bit for bit.
  algorithm1 p(fos_on(g), task_assignment::tokens(tokens));
  const async_result got = events::run_async_checkpointed(
      p, poisson_sources(), opts,
      {.path = path, .every = 4, .resume = true});
  expect_same_result(got, want);
  EXPECT_EQ(p.loads(), ref_p.loads());

  // The file now holds the finished run: restoring it yields a finished
  // driver whose result is immediately available.
  algorithm1 q(fos_on(g), task_assignment::tokens(tokens));
  async_run final_run(q, poisson_sources(), opts);
  snapshot::reader rd = snapshot::reader::from_file(path);
  rd.expect_section("dlb-async-checkpoint");
  final_run.restore_state(rd);
  EXPECT_TRUE(final_run.finished());
  expect_same_result(final_run.result(), want);
  std::remove(path.c_str());
}

TEST(AsyncGridTest, ServiceGridServesTokens) {
  const runtime::grid_spec spec =
      runtime::make_named_grid("async-service", tiny_async_options(), 77);
  runtime::thread_pool pool(2);
  const auto rows = runtime::run_grid(spec, 77, pool);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_GT(row.extra_value("arrived"), 0) << row.process;
    EXPECT_GT(row.extra_value("served"), 0) << row.process;
    EXPECT_LE(row.extra_value("served"), row.extra_value("service_attempts"));
    EXPECT_LE(row.extra_value("depth_p50"), row.extra_value("depth_max"));
  }
}

}  // namespace
}  // namespace dlb
