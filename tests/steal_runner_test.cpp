// The work-stealing phase runner: chunked execution must be a pure
// execution strategy. Every competitor steps bit-identically under the steal
// runner on a *real* thread pool at shard-threads {1, 2, 8} (with mid-run
// arrivals), and its per-round discrepancy — the chunked min/max reduce —
// equals the sequential real-load scan every round on a multi-chunk graph;
// the sharded α-schedule fill of the matching models reproduces the
// sequential fill's bits (and the random schedule's reused draw buffers
// mark exactly each round's matching), every edge-phase body call walks one
// chunk's ids in ascending order, and — the point of stealing — a
// seeded-skew phase leaves far less barrier wait behind than a runner that
// replays the static one-range-per-shard plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/baselines/random_walk_balancer.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/matching.hpp"
#include "dlb/obs/probe.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/snapshot/snapshot.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

/// A context backed by a real thread pool (kept alive by the runner
/// closures) — the production wiring of runtime/experiment_grid.cpp in
/// miniature.
std::shared_ptr<const shard_context> pool_context(const graph& g,
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

// ------------------------------------------------------- the six competitors

struct competitor_case {
  std::string name;
  std::function<std::unique_ptr<discrete_process>(
      std::shared_ptr<const graph>, const speed_vector&,
      const std::vector<weight_t>&, std::uint64_t)>
      build;
};

std::vector<competitor_case> all_competitors() {
  std::vector<competitor_case> cases;
  cases.push_back({"algorithm1",
                   [](std::shared_ptr<const graph> g, const speed_vector& s,
                      const std::vector<weight_t>& tokens, std::uint64_t) {
                     return std::make_unique<algorithm1>(
                         make_fos(g, s,
                                  make_alphas(*g,
                                              alpha_scheme::half_max_degree)),
                         task_assignment::tokens(tokens));
                   }});
  cases.push_back(
      {"algorithm2",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<algorithm2>(
             make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
             tokens, seed);
       }});
  cases.push_back(
      {"local_rounding",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s,
             std::make_unique<diffusion_alpha_schedule>(
                 make_alphas(*g, alpha_scheme::half_max_degree)),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  // Exercises the sharded random-matching α fill inside a full competitor.
  cases.push_back(
      {"local_rounding_random_matchings",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s, std::make_unique<random_matching_schedule>(*g, s, seed),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  cases.push_back(
      {"excess_tokens",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<excess_token_process>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed);
       }});
  cases.push_back(
      {"random_walk_balancer",
       // The walk of [19] is defined for unit speeds only.
       [](std::shared_ptr<const graph> g, const speed_vector& /*s*/,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<random_walk_balancer>(
             g, uniform_speeds(g->num_nodes()),
             make_alphas(*g, alpha_scheme::half_max_degree), tokens, seed,
             random_walk_config{
                 .phase1_rounds = 5, .slack = 1, .laziness = 0.5});
       }});
  return cases;
}

class StealRunnerCompetitorsTest
    : public ::testing::TestWithParam<competitor_case> {};

// Byte-identity under the steal runner on a real pool at shard-threads
// {1, 2, 8}, with mid-run arrivals — the sequential run is the reference.
TEST_P(StealRunnerCompetitorsTest, BitIdenticalOnRealPoolAt128) {
  const auto g = make_g(generators::ring_of_cliques(6, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/20);
  constexpr std::uint64_t seed = 42;

  const auto reference = GetParam().build(g, s, tokens, seed);
  std::vector<std::vector<weight_t>> checkpoints;
  for (int t = 0; t < 40; ++t) {
    if (t == 10) reference->inject_tokens(3, 17);
    reference->step();
    if (t % 10 == 9) checkpoints.push_back(reference->loads());
  }

  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto stolen = GetParam().build(g, s, tokens, seed);
    ASSERT_TRUE(try_enable_sharding(*stolen, pool_context(*g, shards)))
        << GetParam().name << " is not shardable";
    std::size_t checkpoint = 0;
    for (int t = 0; t < 40; ++t) {
      if (t == 10) stolen->inject_tokens(3, 17);
      stolen->step();
      if (t % 10 == 9) {
        ASSERT_EQ(stolen->loads(), checkpoints[checkpoint++])
            << GetParam().name << " shards=" << shards << " round " << t;
      }
    }
    EXPECT_EQ(stolen->loads(), reference->loads());
    EXPECT_EQ(stolen->real_loads(), reference->real_loads());
    EXPECT_EQ(stolen->dummy_created(), reference->dummy_created());
  }
}

// round_discrepancy — the chunked min/max reduce over real_load_extrema —
// must equal the sequential real-load scan every round, at shard-threads
// {1, 2, 8}, with mid-run arrivals and non-uniform speeds, on a graph that
// spans several 16384-node chunks (the last one partial).
TEST_P(StealRunnerCompetitorsTest, RoundDiscrepancyEqualsRealLoadScan) {
  const auto g = make_g(generators::cycle(3 * 16384 + 100));
  const speed_vector s =
      workload::random_speeds(g->num_nodes(), /*s_max=*/4, /*seed=*/21);
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/3);
  constexpr std::uint64_t seed = 5;

  const std::vector<std::size_t> shard_counts = {1, 2, 8};
  const auto reference = GetParam().build(g, s, tokens, seed);
  std::vector<std::unique_ptr<discrete_process>> sharded;
  for (const std::size_t shards : shard_counts) {
    sharded.push_back(GetParam().build(g, s, tokens, seed));
    ASSERT_TRUE(try_enable_sharding(*sharded.back(), pool_context(*g, shards)));
  }
  for (int t = 0; t < 8; ++t) {
    if (t == 3) {
      reference->inject_tokens(40'000, 500);
      for (const auto& d : sharded) d->inject_tokens(40'000, 500);
    }
    reference->step();
    const real_t want =
        max_min_discrepancy(reference->real_loads(), reference->speeds());
    EXPECT_EQ(round_discrepancy(*reference), want)
        << GetParam().name << " sequential, round " << t;
    for (std::size_t k = 0; k < sharded.size(); ++k) {
      sharded[k]->step();
      EXPECT_EQ(round_discrepancy(*sharded[k]), want)
          << GetParam().name << " shards=" << shard_counts[k] << " round "
          << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompetitors, StealRunnerCompetitorsTest,
    ::testing::ValuesIn(all_competitors()),
    [](const ::testing::TestParamInfo<competitor_case>& tpi) {
      return tpi.param.name;
    });

// ----------------------------------------------- sharded α-schedule fills

// The matching models' sharded fill must reproduce the sequential bits
// exactly: continuous processes over periodic and random matching schedules,
// stepped sequentially (one caller-run fill) vs steal-sharded (begin_round +
// fill slices on the pool), must produce identical loads and cumulative
// flows every round.
TEST(ShardedAlphaScheduleTest, MatchingModelsBitEqualSequential) {
  const auto g = make_g(generators::hypercube(5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 25);
  const std::vector<real_t> x0(tokens.begin(), tokens.end());

  const auto run_pair = [&](const std::function<
                                std::unique_ptr<linear_process>()>& build,
                            const std::string& label) {
    auto sequential = build();
    auto stolen = build();
    stolen->enable_sharded_stepping(pool_context(*g, 4));
    sequential->reset(x0);
    stolen->reset(x0);
    for (int t = 0; t < 50; ++t) {
      sequential->step();
      stolen->step();
      ASSERT_EQ(stolen->loads(), sequential->loads())
          << label << " loads diverged at round " << t;
      for (edge_id e = 0; e < g->num_edges(); ++e) {
        ASSERT_EQ(stolen->cumulative_flow(e), sequential->cumulative_flow(e))
            << label << " flow diverged at round " << t << " edge " << e;
      }
    }
  };

  run_pair([&] { return make_random_matching_process(g, s, /*seed=*/9); },
           "random-matchings");
  run_pair(
      [&] {
        return make_periodic_matching_process(
            g, s, to_matchings(*g, misra_gries_edge_coloring(*g)));
      },
      "periodic-matchings");
  run_pair(
      [&] {
        return make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree));
      },
      "diffusion");
}

/// The production α fill in isolation: sharded_stepper::fill_round_alphas
/// (begin_round, then fill_alphas over the edge phase) on a bare stepper.
class alpha_fill_stepper final : public sharded_stepper {
 public:
  explicit alpha_fill_stepper(std::shared_ptr<const graph> g)
      : g_(std::move(g)) {}

  const std::vector<real_t>& fill(const alpha_schedule& schedule, round_t t) {
    bool cached = false;
    fill_round_alphas(schedule, t, alpha_, cached);
    return alpha_;
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id,
                                               node_id) const override {
    return {};
  }

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
  std::vector<real_t> alpha_;
};

// The random schedule reuses its draw buffers across rounds, so every fill
// must mark exactly round t's matching — α_e·[e ∈ random_maximal_matching(g,
// seed, t)] — whatever rounds were drawn before: re-entered and earlier
// rounds, a clone (which gets its own buffers), and the owning process
// restored to an earlier round.
TEST(ShardedAlphaScheduleTest, RandomFillMarksExactlyTheRoundsMatching) {
  const auto g = make_g(generators::torus_2d(96));
  speed_vector s(static_cast<std::size_t>(g->num_nodes()));
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = 1 + static_cast<weight_t>(i % 3);  // α varies per edge
  }
  const std::uint64_t seed = 17;
  const auto expected = [&](round_t t) {
    std::vector<real_t> want(static_cast<std::size_t>(g->num_edges()), 0.0);
    for (const edge_id e : random_maximal_matching(
             *g, seed, static_cast<std::uint64_t>(t))) {
      const edge& ed = g->endpoints(e);
      want[static_cast<std::size_t>(e)] =
          matching_alpha(s[static_cast<std::size_t>(ed.u)],
                         s[static_cast<std::size_t>(ed.v)]);
    }
    return want;
  };
  alpha_fill_stepper filler(g);
  filler.enable_sharded_stepping(pool_context(*g, 4));

  const random_matching_schedule schedule(*g, s, seed);
  for (const round_t t : {0, 1, 2, 2, 5, 3, 0}) {
    ASSERT_EQ(filler.fill(schedule, t), expected(t)) << "round " << t;
  }
  const auto copy = schedule.clone();
  for (const round_t t : {0, 4}) {
    ASSERT_EQ(filler.fill(*copy, t), expected(t)) << "clone, round " << t;
  }
  ASSERT_EQ(filler.fill(schedule, 0), expected(0))
      << "a clone's draw leaked into the original";

  // Restore to round 2 while the schedule holds round 5's draw: each
  // re-stepped round must redraw, and match an uninterrupted twin.
  const auto tokens = workload::spike_workload(*g, s, 25);
  const std::vector<real_t> x0(tokens.begin(), tokens.end());
  auto restored = make_random_matching_process(g, s, seed);
  auto twin = make_random_matching_process(g, s, seed);
  restored->enable_sharded_stepping(pool_context(*g, 4));
  restored->reset(x0);
  twin->reset(x0);
  snapshot::writer w;
  for (round_t t = 0; t < 6; ++t) {
    if (t == 2) restored->save_state(w);
    restored->step();
  }
  snapshot::reader r(w.payload());
  restored->restore_state(r);
  twin->step();
  twin->step();
  for (round_t t = 2; t < 6; ++t) {
    restored->step();
    twin->step();
    // The process's schedule already holds round t, so this fill reads the
    // marks the step used.
    ASSERT_EQ(filler.fill(restored->schedule(), t), expected(t))
        << "restored, round " << t;
    ASSERT_EQ(restored->loads(), twin->loads()) << "restored, round " << t;
  }
}

// ------------------------------------------------------- edge phase order

/// Records the edge ids each edge_phase body call visits, one run per call.
class edge_run_stepper final : public sharded_stepper {
 public:
  explicit edge_run_stepper(std::shared_ptr<const graph> g)
      : g_(std::move(g)) {}

  std::vector<std::vector<edge_id>> record_runs() {
    std::vector<std::vector<edge_id>> runs;
    std::mutex mu;
    edge_phase([&](const edge_slice& es) {
      std::vector<edge_id> run;
      es.for_each([&](edge_id e) { run.push_back(e); });
      const std::lock_guard<std::mutex> lock(mu);
      runs.push_back(std::move(run));
    });
    return runs;
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id,
                                               node_id) const override {
    return {};
  }

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
};

// Every edge_phase body call sees exactly one chunk — the ids
// c·16384 … min(m, (c+1)·16384) − 1, in ascending order — and the calls
// together cover every id once, on graphs with several chunks stepped by a
// real 4-thread pool.
TEST(EdgePhaseTest, ChunksVisitAscendingIdRuns) {
  for (const graph& raw : {generators::cycle(20000), generators::torus_2d(96),
                           generators::hypercube(13)}) {
    const auto g = make_g(raw);
    const auto m = static_cast<std::size_t>(g->num_edges());
    edge_run_stepper stepper(g);
    stepper.enable_sharded_stepping(pool_context(*g, 4));
    auto runs = stepper.record_runs();
    ASSERT_EQ(runs.size(), chunk_count(m, phase_chunk_items))
        << "m = " << m << ": one body call per chunk";
    std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
      return a.front() < b.front();
    });
    for (std::size_t c = 0; c < runs.size(); ++c) {
      const std::size_t lo = c * phase_chunk_items;
      const std::size_t hi = std::min(m, lo + phase_chunk_items);
      std::vector<edge_id> want(hi - lo);
      std::iota(want.begin(), want.end(), static_cast<edge_id>(lo));
      ASSERT_EQ(runs[c], want) << "m = " << m << ", chunk " << c;
    }
  }
}

// ------------------------------------------------------- seeded-skew proof

/// A stepper whose node phase is deliberately skewed: nodes in the first
/// quarter of the range burn a spin loop, the rest are free. Under a static
/// plan that entire cost lands on group 0 of 4 and the other three groups
/// wait at the barrier for it; under stealing they drain the heavy chunks
/// instead.
class skewed_stepper final : public sharded_stepper {
 public:
  explicit skewed_stepper(std::shared_ptr<const graph> g) : g_(std::move(g)) {}

  void run_round() {
    node_phase([&](node_id i0, node_id i1) {
      const node_id heavy_end = g_->num_nodes() / 4;
      unsigned sink = 0;
      for (node_id i = i0; i < i1; ++i) {
        if (i < heavy_end) {
          // A serially dependent non-affine mix: the compiler can neither
          // constant-fold the chain nor replace it with a closed form, so
          // every heavy node really burns ~200 multiply-xor steps.
          auto h = static_cast<unsigned>(i) + 1u;
          for (unsigned k = 0; k < 200; ++k) {
            h ^= h >> 13;
            h *= 0x5bd1e995u;
            h ^= h << 7;
          }
          sink += h;
        }
      }
      sink_ += sink;  // defeat dead-code elimination
    });
  }

  [[nodiscard]] load_extrema real_load_extrema(node_id,
                                               node_id) const override {
    return {};
  }

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
  std::atomic<unsigned> sink_{0};
};

/// The static plan written as a steal_runner: on its own pool, group g
/// claims only the chunks in [g·C/G, (g+1)·C/G), however long they take —
/// one contiguous range per shard, nothing stolen. The steal_runner
/// indirection admits any claim plan, so no library mode is needed for it.
std::shared_ptr<const shard_context> static_plan_context(const graph& g,
                                                         std::size_t shards) {
  auto pool =
      std::make_shared<runtime::thread_pool>(static_cast<unsigned>(shards));
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards), nullptr, shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) {
        pool->parallel_for_each(groups, [&](std::size_t grp) {
          std::size_t next = chunks * grp / groups;
          const std::size_t end = chunks * (grp + 1) / groups;
          const std::function<std::size_t()> claim = [&] {
            return next < end ? next++ : chunks;
          };
          body(grp, claim);
        });
      }});
}

std::int64_t barrier_wait_of(std::shared_ptr<const shard_context> ctx,
                             const std::shared_ptr<const graph>& g) {
  obs::recorder rec;
  const std::uint64_t cell =
      rec.register_cell("skew", "cycle", "skewed_stepper", 0);
  skewed_stepper st(g);
  st.enable_sharded_stepping(std::move(ctx));
  st.set_probe(obs::probe{&rec, nullptr, cell});
  for (int t = 0; t < 10; ++t) st.run_round();
  return obs::prof::analyze_profile(rec).cells.at(0).barrier_wait_ns;
}

TEST(SeededSkewTest, StealRunnerBeatsStaticBarrierWaitShare) {
  // 400k nodes → 25 chunks; the heavy quarter (100k nodes) spans chunks
  // 0-6, so under stealing the four groups share the heavy chunks nearly
  // evenly and the residual barrier wait is one chunk's granularity. The
  // static plan hands chunks 0-5 to group 0 and parks the other three
  // groups for its entire duration, so its wait is ~3x the whole heavy
  // cost. The 2x margin absorbs scheduler noise (the structural ratio is
  // far larger on any hardware, including a single timeshared core,
  // because static fast-group waits scale with the heavy group's full
  // duration).
  const auto g = make_g(generators::cycle(400'000));
  const std::int64_t wait_static =
      barrier_wait_of(static_plan_context(*g, 4), g);
  const std::int64_t wait_steal = barrier_wait_of(pool_context(*g, 4), g);
  ASSERT_GT(wait_static, 0);
  EXPECT_LT(wait_steal * 2, wait_static)
      << "steal=" << wait_steal << "ns static=" << wait_static << "ns";
}

}  // namespace
}  // namespace dlb
