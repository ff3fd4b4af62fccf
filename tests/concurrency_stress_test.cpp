// Concurrency stress for the determinism contract's concurrent surface:
// thread_pool index distribution, sharded_stepper phase barriers (with the
// barrier end-timestamp publishing the obs layer rides on), and the
// obs::recorder lock-free per-thread buffers plus obs::metrics atomics — all
// hammered simultaneously, the way run_grid nests them (an outer cell pool
// whose bodies each drive an inner shard pool against one shared recorder).
//
// This suite is the designated prey for the TSan CI job (`build-tsan`
// preset): it is run under both ThreadSanitizer and ASan+UBSan, and every
// assertion doubles as a determinism check — contention must never move a
// byte of process state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/initial_load.hpp"
#include "pool_context.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

std::unique_ptr<linear_process> fos_on(std::shared_ptr<const graph> g) {
  return make_fos(g, uniform_speeds(g->num_nodes()),
                  make_alphas(*g, alpha_scheme::half_max_degree));
}

// ------------------------------------------------------------- thread_pool

TEST(ConcurrencyStressTest, PoolCountsEveryIndexUnderContention) {
  runtime::thread_pool pool(8);
  constexpr int kRounds = 50;
  constexpr std::size_t kCount = 4096;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::uint8_t> hit(kCount, 0);
    pool.parallel_for_each(kCount, [&](std::size_t i) {
      hit[i] = 1;  // distinct slots: racy only if an index were handed twice
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    std::uint64_t misses = 0;
    for (const std::uint8_t h : hit) misses += (h == 0) ? 1u : 0u;
    ASSERT_EQ(misses, 0u);
    ASSERT_EQ(sum.load(), std::uint64_t{kCount} * (kCount - 1) / 2);
  }
}

TEST(ConcurrencyStressTest, TwoPoolsNestedDoNotInterfere) {
  // The run_grid shape: outer cells on one pool, each driving its own inner
  // pool. Inner parallel_for_each calls from outer workers are cross-pool,
  // so they must distribute (not inline) and must not deadlock.
  runtime::thread_pool outer(4);
  constexpr std::size_t kCells = 16;
  std::vector<std::uint64_t> cell_sums(kCells, 0);
  outer.parallel_for_each(kCells, [&](std::size_t cell) {
    runtime::thread_pool inner(3);
    std::atomic<std::uint64_t> sum{0};
    for (int r = 0; r < 20; ++r) {
      inner.parallel_for_each(64, [&](std::size_t i) {
        sum.fetch_add(cell * 1000 + i, std::memory_order_relaxed);
      });
    }
    cell_sums[cell] = sum.load();
  });
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    EXPECT_EQ(cell_sums[cell], 20u * (cell * 1000 * 64 + 64u * 63 / 2));
  }
}

TEST(ConcurrencyStressTest, ExceptionUnderContentionStopsAndPropagates) {
  runtime::thread_pool pool(8);
  for (int r = 0; r < 20; ++r) {
    std::atomic<int> started{0};
    EXPECT_THROW(
        pool.parallel_for_each(512,
                               [&](std::size_t i) {
                                 started.fetch_add(1,
                                                   std::memory_order_relaxed);
                                 if (i == 100) throw std::runtime_error("x");
                               }),
        std::runtime_error);
    // The first throw parks the shared index; most of the range never runs.
    EXPECT_LE(started.load(), 512);
  }
}

// -------------------------------------------------- recorder and metrics

TEST(ConcurrencyStressTest, RecorderBuffersSurviveManyThreads) {
  obs::recorder rec;
  constexpr std::size_t kThreads = 8;
  constexpr int kSpansPerTask = 200;
  runtime::thread_pool pool(kThreads);
  // Cell registration races against span recording on every worker.
  std::vector<std::uint64_t> cell_ids(kThreads, 0);
  pool.parallel_for_each(kThreads, [&](std::size_t t) {
    cell_ids[t] = rec.register_cell("stress", "scenario",
                                    "proc" + std::to_string(t), t);
    for (int s = 0; s < kSpansPerTask; ++s) {
      const std::int64_t t0 = rec.now();
      rec.complete("stress_span", t0, rec.now() - t0,
                   static_cast<std::int32_t>(t), cell_ids[t], s);
    }
    rec.finish_cell(cell_ids[t], obs::metrics{}.take());
  });
  // Quiesced (parallel_for_each returned): buffers are safe to read.
  const auto events = rec.events();
  std::size_t stress_spans = 0;
  for (const auto& e : events) {
    if (std::string(e.name) == "stress_span") ++stress_spans;
  }
  EXPECT_EQ(stress_spans, kThreads * kSpansPerTask);
  const auto cells = rec.cells();
  ASSERT_EQ(cells.size(), kThreads);
  for (const auto& c : cells) EXPECT_TRUE(c.finished);
}

TEST(ConcurrencyStressTest, MetricsCountersAreExactUnderContention) {
  obs::metrics met;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 5000;
  runtime::thread_pool pool(kThreads);
  pool.parallel_for_each(kThreads, [&](std::size_t t) {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      met.count_phase(/*edge_items=*/(t % 2) == 0, /*items=*/3);
      met.add_tokens_moved(2);
      met.add_event(i % 97);       // exercises the histogram buckets too
      met.add_arrivals(1);
      met.add_served(1);
      met.add_round();
    }
  });
  const obs::metrics_snapshot snap = met.take();
  EXPECT_EQ(snap.counter("phases"), kThreads * kOps);
  EXPECT_EQ(snap.counter("tokens_moved"), 2 * kThreads * kOps);
  EXPECT_EQ(snap.counter("arrivals"), kThreads * kOps);
  EXPECT_EQ(snap.counter("served"), kThreads * kOps);
  EXPECT_EQ(snap.counter("rounds"), kThreads * kOps);
  EXPECT_EQ(snap.counter("events_dispatched"), kThreads * kOps);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t b : snap.queue_depth_hist) hist_total += b;
  EXPECT_EQ(hist_total, kThreads * kOps);
}

// ------------------------------------- sharded stepping under contention

TEST(ConcurrencyStressTest, ShardedCellsUnderSharedRecorderStayByteExact) {
  // Four observed cells stepping sharded processes concurrently (own shard
  // pools, one shared recorder — the dlb_run --trace shape), with barrier
  // end-timestamp publishing active in every phase of every round. Loads
  // must match the sequential, unobserved reference bit for bit.
  auto g = make_g(generators::torus_2d(12));
  const node_id n = g->num_nodes();
  constexpr int kRounds = 60;
  constexpr std::size_t kCells = 4;

  const auto initial = [&](std::size_t c) {
    const auto loads = workload::uniform_random(
        n, 40 * static_cast<weight_t>(n),
        /*seed=*/100 + static_cast<std::uint64_t>(c));
    return std::vector<real_t>(loads.begin(), loads.end());
  };

  // Sequential reference, no probe.
  std::vector<std::vector<real_t>> want(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    auto ref = fos_on(g);
    ref->reset(initial(c));
    for (int t = 0; t < kRounds; ++t) ref->step();
    want[c] = ref->loads();
  }

  obs::recorder rec;
  runtime::thread_pool cell_pool(kCells);
  std::vector<std::vector<real_t>> got(kCells);
  cell_pool.parallel_for_each(kCells, [&](std::size_t c) {
    runtime::thread_pool shard_pool(4);
    auto p = fos_on(g);
    p->enable_sharded_stepping(pool_context(*g, /*shards=*/7, shard_pool));
    obs::metrics met;
    const std::uint64_t cell = rec.register_cell(
        "stress", "torus", "fos", c);
    p->set_probe(obs::probe{&rec, &met, cell});
    p->reset(initial(c));
    for (int t = 0; t < kRounds; ++t) p->step();
    got[c] = p->loads();
    rec.finish_cell(cell, met.take());
  });

  for (std::size_t c = 0; c < kCells; ++c) {
    ASSERT_EQ(got[c], want[c]) << "cell " << c;
  }
  // Each sharded round emits per-shard phase spans plus one barrier span per
  // shard per phase; all of them must have survived the contention.
  std::size_t barrier_spans = 0;
  for (const auto& e : rec.events()) {
    if (std::string(e.name).rfind("barrier:", 0) == 0) ++barrier_spans;
  }
  EXPECT_GT(barrier_spans, kCells * std::size_t{kRounds});
}

TEST(ConcurrencyStressTest, BlockedSumStableAcrossContendedShardCounts) {
  // The one floating-point total the engine parallelizes: same bits at any
  // shard count, even with every shard pool contending for one core.
  std::vector<real_t> x(100000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 3.0;
  }
  const real_t want = blocked_sum(x);
  auto g = make_g(generators::cycle(static_cast<node_id>(x.size() / 100)));
  for (const std::size_t shards : {2u, 5u, 8u}) {
    runtime::thread_pool pool(shards);
    const auto ctx = pool_context(*g, shards, pool);
    for (int r = 0; r < 10; ++r) {
      const real_t got = blocked_sum(x, ctx.get());
      ASSERT_EQ(got, want) << shards << " shards, iteration " << r;
    }
  }
}

}  // namespace
}  // namespace dlb
