// The profiling contract (dlb::obs::prof): hardware counters ride as a
// payload on the recorder's own spans, so profiling is pure observation —
// grid rows must stay byte-identical with profiling on or off at any
// shard-thread count — and the analyzer's per-shard wall times are exactly
// the spans' durations. The backend degrades gracefully: where
// perf_event_open is unavailable (or DLB_PROF_FORCE_FALLBACK=1 forces the
// issue) the counter source keeps the full sidecar schema on wall-clock-only
// data, reports exactly one stderr notice, and never fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dlb/core/algorithm1.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

runtime::grid_options tiny_options(unsigned shard_threads) {
  runtime::grid_options opts;
  opts.target_n = 24;
  opts.repeats = 1;
  opts.spike_per_node = 10;
  opts.dynamic_rounds = 30;
  opts.arrivals_per_round = 4;
  opts.shard_threads = shard_threads;
  return opts;
}

/// Canonical (timing-masked) JSON of one grid run, optionally recorded (and
/// profiled, when the recorder has a counter source).
std::string run_json(const std::string& grid, unsigned shard_threads,
                     obs::recorder* rec) {
  runtime::grid_spec spec =
      runtime::make_named_grid(grid, tiny_options(shard_threads), 5);
  spec.recorder = rec;
  runtime::thread_pool pool(2);
  pool.set_recorder(rec);
  const auto rows = runtime::run_grid(spec, 5, pool);
  std::ostringstream os;
  runtime::write_rows(os, rows, runtime::sink_format::json,
                      runtime::timing::exclude);
  return os.str();
}

/// Same well-formedness scan as tests/obs_test.cpp: quotes respected,
/// braces/brackets balanced. CI runs `python -m json.tool` for the rest.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        --depth;
        ASSERT_GE(depth, 0);
        break;
      default: break;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ----------------------------------------------- rows unchanged by profiling

TEST(ProfRowsTest, Table1ByteIdenticalWithProfilerOnAndOff) {
  const std::string plain = run_json("table1", 1, nullptr);
  const obs::prof::profiler pf;
  obs::recorder rec1(&pf);
  EXPECT_EQ(plain, run_json("table1", 1, &rec1));
  obs::recorder rec8(&pf);
  EXPECT_EQ(plain, run_json("table1", 8, &rec8));
  EXPECT_GT(rec1.payload_footprint().records, 0u)
      << "profiled run sampled nothing";
}

TEST(ProfRowsTest, HugeStaticByteIdenticalWithProfilerOnAndOff) {
  const std::string plain = run_json("huge-static", 1, nullptr);
  const obs::prof::profiler pf;
  obs::recorder rec1(&pf);
  EXPECT_EQ(plain, run_json("huge-static", 1, &rec1));
  obs::recorder rec8(&pf);
  EXPECT_EQ(plain, run_json("huge-static", 8, &rec8));
}

// A standard cell's build and teardown sit outside its wall_ns, so its
// report carries each as one phase of its own; a custom cell times its
// construction inside wall_ns and has neither.
TEST(ProfRowsTest, StandardCellsReportOneBuildAndOneTeardownPhase) {
  const auto phase_calls = [](const obs::prof::cell_profile& cell,
                              const std::string& name) -> std::uint64_t {
    for (const obs::prof::phase_profile& p : cell.phases) {
      if (p.phase == name) return p.calls;
    }
    return 0;
  };
  for (const char* grid : {"table1", "huge-uniform", "convergence"}) {
    const bool standard = std::string(grid) != "convergence";
    const std::string plain = run_json(grid, 2, nullptr);
    const obs::prof::profiler pf;
    obs::recorder rec(&pf);
    EXPECT_EQ(plain, run_json(grid, 2, &rec)) << grid;
    const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
    ASSERT_FALSE(report.cells.empty()) << grid;
    for (const obs::prof::cell_profile& cell : report.cells) {
      for (const char* name : {"cell.build", "cell.teardown"}) {
        EXPECT_EQ(phase_calls(cell, name), standard ? 1u : 0u)
            << grid << " / " << cell.process << " / " << name;
      }
    }
  }
}

// ------------------------------------------------------- fallback backend

TEST(ProfFallbackTest, ForcedFallbackKeepsRowsAndSchemaWithOneNotice) {
  ASSERT_EQ(setenv("DLB_PROF_FORCE_FALLBACK", "1", /*overwrite=*/1), 0);
  const std::string plain = run_json("table1", 1, nullptr);

  testing::internal::CaptureStderr();
  const obs::prof::profiler pf;
  obs::recorder rec(&pf);
  const std::string notice = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("DLB_PROF_FORCE_FALLBACK"), 0);

  // Exactly one notice, at construction, naming the reason.
  EXPECT_NE(notice.find("dlb prof:"), std::string::npos) << notice;
  EXPECT_NE(notice.find("DLB_PROF_FORCE_FALLBACK"), std::string::npos);
  EXPECT_EQ(notice.find("dlb prof:"), notice.rfind("dlb prof:"))
      << "fallback notice printed more than once:\n" << notice;
  EXPECT_FALSE(pf.hardware_available());
  EXPECT_NE(pf.fallback_reason().find("DLB_PROF_FORCE_FALLBACK"),
            std::string::npos);

  // Rows stay byte-identical and sampling keeps running on wall clock.
  testing::internal::CaptureStderr();  // swallow any later prints
  const std::string profiled = run_json("table1", 4, &rec);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "")
      << "fallback must be reported once, at construction only";
  EXPECT_EQ(plain, profiled);

  // Full-schema sidecar: backend marked, counters flagged unavailable.
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_FALSE(report.cells.empty());
  EXPECT_FALSE(report.hardware_available);
  EXPECT_FALSE(report.fallback_reason.empty());
  for (const obs::prof::cell_profile& cell : report.cells) {
    ASSERT_FALSE(cell.phases.empty());
    for (const obs::prof::phase_profile& phase : cell.phases) {
      for (const obs::prof::shard_stat& shard : phase.shards) {
        EXPECT_FALSE(shard.hw_available);
        EXPECT_EQ(shard.hw[0], 0u) << "fallback must not invent counters";
        EXPECT_GT(shard.wall_ns, 0) << "wall clock stays live in fallback";
      }
    }
  }
  std::ostringstream sidecar;
  write_profile_json(sidecar, report);
  expect_balanced_json(sidecar.str());
  EXPECT_NE(sidecar.str().find("\"backend\": \"fallback\""),
            std::string::npos);
}

// ------------------------------------------------------------ skew analysis

TEST(ProfAnalysisTest, FoldsPerShardSamplesAndBarrierWaits) {
  const auto g =
      std::make_shared<const graph>(generators::ring_of_cliques(4, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 20);
  algorithm1 p(make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
               task_assignment::tokens(tokens));
  p.enable_sharded_stepping(serial_shard_context(*g, 4));

  const obs::prof::profiler pf;
  obs::recorder rec(&pf);
  const std::uint64_t cell = rec.register_cell("t", "ring", "algorithm1", 0);
  p.set_probe(obs::probe{&rec, nullptr, cell});
  for (int t = 0; t < 10; ++t) p.step();

  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_EQ(report.cells.size(), 1u);
  const obs::prof::cell_profile& cp = report.cells[0];
  EXPECT_EQ(cp.cell, cell);
  EXPECT_EQ(cp.grid, "t");
  EXPECT_GE(cp.barrier_wait_share, 0.0);
  EXPECT_LE(cp.barrier_wait_share, 1.0);

  // Phases sorted by name; the sharded phases carry all four shards with
  // internally consistent wall statistics.
  ASSERT_FALSE(cp.phases.empty());
  for (std::size_t i = 1; i < cp.phases.size(); ++i) {
    EXPECT_LT(cp.phases[i - 1].phase, cp.phases[i].phase);
  }
  bool saw_edge = false;
  for (const obs::prof::phase_profile& phase : cp.phases) {
    ASSERT_FALSE(phase.shards.empty()) << phase.phase;
    EXPECT_LE(phase.wall_mean_ns, phase.wall_slowest_ns) << phase.phase;
    EXPECT_LE(phase.wall_p99_ns, phase.wall_slowest_ns) << phase.phase;
    EXPECT_LE(phase.wall_slowest_ns, phase.wall_total_ns) << phase.phase;
    EXPECT_GE(phase.skew, 1.0) << phase.phase << ": slowest/mean < 1";
    bool slowest_present = false;
    for (const obs::prof::shard_stat& shard : phase.shards) {
      slowest_present |= shard.shard == phase.slowest_shard;
    }
    EXPECT_TRUE(slowest_present) << phase.phase;
    if (phase.phase == "edge_phase") {
      saw_edge = true;
      EXPECT_EQ(phase.shards.size(), 4u);
      EXPECT_GT(phase.barrier_wait_ns, 0)
          << "barrier:edge_phase spans must credit the phase";
    }
  }
  EXPECT_TRUE(saw_edge);

  // Memory section: high-water marks, span and payload footprints populated.
  const obs::prof::memory_profile mem = obs::prof::sample_memory(&rec);
  EXPECT_GT(mem.max_rss_kb + mem.vm_hwm_kb, 0u);
  EXPECT_GT(mem.recorder.records, 0u);
  EXPECT_GT(mem.profiler.records, 0u);
  EXPECT_GT(mem.profiler.bytes, 0u);
}

// One span stream, one clock: every per-shard wall total is exactly the sum
// of the recorded spans' durations for that (cell, phase, shard), and every
// span other than barrier waits and the cell span is some row — with a
// counter source or without one (then every row is hw_available: false).
TEST(ProfAnalysisTest, PerShardWallEqualsSummedSpanDurations) {
  const obs::prof::profiler pf;
  obs::recorder counted(&pf);
  obs::recorder plain;
  for (obs::recorder* rec : {&counted, &plain}) {
    (void)run_json("table1", 4, rec);

    std::map<std::tuple<std::uint64_t, std::string, std::int32_t>,
             std::int64_t>
        summed;
    for (const obs::span_record& span : rec->events()) {
      const std::string name = span.name;
      if (span.cell != obs::no_cell && name != "cell" &&
          name.rfind("barrier:", 0) != 0) {
        summed[{span.cell, name, span.shard}] += span.dur_ns;
      }
    }
    const obs::prof::profile_report report = obs::prof::analyze_profile(*rec);
    std::size_t rows = 0;
    for (const obs::prof::cell_profile& cp : report.cells) {
      for (const obs::prof::phase_profile& phase : cp.phases) {
        for (const obs::prof::shard_stat& st : phase.shards) {
          const auto it = summed.find({cp.cell, phase.phase, st.shard});
          ASSERT_NE(it, summed.end())
              << "cell " << cp.cell << " " << phase.phase << " shard "
              << st.shard << " has no spans";
          EXPECT_EQ(st.wall_ns, it->second)
              << "cell " << cp.cell << " " << phase.phase << " shard "
              << st.shard;
          if (rec == &plain) {
            EXPECT_FALSE(st.hw_available);
          }
          ++rows;
        }
      }
    }
    EXPECT_EQ(rows, summed.size()) << "every span must land in a row";
  }
}

// Hand-written spans at fixed times, on a recorder without a counter
// source: every figure of the report is exact.
TEST(ProfReportTest, FoldsHandWrittenSpansExactly) {
  const auto fold = [](int tids) {
    auto rec = std::make_unique<obs::recorder>();
    const std::uint64_t a = rec->register_cell("g", "ring", "alg1", 7);
    const std::uint64_t b = rec->register_cell("g", "ring", "alg1", 8);
    // Cell a: two rounds of a two-shard edge phase, each shard followed by
    // its barrier wait.
    rec->complete("cell", 0, 1000, -1, a);
    rec->complete("round", 90, 200, -1, a);
    rec->complete("edge_phase", 100, 10, 0, a, 4);
    rec->complete("edge_phase", 100, 30, 1, a, 4);
    rec->complete("barrier:edge_phase", 110, 20, 0, a);
    rec->complete("barrier:edge_phase", 130, 0, 1, a);
    rec->complete("edge_phase", 200, 50, 0, a, 4);
    rec->complete("edge_phase", 200, 20, 1, a, 4);
    rec->complete("barrier:edge_phase", 250, 3, 0, a);
    rec->complete("barrier:edge_phase", 220, 30, 1, a);
    // Cell b: one node phase span; the cell never finished.
    rec->complete("node_phase", 1600, 5, 0, b);
    rec->complete("cell", 1500, 700, -1, b);
    rec->finish_cell(a, obs::metrics_snapshot{});
    // Pool tasks outside any cell, one per thread: thread i runs i ms after
    // waiting i * 100 ns.
    std::vector<std::thread> workers;
    for (int i = 1; i <= tids; ++i) {
      workers.emplace_back([&rec, i] {
        rec->complete("pool_task", 0, i * 1000000, -1, obs::no_cell, i * 100);
      });
    }
    for (std::thread& w : workers) w.join();
    return obs::prof::analyze_profile(*rec);
  };

  const obs::prof::profile_report report = fold(10);
  ASSERT_EQ(report.cells.size(), 2u);
  const obs::prof::cell_profile& a = report.cells[0];
  EXPECT_EQ(a.index, 7u);
  EXPECT_TRUE(a.finished);
  EXPECT_EQ(a.wall_ns, 1000);
  EXPECT_EQ(a.rounds, 1u);
  EXPECT_EQ(a.round_wall_ns, 200);
  EXPECT_EQ(a.barrier_wait_ns, 53);
  EXPECT_DOUBLE_EQ(a.barrier_wait_share, 53.0 / (200.0 * 2.0));
  // Barrier waits 20, 0, 3, 30 ns: buckets 5 ([16, 32)), 0, 2 and 5.
  obs::prof::log2_hist hist{};
  hist[0] = 1;
  hist[2] = 1;
  hist[5] = 2;
  EXPECT_EQ(a.barrier_wait_hist, hist);
  ASSERT_EQ(a.phases.size(), 2u);
  const obs::prof::phase_profile& edge = a.phases[0];
  EXPECT_EQ(edge.phase, "edge_phase");
  ASSERT_EQ(edge.shards.size(), 2u);
  EXPECT_EQ(edge.shards[0].calls, 2u);
  EXPECT_EQ(edge.shards[0].wall_ns, 60);
  EXPECT_EQ(edge.shards[0].barrier_wait_ns, 23);
  EXPECT_EQ(edge.shards[1].wall_ns, 50);
  EXPECT_EQ(edge.shards[1].barrier_wait_ns, 30);
  EXPECT_FALSE(edge.shards[0].hw_available);
  EXPECT_EQ(edge.calls, 4u);
  EXPECT_EQ(edge.wall_total_ns, 110);
  EXPECT_EQ(edge.wall_mean_ns, 55);
  EXPECT_EQ(edge.wall_slowest_ns, 60);
  EXPECT_EQ(edge.slowest_shard, 0);
  EXPECT_EQ(edge.wall_longest_ns, 50);
  EXPECT_EQ(edge.barrier_wait_ns, 53);
  EXPECT_EQ(a.phases[1].phase, "round");
  EXPECT_EQ(a.phases[1].wall_total_ns, 200);

  const obs::prof::cell_profile& b = report.cells[1];
  EXPECT_FALSE(b.finished);
  EXPECT_EQ(b.wall_ns, 700);
  EXPECT_EQ(b.barrier_wait_ns, 0);
  ASSERT_EQ(b.phases.size(), 1u);
  EXPECT_EQ(b.phases[0].phase, "node_phase");
  EXPECT_EQ(b.phases[0].wall_total_ns, 5);

  // The run: every span name, pool tasks included, and the cell spans.
  const obs::prof::run_profile& run = report.run;
  EXPECT_EQ(run.spans, 22u);
  EXPECT_EQ(run.window_ns, 10000000);
  EXPECT_EQ(run.barrier_wait_ns, 53);
  std::map<std::string, const obs::prof::phase_profile*> by_name;
  for (const obs::prof::phase_profile& pp : run.phases) {
    by_name[pp.phase] = &pp;
  }
  ASSERT_EQ(by_name.size(), 5u);
  EXPECT_EQ(by_name.at("cell")->calls, 2u);
  EXPECT_EQ(by_name.at("cell")->wall_total_ns, 1700);
  EXPECT_EQ(by_name.at("cell")->wall_longest_ns, 1000);
  EXPECT_EQ(by_name.at("edge_phase")->calls, 4u);
  EXPECT_EQ(by_name.at("edge_phase")->wall_total_ns, 110);
  EXPECT_EQ(by_name.at("edge_phase")->wall_longest_ns, 50);
  EXPECT_EQ(by_name.at("edge_phase")->barrier_wait_ns, 53);
  EXPECT_EQ(by_name.at("node_phase")->wall_total_ns, 5);
  EXPECT_EQ(by_name.at("round")->wall_total_ns, 200);
  EXPECT_EQ(by_name.at("pool_task")->calls, 10u);
  EXPECT_EQ(by_name.at("pool_task")->wall_total_ns, 55000000);
  EXPECT_EQ(by_name.at("pool_task")->wall_longest_ns, 10000000);

  // Per-tid busy time: which thread registered first is up to the
  // scheduler, so compare the multiset of busy times.
  ASSERT_EQ(run.pool.busy_ns.size(), 10u);
  std::vector<std::int64_t> busy;
  for (const auto& [tid, ns] : run.pool.busy_ns) busy.push_back(ns);
  std::sort(busy.begin(), busy.end());
  for (int i = 1; i <= 10; ++i) EXPECT_EQ(busy[i - 1], i * 1000000);
  EXPECT_EQ(run.pool.tasks, 10u);
  EXPECT_EQ(run.pool.queue_wait_total_ns, 5500);
  EXPECT_EQ(run.pool.queue_wait_total_ns /
                static_cast<std::int64_t>(run.pool.tasks),
            550);  // the mean
  EXPECT_EQ(run.pool.queue_wait_max_ns, 1000);

  std::ostringstream sidecar;
  write_profile_json(sidecar, report);
  expect_balanced_json(sidecar.str());
  EXPECT_NE(sidecar.str().find("\"barrier_wait_hist\": [1,0,1,0,0,2]"),
            std::string::npos)
      << sidecar.str();

  // The table names at most the 8 busiest tids and folds the rest into one
  // "+N more" aggregate: 10 tids give 8 named plus "+2 more", 4 tids give 4
  // named and no fold.
  const auto pool_line = [](const obs::prof::profile_report& r) {
    std::ostringstream table;
    write_profile_table(table, r);
    const std::string text = table.str();
    const std::size_t at = text.find("pool tasks:");
    EXPECT_NE(at, std::string::npos) << text;
    EXPECT_NE(text.find("top spans by total time"), std::string::npos);
    EXPECT_NE(text.find("per-phase shard balance"), std::string::npos);
    EXPECT_NE(text.find("barrier waits: 0.00 ms total"), std::string::npos);
    EXPECT_NE(text.find("enqueue->start wait: mean 0."), std::string::npos);
    return text.substr(at, text.find('\n', at) - at);
  };
  const auto tid_entries = [](const std::string& line) {
    std::size_t count = 0;
    for (std::size_t pos = line.find(" t"); pos != std::string::npos;
         pos = line.find(" t", pos + 1)) {
      if (pos + 2 < line.size() && line[pos + 2] >= '0' &&
          line[pos + 2] <= '9') {
        ++count;
      }
    }
    return count;
  };
  const std::string ten = pool_line(report);
  EXPECT_NE(ten.find("(10 worker threads)"), std::string::npos) << ten;
  EXPECT_EQ(tid_entries(ten), 8u) << ten;
  EXPECT_NE(ten.find("+2 more totalling 3.00 ms"), std::string::npos) << ten;

  const std::string four = pool_line(fold(4));
  EXPECT_NE(four.find("(4 worker threads)"), std::string::npos) << four;
  EXPECT_EQ(tid_entries(four), 4u) << four;
  EXPECT_EQ(four.find("more"), std::string::npos) << four;
}

// Each cell of the report carries its cell_record: the metrics snapshot the
// cell finished with, and the finished flag.
TEST(ProfReportTest, CellsCarryTheirMetricsSnapshots) {
  obs::recorder rec;
  (void)run_json("async-poisson", 1, &rec);
  const std::vector<obs::cell_record> cells = rec.cells();
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_FALSE(cells.empty());
  ASSERT_EQ(report.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const obs::prof::cell_profile& cp = report.cells[i];
    const obs::metrics_snapshot& want = cells[i].snapshot;
    EXPECT_TRUE(cp.finished);
    EXPECT_EQ(cp.index, cells[i].index);
    EXPECT_GT(cp.wall_ns, 0);
    ASSERT_EQ(cp.snapshot.counters.size(), want.counters.size());
    for (std::size_t k = 0; k < want.counters.size(); ++k) {
      EXPECT_STREQ(cp.snapshot.counters[k].first, want.counters[k].first);
      EXPECT_EQ(cp.snapshot.counters[k].second, want.counters[k].second)
          << want.counters[k].first;
    }
    EXPECT_EQ(cp.snapshot.queue_depth_hist, want.queue_depth_hist);
  }
  std::uint64_t depth_samples = 0;
  for (const std::uint64_t n : report.cells[0].snapshot.queue_depth_hist) {
    depth_samples += n;
  }
  EXPECT_EQ(depth_samples,
            report.cells[0].snapshot.counter("events_dispatched"));
  EXPECT_GT(depth_samples, 0u);

  std::ostringstream sidecar;
  write_profile_json(sidecar, report);
  const std::string json = sidecar.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"finished\": true"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {\"phases\": "), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth_hist\": ["), std::string::npos);
}

TEST(ProfAnalysisTest, ReportRendersAsJsonAndTable) {
  const obs::prof::profiler pf;
  obs::recorder rec(&pf);
  (void)run_json("table1", 2, &rec);
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  ASSERT_FALSE(report.cells.empty());

  std::ostringstream sidecar;
  write_profile_json(sidecar, report);
  const std::string json = sidecar.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"dlb-profile-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"run\": {\"spans\": "), std::string::npos);
  EXPECT_NE(json.find("\"wall_longest_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_share\""), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\""), std::string::npos);

  std::ostringstream table;
  write_profile_table(table, report);
  EXPECT_NE(table.str().find("skew"), std::string::npos);
  EXPECT_NE(table.str().find("barrier"), std::string::npos);
}

// Timed spans carry a counter payload; spans synthesized from other
// timestamps (barrier waits, the cell span) carry none; and a recorder
// without a counter source stores no counter bytes at all.
TEST(ProfPayloadTest, OnlyTimedSpansOfASourcedRecorderCarryCounters) {
  const obs::prof::profiler pf;
  obs::recorder rec(&pf);
  (void)run_json("table1", 2, &rec);
  { const obs::scoped_span live(&rec, "slice", 3, 7); }
  std::size_t timed = 0;
  std::size_t barriers = 0;
  std::size_t cells = 0;
  for (const obs::span_record& span : rec.events()) {
    const bool barrier = std::strncmp(span.name, "barrier:", 8) == 0;
    const bool cell = std::strcmp(span.name, "cell") == 0;
    if (barrier || cell) {
      EXPECT_EQ(rec.payload(span), nullptr) << span.name;
      barriers += barrier ? 1 : 0;
      cells += cell ? 1 : 0;
    } else {
      EXPECT_NE(rec.payload(span), nullptr) << span.name;
      ++timed;
    }
  }
  EXPECT_GT(timed, 0u);
  EXPECT_GT(barriers, 0u);
  EXPECT_GT(cells, 0u);
  EXPECT_EQ(rec.payload_footprint().records, timed);

  obs::recorder plain;
  (void)run_json("table1", 2, &plain);
  { const obs::scoped_span live(&plain, "slice", 3, 7); }
  ASSERT_FALSE(plain.events().empty());
  for (const obs::span_record& span : plain.events()) {
    EXPECT_EQ(plain.payload(span), nullptr) << span.name;
  }
  EXPECT_EQ(plain.payload_footprint().records, 0u);
  EXPECT_EQ(plain.payload_footprint().bytes, 0u);
  EXPECT_EQ(obs::prof::sample_memory(&plain).profiler.bytes, 0u);

  // A null recorder makes both ends of a span a no-op.
  { const obs::scoped_span nothing(nullptr, "nothing"); }
}

}  // namespace
}  // namespace dlb
