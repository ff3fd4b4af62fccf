// The profiling contract (dlb::obs::prof): hardware counters ride as a
// payload on the recorder's own spans, so profiling is pure observation —
// grid rows must stay byte-identical with profiling on or off at any
// shard-thread count — and the analyzer's per-shard wall times are exactly
// the spans' durations. The backend degrades gracefully: where
// perf_event_open is unavailable (or DLB_PROF_FORCE_FALLBACK=1 forces the
// issue) the counter source keeps the full sidecar schema on wall-clock-only
// data, reports exactly one stderr notice, and never fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

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
  ASSERT_TRUE(try_attach_probe(p, obs::probe{&rec, nullptr, cell}));
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
// of the recorded spans' durations for that (cell, phase, shard).
TEST(ProfAnalysisTest, PerShardWallEqualsSummedSpanDurations) {
  const obs::prof::profiler pf;
  obs::recorder rec(&pf);
  (void)run_json("table1", 4, &rec);

  std::map<std::tuple<std::uint64_t, std::string, std::int32_t>, std::int64_t>
      summed;
  for (const obs::span_record& span : rec.events()) {
    if (span.cell != obs::no_cell) {
      summed[{span.cell, span.name, span.shard}] += span.dur_ns;
    }
  }
  const obs::prof::profile_report report = obs::prof::analyze_profile(rec);
  std::size_t rows = 0;
  for (const obs::prof::cell_profile& cp : report.cells) {
    for (const obs::prof::phase_profile& phase : cp.phases) {
      for (const obs::prof::shard_stat& st : phase.shards) {
        const auto it = summed.find({cp.cell, phase.phase, st.shard});
        EXPECT_EQ(st.wall_ns, it == summed.end() ? 0 : it->second)
            << "cell " << cp.cell << " " << phase.phase << " shard "
            << st.shard;
        ++rows;
      }
    }
  }
  EXPECT_GT(rows, 0u);
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
  EXPECT_NE(json.find("\"schema\": \"dlb-profile-v1\""), std::string::npos);
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
