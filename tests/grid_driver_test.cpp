// The one grid driver: run_grid emits rows in canonical cell order from
// pools whose cells finish out of order, and a grid_checkpoint both
// short-circuits stored cells and records fresh rows as their cells finish.
// A checkpoint file is external bytes: every mutant of a real one loads or
// fails with one line.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/runtime/grid_checkpoint.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb::runtime {
namespace {

/// `cells` trivial custom cells whose rows are pure functions of the cell
/// index; every executed cell bumps `calls`.
grid_spec counting_grid(int cells, std::atomic<int>& calls) {
  grid_spec spec;
  spec.name = "counting";
  spec.graphs.push_back(workload::make_graph_case("torus", 16, 0));
  spec.processes.push_back({"p", /*randomized=*/true, nullptr});
  spec.repeats = cells;
  spec.custom_cell = [&calls](const grid_spec&, const grid_cell& cell,
                              result_row& row, const obs::probe&) {
    calls.fetch_add(1);
    row.rounds = static_cast<round_t>(cell.index);
  };
  return spec;
}

grid_spec small_grid(const std::string& name) {
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 2;
  opts.spike_per_node = 4;
  opts.dynamic_rounds = 20;
  opts.arrivals_per_round = 4;
  return make_named_grid(name, opts, /*master_seed=*/3);
}

std::vector<result_row> emitted(const grid_spec& spec, unsigned threads,
                                grid_checkpoint* ckpt = nullptr) {
  thread_pool pool(threads);
  std::vector<result_row> rows;
  run_grid(
      spec, 3, pool, [&](const result_row& row) { rows.push_back(row); },
      ckpt);
  return rows;
}

TEST(RunGridStreamingTest, EmitsTheExactRunGridSequenceInCellOrder) {
  const grid_spec spec = small_grid("table1");
  thread_pool pool(4);
  const auto expected = run_grid(spec, 3, pool);
  const auto streamed = emitted(spec, 4);
  ASSERT_EQ(expected.size(), expand_grid(spec, 3).size());
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i].cell, i) << "cell order, not completion order";
    EXPECT_EQ(to_json(streamed[i], timing::exclude),
              to_json(expected[i], timing::exclude));
  }
  // Many tiny cells racing through the reorder buffer: none lost.
  std::atomic<int> calls{0};
  const auto rows = emitted(counting_grid(2000, calls), 4);
  EXPECT_EQ(calls.load(), 2000);
  ASSERT_EQ(rows.size(), 2000u);
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].cell, i);
}

TEST(RunGridStreamingTest, StreamingIntoWriterMatchesBufferedSerialization) {
  const grid_spec spec = small_grid("huge-uniform");
  thread_pool pool(4);
  const auto rows = run_grid(spec, 3, pool);
  for (const sink_format f : {sink_format::json, sink_format::csv}) {
    std::ostringstream buffered;
    std::ostringstream streamed;
    write_rows(buffered, rows, f, timing::exclude);
    row_writer writer(streamed, f, timing::exclude);
    writer.begin();
    run_grid(spec, 3, pool, [&](const result_row& row) { writer.row(row); });
    writer.end();
    EXPECT_EQ(streamed.str(), buffered.str());
  }
}

TEST(GridCheckpointTest, PrefilledHalfRunsOnlyTheOtherHalf) {
  std::atomic<int> calls{0};
  const grid_spec spec = counting_grid(10, calls);
  const auto cold = emitted(spec, 4);
  // Every other cell stored, so cached and fresh rows interleave.
  grid_checkpoint ckpt("fp");
  for (std::size_t i = 0; i < cold.size(); i += 2) {
    ckpt.record(spec.name, cold[i]);
  }
  calls = 0;
  const auto resumed = emitted(spec, 4, &ckpt);
  EXPECT_EQ(calls.load(), 5);
  ASSERT_EQ(resumed.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(to_json(resumed[i], timing::exclude),
              to_json(cold[i], timing::exclude));
  }
  EXPECT_EQ(resumed[0].wall_ns, cold[0].wall_ns);  // stored timing kept
  EXPECT_EQ(ckpt.size(), cold.size());             // fresh rows recorded
}

TEST(GridCheckpointTest, FileHoldsEveryRowAfterTheRun) {
  for (const std::uint64_t every : {1u, 3u}) {  // 10 cells: 10 % 3 != 0
    const std::string path = ::testing::TempDir() + "grid_driver_every.ckpt";
    std::remove(path.c_str());
    std::atomic<int> calls{0};
    grid_checkpoint ckpt("fp");
    ckpt.save_to(path, every);
    const auto rows = emitted(counting_grid(10, calls), 4, &ckpt);
    const grid_checkpoint on_disk = grid_checkpoint::load(path, "fp");
    ASSERT_EQ(on_disk.size(), rows.size()) << "every=" << every;
    for (const result_row& row : rows) {
      const std::string* json = on_disk.find("counting", row.cell);
      ASSERT_NE(json, nullptr) << "cell " << row.cell;
      EXPECT_EQ(parse_row(*json), row);
    }
  }
}

TEST(GridCheckpointTest, FreshRowsAreRecordedWhenTheirCellFinishes) {
  // Cell 0 is slow, so every later row waits in the reorder buffer behind
  // it. Those rows must already be on disk: a kill now loses only cell 0.
  const std::string path = ::testing::TempDir() + "grid_driver_finish.ckpt";
  std::remove(path.c_str());
  std::atomic<int> calls{0};
  grid_spec spec = counting_grid(6, calls);
  std::atomic<int> emits{0};
  std::atomic<bool> on_disk_before_emit{false};
  spec.custom_cell = [&](const grid_spec&, const grid_cell& cell,
                         result_row&, const obs::probe&) {
    for (int poll = 0; cell.index == 0 && poll < 20000; ++poll) {
      if (grid_checkpoint::load_or_empty(path, "fp").size() == 5) {
        on_disk_before_emit = emits.load() == 0;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  grid_checkpoint ckpt("fp");
  ckpt.save_to(path, 1);
  thread_pool pool(2);
  run_grid(spec, 3, pool, [&](const result_row&) { emits.fetch_add(1); },
           &ckpt);
  EXPECT_TRUE(on_disk_before_emit.load());
  EXPECT_EQ(emits.load(), 6);
  EXPECT_EQ(grid_checkpoint::load(path, "fp").size(), 6u);
}

TEST(GridCheckpointTest, LoadChecksFingerprintPresenceAndRows) {
  const std::string path = ::testing::TempDir() + "grid_driver_load.ckpt";
  std::remove(path.c_str());
  EXPECT_EQ(grid_checkpoint::load_or_empty(path, "n=64").size(), 0u);

  // Hand-built files with a valid envelope and checksum.
  const auto write_row = [&](const std::string& json) {
    snapshot::writer w;
    w.section("dlb-grid-checkpoint");
    w.str("n=64");
    w.u64(1);
    w.str("counting");
    w.u64(0);
    w.str(json);
    w.save_file(path);
  };
  write_row(to_json(result_row{}));
  EXPECT_EQ(grid_checkpoint::load(path, "n=64").size(), 1u);
  try {
    (void)grid_checkpoint::load(path, "n=128");
    FAIL() << "a mismatched fingerprint must be refused";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"n=64\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"n=128\""), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << "one line";
  }
  // A hand-edited stored row fails at load, before any output.
  write_row(to_json(result_row{}).substr(0, 20));
  EXPECT_THROW((void)grid_checkpoint::load(path, "n=64"), contract_violation);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Writes `bytes` as a fresh file: the sweep writes thousands of mutants,
/// and truncating a file in place costs far more than replacing it on some
/// filesystems.
void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Magic, version, payload size and checksum precede the payload.
constexpr std::size_t header = 28;

/// `bytes` with the frame's payload size (header bytes 12-19) and FNV-1a
/// checksum (bytes 20-27) rewritten to match its payload, so a mutant passes
/// every frame check and reaches the field and row parsers.
std::vector<std::uint8_t> reframed(std::vector<std::uint8_t> bytes) {
  const std::uint64_t size = bytes.size() - header;
  const std::uint64_t sum = snapshot::fnv1a(bytes.data() + header, size);
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[12 + b] = static_cast<std::uint8_t>(size >> (8 * b));
    bytes[20 + b] = static_cast<std::uint8_t>(sum >> (8 * b));
  }
  return bytes;
}

// A real checkpoint, mutated at every payload byte (XOR 0x01, 0x80, 0xFF)
// and truncated at a stride, each mutant re-framed: load either accepts it
// or throws one contract_violation whose message is one line. No other
// exception may escape.
TEST(GridCheckpointTest, MutatedFilesLoadOrFailWithOneLine) {
  const std::string path = ::testing::TempDir() + "grid_driver_mutant.ckpt";
  std::remove(path.c_str());
  grid_options opts;
  opts.target_n = 32;
  opts.repeats = 1;
  const grid_spec spec = make_named_grid("locality", opts, 3);
  const std::string fp = checkpoint_fingerprint("locality", 3, opts, false);
  grid_checkpoint ckpt(fp);
  ckpt.save_to(path, 1);
  ASSERT_EQ(emitted(spec, 2, &ckpt).size(), 3u);
  const std::vector<std::uint8_t> framed = read_bytes(path);
  ASSERT_GT(framed.size(), header);
  ASSERT_EQ(reframed(framed), framed);
  ASSERT_EQ(grid_checkpoint::load(path, fp).size(), 3u);

  int loaded = 0;
  int refused = 0;
  const auto attempt = [&](const std::vector<std::uint8_t>& bytes,
                           const std::string& what) {
    write_bytes(path, reframed(bytes));
    try {
      (void)grid_checkpoint::load(path, fp);
      ++loaded;
    } catch (const contract_violation& e) {
      ++refused;
      const std::string msg = e.what();
      EXPECT_EQ(msg.find('\n'), std::string::npos) << what << ": " << msg;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": escaped as a non-contract exception: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << what << ": escaped as a non-std exception";
    }
  };
  for (std::size_t at = header; at < framed.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> mutant = framed;
      mutant[at] ^= mask;
      attempt(mutant, "byte " + std::to_string(at) + " ^ " +
                          std::to_string(mask));
    }
  }
  for (std::size_t keep = header; keep < framed.size(); keep += 7) {
    attempt({framed.begin(), framed.begin() + static_cast<std::ptrdiff_t>(keep)},
            "cut to " + std::to_string(keep) + " bytes");
  }
  // The sweep reaches both outcomes: it exercises the parsers, not only the
  // frame check.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
  std::remove(path.c_str());
}

TEST(CheckpointFingerprintTest, RealsKeepEveryDigitThreadsNeverEnter) {
  // Checkpoints written before the builder moved into the library still
  // load under default rates.
  EXPECT_EQ(checkpoint_fingerprint("table1,huge-static", 11, {}, false),
            "grids=table1,huge-static;master-seed=11;n=128;repeats=5;"
            "spike=50;dynamic-rounds=400;arrivals-per-round=8;"
            "burst-size=500;burst-period=100;arrival-rate=8;service-rate=6;"
            "replay-trace=;obs-extras=0");
  const auto fp = [](const auto& set) {
    grid_options opts;
    set(opts);
    return checkpoint_fingerprint("g", 3, opts, false);
  };
  EXPECT_NE(fp([](grid_options& o) { o.arrival_rate = 1000.004; }),
            fp([](grid_options& o) { o.arrival_rate = 1000.001; }));
  EXPECT_NE(fp([](grid_options& o) { o.service_rate = 6.000001; }),
            fp([](grid_options& o) { o.service_rate = 6.000002; }));
  // --threads and --format are not inputs; --shard-threads must not count.
  const std::string plain = fp([](grid_options&) {});
  EXPECT_EQ(plain, fp([](grid_options& o) { o.shard_threads = 8; }));
  EXPECT_EQ(plain.find("threads"), std::string::npos);
  EXPECT_EQ(plain.find("format"), std::string::npos);
}

}  // namespace
}  // namespace dlb::runtime
