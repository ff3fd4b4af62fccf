// dlb_run — list and execute the named experiment grids of dlb::runtime.
// docs/REPRODUCING.md maps every paper table/figure to its invocation.
//
// Usage:
//   dlb_run --list
//   dlb_run --grid table1 [--threads N] [--master-seed S] [--n 128]
//           [--repeats 5] [--out results.json] [--table]
//
//   --grid        grid name (see --list); comma-separate to run several
//   --threads     worker threads (default: hardware concurrency)
//   --shard-threads  threads stepping a single graph's shards (default 1;
//                 every engine-driven grid honours it — rows are
//                 byte-identical for any value). A comma list (e.g. 1,8)
//                 runs every selected grid once per value, suffixing the
//                 grid name with -s<k> — the twin-batch form the
//                 parallel-efficiency regression gate compares
//                 (bench/check_regression.py); with --table it also prints
//                 the scaling-efficiency table. Incompatible with
//                 --checkpoint/--resume
//   --master-seed master seed pinning topology + every cell RNG (default 1)
//   --n           approximate node count per graph case (default 128,
//                 at least 16)
//   --repeats     repetitions for randomized competitors (default 5)
//   --spike-per-node   initial spike weight per node (default 50, >= 0)
//   --dynamic-rounds / --arrivals-per-round   dynamic grids only (rounds
//                 >= 1, arrivals >= 0)
//   --burst-size / --burst-period             dynamic-bursts only (size
//                 >= 0, period >= 1)
//                 n × spike, rounds × arrivals and the burst total are each
//                 capped at 2^28 tokens per cell (max_cell_tokens)
//   --arrival-rate / --service-rate   async (event-driven) grids: Poisson
//                 arrivals (> 0) / service completions (>= 0; 0 = none) per
//                 unit of virtual time
//   --replay-trace  async grids: replay `(time, node, count)` events from
//                 this file as an extra source
//   --trace       write a Chrome/Perfetto trace-event JSON of the run to
//                 this path (load in ui.perfetto.dev). Observation only:
//                 stdout rows are byte-identical with or without it
//   --obs-profile read hardware counters (cycles, instructions, cache
//                 refs/misses, branch misses) as a payload on every span,
//                 fold the spans into one report, write it to this path as
//                 the "dlb-profile-v2" JSON sidecar (per-cell phase skew,
//                 counters and histograms; run-wide span totals and pool
//                 utilization) and print it as a table to stderr
//                 (`--obs-profile /dev/null` prints the table only). Falls
//                 back to wall-clock-only profiling where perf_event_open is
//                 unavailable (one stderr notice). Observation only: stdout
//                 rows stay byte-identical
//   --obs-extras  append the deterministic obs counters (obs_tokens_moved,
//                 obs_edges_touched, ...) to every row's extras
//   --checkpoint  persist every finished cell's row to this file (atomic
//                 tmp+rename saves; see --checkpoint-every). A killed run
//                 relaunched with --resume recomputes only unfinished cells
//                 and emits byte-identical output to an uninterrupted run
//   --checkpoint-every  save the checkpoint after this many freshly
//                 completed cells (default 1 = after every cell)
//   --resume      load a --checkpoint file before running (missing file =
//                 cold start). The file's settings fingerprint must match
//                 this invocation's row-affecting flags; execution-only
//                 knobs (--threads, --shard-threads, --format) may differ
//                 freely
//   --format      stdout/--out serialization: json (default) or csv —
//                 same row schema, same determinism guarantees
//   --out         also write results (with real wall_ns timing) to this
//                 file; it is replaced only when the whole run succeeds
//   --table       render each grid's ascii pivot to stderr; the shape is
//                 per-grid (discrepancy, with log-log slopes on scaling-n;
//                 steady-state mean; balancing time; or the study grids'
//                 extra-metric columns)
//
// The flags that name a file (--trace, --obs-profile, --out, --checkpoint,
// --resume, --replay-trace) refuse to run when given without a path.
//
// stdout carries the results (JSON array by default, CSV with --format csv)
// with wall_ns masked to 0, so the bytes are identical for any --threads
// value: grid cells derive their RNG streams from (master seed, cell index),
// never from scheduling. Use --out for the timing-bearing variant. Rows
// stream out in cell order; after a failure (exit 1) stdout ends after the
// rows emitted so far, without the closing `]`.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlb/analysis/args.hpp"
#include "dlb/analysis/table.hpp"
#include "dlb/common/contracts.hpp"
#include "dlb/obs/export.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grid_checkpoint.hpp"
#include "dlb/runtime/grids.hpp"

namespace {

using namespace dlb;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

template <typename T>
constexpr std::int64_t max_of = std::numeric_limits<T>::max();

}  // namespace

int main(int argc, char** argv) {
  // The sibling temp file --out is written to; removed if the run fails.
  std::string out_tmp;
  try {
    const analysis::arg_map args(argc, argv);

    if (args.has("list")) {
      for (const auto& info : runtime::list_grids()) {
        std::cout << info.name << "\t" << info.description << "\n";
      }
      return 0;
    }

    const std::string grid_arg = args.get("grid", "");
    runtime::grid_options opts;
    // Counts are range-checked before they narrow, and before any row is
    // printed, so a value that would wrap or that no cell accepts fails
    // instead of running another experiment or failing mid-output.
    opts.target_n = static_cast<node_id>(
        args.get_int("n", opts.target_n, 16, max_of<node_id>));
    opts.repeats = static_cast<int>(
        args.get_int("repeats", opts.repeats, 1, max_of<int>));
    // A token count above max_cell_tokens fails on its own; make_named_grid
    // then checks its product with n, the rounds or the burst count.
    opts.spike_per_node = args.get_int("spike-per-node", opts.spike_per_node,
                                       0, max_cell_tokens);
    opts.dynamic_rounds = args.get_int("dynamic-rounds", opts.dynamic_rounds,
                                       1, max_of<round_t>);
    opts.arrivals_per_round = args.get_int(
        "arrivals-per-round", opts.arrivals_per_round, 0, max_cell_tokens);
    opts.burst_size =
        args.get_int("burst-size", opts.burst_size, 0, max_cell_tokens);
    opts.burst_period =
        args.get_int("burst-period", opts.burst_period, 1, max_of<round_t>);
    // Rates are finite (get_real); a defaulted rate is always in range.
    opts.arrival_rate = args.get_real("arrival-rate", opts.arrival_rate);
    if (opts.arrival_rate <= 0) {
      throw contract_violation("argument 'arrival-rate' is " +
                               args.get("arrival-rate", "") + ", not > 0");
    }
    opts.service_rate = args.get_real("service-rate", opts.service_rate);
    if (opts.service_rate < 0) {
      throw contract_violation("argument 'service-rate' is " +
                               args.get("service-rate", "") + ", not >= 0");
    }
    opts.trace_path = args.get_path("replay-trace", opts.trace_path);
    // --shard-threads accepts a comma list: each value runs every selected
    // grid once, with the grid name suffixed -s<k> when more than one value
    // is given (single values keep the plain name — the common case and the
    // historical output bytes).
    std::vector<unsigned> shard_thread_list;
    for (const std::string& item : split_csv(args.get("shard-threads", "1"))) {
      shard_thread_list.push_back(static_cast<unsigned>(
          analysis::parse_int("shard-threads", item, 1, max_of<unsigned>)));
    }
    if (shard_thread_list.empty()) shard_thread_list.push_back(1);
    const std::string trace_out = args.get_path("trace", "");
    const std::string profile_out = args.get_path("obs-profile", "");
    const bool obs_extras = args.has("obs-extras");
    const auto master_seed =
        static_cast<std::uint64_t>(args.get_int("master-seed", 1));
    const auto threads = static_cast<unsigned>(
        args.get_int("threads", runtime::thread_pool::default_threads(), 1,
                     max_of<unsigned>));
    const std::string out_path = args.get_path("out", "");
    const runtime::sink_format format =
        runtime::parse_format(args.get("format", "json"));
    const bool want_table = args.has("table");
    const std::string resume_path = args.get_path("resume", "");
    // --resume without --checkpoint keeps saving into the resumed file.
    const std::string ckpt_path = args.get_path("checkpoint", resume_path);
    const std::int64_t ckpt_every =
        args.get_int("checkpoint-every", 1, 1, max_of<std::int64_t>);

    for (const std::string& key : args.unused_keys()) {
      std::cerr << "unknown argument: " << key << "\n";
      return 2;
    }
    if (grid_arg.empty()) {
      std::cerr << "no grid selected; try `dlb_run --list` or "
                   "`dlb_run --grid table1`\n";
      return 2;
    }
    if (ckpt_path.empty() && args.has("checkpoint-every")) {
      std::cerr << "--checkpoint-every needs --checkpoint or --resume\n";
      return 2;
    }
    if (shard_thread_list.size() > 1 && !ckpt_path.empty()) {
      std::cerr << "--shard-threads with several values renames grids "
                   "(-s<k> suffixes), which the checkpoint fingerprint "
                   "cannot track; run the values separately\n";
      return 2;
    }

    // One recorder per run: the cell pool, every cell's shard pool, and
    // every engine driver report into it; the trace writer and the profile
    // report read it after the pool is idle. --obs-profile hands it a
    // counter source, so its spans carry hardware counter payloads; the
    // source is declared first so it outlives the recorder.
    std::unique_ptr<obs::prof::profiler> counters;
    if (!profile_out.empty()) {
      counters = std::make_unique<obs::prof::profiler>();
    }
    std::unique_ptr<obs::recorder> recorder;
    if (!trace_out.empty() || !profile_out.empty()) {
      recorder = std::make_unique<obs::recorder>(counters.get());
    }

    // Build every grid spec up front: an unknown grid name or bad config
    // must fail *before* the output framing has been emitted.
    std::vector<runtime::grid_spec> specs;
    for (const std::string& name : split_csv(grid_arg)) {
      for (const unsigned shard_threads : shard_thread_list) {
        opts.shard_threads = shard_threads;
        specs.push_back(runtime::make_named_grid(name, opts, master_seed));
        if (shard_thread_list.size() > 1) {
          specs.back().name += "-s" + std::to_string(shard_threads);
        }
        specs.back().recorder = recorder.get();
        specs.back().obs_extras = obs_extras;
      }
    }

    std::optional<runtime::grid_checkpoint> ckpt;
    if (!ckpt_path.empty()) {
      const std::string fp = runtime::checkpoint_fingerprint(
          grid_arg, master_seed, opts, obs_extras);
      ckpt = resume_path.empty()
                 ? runtime::grid_checkpoint(fp)
                 : runtime::grid_checkpoint::load_or_empty(resume_path, fp);
      if (!resume_path.empty()) {
        std::cerr << "resume: " << ckpt->size() << " completed cells loaded "
                  << "from " << resume_path << "\n";
      }
      ckpt->save_to(ckpt_path, static_cast<std::uint64_t>(ckpt_every));
    }

    runtime::thread_pool pool(threads);
    if (recorder != nullptr) pool.set_recorder(recorder.get());
    // --out goes to a sibling temp file that replaces the target only after
    // every grid succeeded, so a failed run leaves a previous results file
    // intact.
    std::ofstream out_file;
    if (!out_path.empty()) {
      out_tmp = out_path + ".tmp";
      out_file.open(out_tmp);
      if (!out_file) throw std::runtime_error("cannot open " + out_tmp);
    }

    // Rows leave for stdout (and --out) the moment every earlier cell has
    // finished; --table keeps only the current grid's rows, except that a
    // shard-thread ladder keeps every row for the scaling-efficiency table.
    runtime::row_writer stdout_writer(std::cout, format,
                                      runtime::timing::exclude);
    runtime::row_writer file_writer(out_file, format,
                                    runtime::timing::include);
    stdout_writer.begin();
    if (out_file.is_open()) file_writer.begin();
    const bool want_scaling = want_table && shard_thread_list.size() > 1;
    std::vector<runtime::result_row> table_rows;
    std::vector<runtime::result_row> ladder_rows;
    for (const runtime::grid_spec& spec : specs) {
      std::cerr << "running grid '" << spec.name << "' ("
                << runtime::expand_grid(spec, master_seed).size()
                << " cells, " << threads << " threads";
      if (spec.shard_threads > 1) {
        std::cerr << ", " << spec.shard_threads << " shard threads";
      }
      std::cerr << ")\n";
      runtime::run_grid(
          spec, master_seed, pool,
          [&](const runtime::result_row& row) {
            stdout_writer.row(row);
            if (out_file.is_open()) file_writer.row(row);
            if (want_table) table_rows.push_back(row);
          },
          ckpt.has_value() ? &*ckpt : nullptr);
      if (want_table) {
        std::cerr << "\n" << spec.description << "\n";
        runtime::render_view(spec, table_rows).print(std::cerr);
        if (want_scaling) {
          ladder_rows.insert(ladder_rows.end(), table_rows.begin(),
                             table_rows.end());
        }
        table_rows.clear();
      }
    }
    if (want_scaling) runtime::print_scaling_efficiency(ladder_rows, std::cerr);
    stdout_writer.end();
    if (out_file.is_open()) {
      file_writer.end();
      out_file.close();
      if (!out_file || std::rename(out_tmp.c_str(), out_path.c_str()) != 0) {
        throw std::runtime_error("cannot write " + out_path);
      }
      out_tmp.clear();
      std::cerr << "wrote " << file_writer.rows_written() << " rows to "
                << out_path << "\n";
    }

    // Trace export + profile report after every grid finished and the
    // pools are idle (the recorder's read-side contract). The rows above are
    // already out — obs output goes to its own files and stderr, never into
    // the row streams.
    if (recorder == nullptr) return 0;
    if (!trace_out.empty()) {
      std::ofstream trace_file(trace_out);
      if (!trace_file) {
        std::cerr << "cannot open " << trace_out << "\n";
        return 1;
      }
      obs::write_chrome_trace(trace_file, *recorder);
      std::cerr << "wrote trace to " << trace_out << "\n";
    }
    if (!profile_out.empty()) {
      const obs::prof::profile_report report =
          obs::prof::analyze_profile(*recorder);
      std::ofstream profile_file(profile_out);
      if (!profile_file) {
        std::cerr << "cannot open " << profile_out << "\n";
        return 1;
      }
      obs::prof::write_profile_json(profile_file, report);
      obs::prof::write_profile_table(std::cerr, report);
      std::cerr << "wrote profile to " << profile_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (!out_tmp.empty()) std::remove(out_tmp.c_str());
    return 1;
  }
}
