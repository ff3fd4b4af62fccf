// Hardware-counter & shard-skew profiling on top of the trace recorder.
//
// A `prof::profiler` is the recorder's counter source: it probes once for
// five hardware counters (cycles, instructions, cache-references,
// cache-misses, branch-misses) and reads them through one perf_event_open(2)
// fd group per participating thread. A recorder constructed with a source
// reads the counters next to the two clock reads that time each span and
// stores the deltas as that span's optional payload — one buffer, one clock,
// one registration path. Where the syscall is unavailable — containers with
// seccomp filters, macOS, restrictive perf_event_paranoid, or the
// DLB_PROF_FORCE_FALLBACK=1 test knob — the source degrades to a
// wall-clock-only backend: exactly one stderr notice, never a failure, and
// the sidecar keeps its full schema with every counter marked unavailable.
//
// Like the recorder, profiling is strictly opt-in observation: it reads
// clocks and counter fds and appends to thread-private buffers. It never
// touches RNG streams, floating-point order, or serialized row bytes
// (tests/prof_test.cpp pins rows byte-identical with profiling on or off at
// shard-threads 1 and 8).
//
// Post-run, `analyze_profile` is the one fold over the recorder's span
// stream. Every span is a phase row keyed by its name and shard, with the
// counter payload where one exists; barrier:<phase> waits credit the phase
// they guard; round spans give round totals; a cell's `cell` span gives its
// wall time. The fold runs per cell (plus the cell's metrics snapshot) and
// once over the whole run (plus per-worker pool_task busy time and the
// enqueue→start wait). Two renderers read the report: the
// deterministic-schema "dlb-profile-v2" JSON sidecar and a human table
// (dlb_run --obs-profile FILE writes the first and prints the second).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "dlb/obs/metrics.hpp"

namespace dlb::obs {
class recorder;
}

namespace dlb::obs::prof {

/// The fixed counter set, in fd-group (and sidecar) order.
inline constexpr std::size_t num_hw = 5;
enum class hw : std::size_t {
  cycles = 0,
  instructions = 1,
  cache_references = 2,
  cache_misses = 3,
  branch_misses = 4,
};

/// Sidecar key for counter slot `i` (i < num_hw).
[[nodiscard]] const char* hw_name(std::size_t i) noexcept;

/// The five counters, either read at one instant on the calling thread or
/// as the deltas over one span (the span payload). `available` is false on
/// the fallback backend and whenever a read failed.
struct hw_counts {
  std::array<std::uint64_t, num_hw> value{};
  bool available = false;
};

/// Footprint of one kind of record (spans or counter payloads) across a
/// recorder's per-thread buffers — surfaced in the profile sidecar's memory
/// section.
struct buffer_footprint {
  std::uint64_t threads = 0;  ///< per-thread buffers registered
  std::uint64_t records = 0;  ///< spans / payloads held
  std::uint64_t bytes = 0;    ///< capacity actually reserved
};

/// The counter source a recorder reads span payloads from.
class profiler {
 public:
  /// Probes backend availability once: DLB_PROF_FORCE_FALLBACK=1 or a failed
  /// trial perf_event_open selects the wall-clock-only fallback and prints a
  /// single stderr notice. Construction never throws for backend reasons.
  profiler();

  profiler(const profiler&) = delete;
  profiler& operator=(const profiler&) = delete;

  /// False when running on the wall-clock-only fallback backend.
  [[nodiscard]] bool hardware_available() const noexcept;

  /// Human-readable reason for the fallback, empty on the hardware backend.
  [[nodiscard]] const std::string& fallback_reason() const noexcept;

  /// Reads the calling thread's counter group (opening it on first use).
  /// Unavailable on the fallback backend.
  [[nodiscard]] hw_counts read() const;

  /// Counter deltas from `start` (a read() on this thread) to now; available
  /// only when both reads succeeded.
  [[nodiscard]] hw_counts since(const hw_counts& start) const;

 private:
  bool hardware_ = false;
  std::string fallback_reason_;
};

// ---------------------------------------------------------------------------
// Post-run report
// ---------------------------------------------------------------------------

/// Per (phase, shard) totals.
struct shard_stat {
  std::int32_t shard = -1;
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t barrier_wait_ns = 0;  ///< from the recorder's barrier:* spans
  std::array<std::uint64_t, num_hw> hw{};
  /// False when any of the spans carried no payload or an unavailable one.
  bool hw_available = false;

  [[nodiscard]] double ipc() const noexcept;
  [[nodiscard]] double cache_miss_rate() const noexcept;
};

/// One span name (a phase), aggregated over shards.
struct phase_profile {
  std::string phase;
  std::vector<shard_stat> shards;  ///< sorted by shard id
  std::uint64_t calls = 0;
  std::int64_t wall_total_ns = 0;
  std::int64_t wall_mean_ns = 0;     ///< mean per-shard wall total
  std::int64_t wall_slowest_ns = 0;  ///< max per-shard wall total
  std::int64_t wall_p99_ns = 0;      ///< nearest-rank p99 per-shard wall total
  std::int64_t wall_longest_ns = 0;  ///< longest single span
  std::int32_t slowest_shard = -1;
  double skew = 0.0;  ///< slowest / mean, 1.0 = perfectly balanced
  std::int64_t barrier_wait_ns = 0;
};

/// Log2 buckets as obs::histogram counts them.
using log2_hist = std::array<std::uint64_t, histogram::num_buckets>;

struct cell_profile {
  std::uint64_t cell = 0;   ///< recorder cell id
  std::uint64_t index = 0;  ///< the grid's own cell index
  std::string grid;
  std::string scenario;
  std::string process;
  bool finished = false;
  std::int64_t wall_ns = 0;       ///< the cell span; 0 if it never finished
  std::uint64_t rounds = 0;       ///< count of round/tA_round spans
  std::int64_t round_wall_ns = 0; ///< summed round-span wall time
  std::int64_t barrier_wait_ns = 0;
  /// Share of aggregate shard-time spent waiting at barriers:
  /// barrier_wait_ns / (round_wall_ns * max shard count), clamped to [0, 1].
  double barrier_wait_share = 0.0;
  log2_hist barrier_wait_hist{};  ///< barrier:* span durations, ns
  metrics_snapshot snapshot;      ///< counters and queue-depth histogram
  std::vector<phase_profile> phases;  ///< sorted by phase name
};

/// The worker pools' pool_task spans.
struct pool_profile {
  /// (tid, summed pool_task wall time), by tid.
  std::vector<std::pair<std::uint32_t, std::int64_t>> busy_ns;
  std::uint64_t tasks = 0;  ///< tasks carrying an enqueue→start wait
  std::int64_t queue_wait_total_ns = 0;
  std::int64_t queue_wait_max_ns = 0;
};

/// The same fold over every span of the run, cell or not.
struct run_profile {
  std::uint64_t spans = 0;
  std::int64_t window_ns = 0;  ///< first span start to last span end
  std::int64_t barrier_wait_ns = 0;
  pool_profile pool;
  std::vector<phase_profile> phases;  ///< sorted by phase name
};

struct memory_profile {
  std::uint64_t max_rss_kb = 0;  ///< getrusage ru_maxrss (0 if unavailable)
  std::uint64_t vm_hwm_kb = 0;   ///< /proc/self/status VmHWM (0 if absent)
  std::uint64_t vm_rss_kb = 0;   ///< /proc/self/status VmRSS (0 if absent)
  buffer_footprint recorder;  ///< span buffers
  buffer_footprint profiler;  ///< counter payloads riding on those spans
};

struct profile_report {
  bool hardware_available = false;
  std::string fallback_reason;
  memory_profile memory;
  run_profile run;
  std::vector<cell_profile> cells;  ///< every registered cell, in id order
};

/// Process-wide memory high-water marks plus the recorder's span and payload
/// footprints (left 0 without one). Reads getrusage and /proc/self/status;
/// fields that cannot be read stay 0. The second parameter carries nothing:
/// it keeps the frozen scale benchmark's two-argument call compiling.
[[nodiscard]] memory_profile sample_memory(const recorder* rec,
                                           std::nullptr_t = nullptr);

/// The one fold over the recorder's spans: per cell and for the whole run,
/// every span gives per-(phase, shard) wall time and, with a payload,
/// counters; barrier:* spans give waits; round/tA_round spans give round
/// totals. Cells also take their `cell` span's wall time and their
/// cell_record. The recorder must be quiescent.
[[nodiscard]] profile_report analyze_profile(const recorder& rec);

/// The "dlb-profile-v2" sidecar: fixed key set and order, so downstream
/// tooling (tools/check_profile.py) can validate the schema byte-for-byte.
void write_profile_json(std::ostream& os, const profile_report& report);

/// Human-readable table: per-cell skew, then the run's largest span names,
/// per-phase shard balance, barrier total and pool utilization (the 8
/// busiest tids, the rest folded into one "+N more totalling" aggregate).
/// dlb_run --obs-profile prints it to stderr.
void write_profile_table(std::ostream& os, const profile_report& report);

}  // namespace dlb::obs::prof
