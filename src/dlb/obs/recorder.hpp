// Lock-free-per-thread trace recorder.
//
// A recorder owns one append-only event buffer per participating thread.
// Threads register themselves lazily on their first record and cache the
// buffer pointer in a thread_local slot, so the steady-state record path is
// a clock read plus a vector push_back on thread-private storage — no lock,
// no atomic, no contention. The registry mutex is taken only on a thread's
// first record against a given recorder.
//
// Timestamps are steady_clock nanoseconds relative to the recorder's
// construction epoch, so spans from different threads order correctly and
// exported microsecond values stay small.
//
// A recorder constructed with a counter source (obs/prof.hpp) also reads the
// thread's hardware counters next to the two clock reads of every span timed
// through begin()/end(), and appends the deltas as that span's payload in
// the same per-thread buffer. Without a source no payload is ever stored.
//
// Reading the buffers back (events(), cells()) is only safe when no
// instrumented work is in flight — after run_grid has returned and the pools
// are idle. That is the natural export point and the only one dlb_run uses.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dlb/obs/metrics.hpp"
#include "dlb/obs/probe.hpp"
#include "dlb/obs/prof.hpp"

namespace dlb::obs {

/// Marks a span without a counter payload.
inline constexpr std::uint32_t no_payload = ~std::uint32_t{0};

/// One completed span. `name` must be a string literal (or otherwise outlive
/// the recorder) — records store the pointer, never a copy.
struct span_record {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< start, ns since the recorder epoch
  std::int64_t dur_ns = 0;  ///< duration, ns
  std::int64_t arg = -1;    ///< items for phases, queue-wait ns for pool
                            ///< tasks, -1 = none
  std::uint64_t cell = no_cell;  ///< owning cell, or no_cell
  std::uint32_t tid = 0;    ///< recorder-assigned thread index
  std::int32_t shard = -1;  ///< shard index for per-shard phase spans
  std::uint32_t payload = no_payload;  ///< counter slot in thread tid's
                                       ///< buffer (recorder::payload)
};

/// A span opened by recorder::begin(): its start time and, when the
/// recorder has a counter source, the thread's counters at that instant.
struct span_start {
  std::int64_t ts_ns = 0;
  prof::hw_counts hw;
};

/// One experiment cell the recorder saw: identity plus (once the cell has
/// finished) its metrics snapshot — the sidecar JSON rows.
struct cell_record {
  std::uint64_t id = 0;      ///< recorder-assigned, unique across grids
  std::uint64_t index = 0;   ///< the grid's own cell index (repeats per grid)
  std::string grid;
  std::string scenario;
  std::string process;
  metrics_snapshot snapshot;
  bool finished = false;
};

class recorder {
 public:
  /// `counters` (optional, non-owning, must outlive the recorder) makes
  /// every begin()/end() span carry a hardware-counter payload.
  explicit recorder(const prof::profiler* counters = nullptr);
  ~recorder();

  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// Nanoseconds since the recorder epoch (steady_clock).
  [[nodiscard]] std::int64_t now() const noexcept;

  /// Opens a span on the calling thread: reads the counters (with a source),
  /// then the clock.
  [[nodiscard]] span_start begin() const;

  /// Closes a span opened by begin() on the same thread — reads the clock,
  /// then the counters — and appends it with its payload. Returns the end
  /// timestamp. Lock-free after the thread's first record.
  std::int64_t end(const char* name, const span_start& start,
                   std::int32_t shard = -1, std::uint64_t cell = no_cell,
                   std::int64_t arg = -1);

  /// Appends one already-timed span (no payload) to the calling thread's
  /// buffer — for spans synthesized from other timestamps, such as barrier
  /// waits. `name` must be a string literal.
  void complete(const char* name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::int32_t shard = -1, std::uint64_t cell = no_cell,
                std::int64_t arg = -1);

  /// The counter source given at construction, or nullptr.
  [[nodiscard]] const prof::profiler* counter_source() const noexcept {
    return counters_;
  }

  /// Registers one experiment cell and returns its recorder-unique id
  /// (grid-local cell indices repeat across grids in a multi-grid run).
  /// Thread-safe.
  [[nodiscard]] std::uint64_t register_cell(std::string grid,
                                            std::string scenario,
                                            std::string process,
                                            std::uint64_t index);

  /// Stores the finished cell's metrics snapshot. Thread-safe.
  void finish_cell(std::uint64_t id, const metrics_snapshot& snapshot);

  /// All spans, merged across threads and sorted by start time. Only valid
  /// when no instrumented work is in flight.
  [[nodiscard]] std::vector<span_record> events() const;

  /// All registered cells in registration order. Same quiescence contract.
  [[nodiscard]] std::vector<cell_record> cells() const;

  /// The counter payload of a span from events(), or nullptr when it has
  /// none. Same quiescence contract.
  [[nodiscard]] const prof::hw_counts* payload(const span_record& span) const;

  /// Span-buffer footprint (threads registered, spans held, bytes reserved)
  /// — surfaced by the profile sidecar's memory section. Same quiescence
  /// contract as events().
  [[nodiscard]] prof::buffer_footprint footprint() const;

  /// Footprint of the counter payloads riding on those spans.
  [[nodiscard]] prof::buffer_footprint payload_footprint() const;

 private:
  struct buffer {
    std::uint32_t tid = 0;
    std::vector<span_record> spans;
    std::vector<prof::hw_counts> payloads;  ///< indexed by span payload slot
  };

  /// The calling thread's buffer (registering it on first use).
  buffer& local();

  const std::uint64_t id_;  ///< distinguishes recorders in thread_local caches
  std::int64_t epoch_ns_ = 0;  ///< steady_clock at construction
  const prof::profiler* counters_;  ///< payload source, or nullptr

  mutable std::mutex mutex_;  // guards the containers below, not their spans
  std::vector<std::unique_ptr<buffer>> buffers_;
  std::vector<cell_record> cells_;
};

/// RAII span: begin() at construction, end() at destruction, on the probe's
/// recorder. A null recorder makes both ends a no-op — the
/// zero-cost-when-disabled idiom.
class scoped_span {
 public:
  scoped_span(recorder* rec, const char* name, std::int32_t shard = -1,
              std::uint64_t cell = no_cell, std::int64_t arg = -1)
      : rec_(rec), name_(name), shard_(shard), cell_(cell), arg_(arg) {
    if (rec_ != nullptr) start_ = rec_->begin();
  }
  ~scoped_span() {
    if (rec_ != nullptr) rec_->end(name_, start_, shard_, cell_, arg_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  recorder* rec_;
  const char* name_;
  span_start start_;
  std::int32_t shard_;
  std::uint64_t cell_;
  std::int64_t arg_;
};

}  // namespace dlb::obs
