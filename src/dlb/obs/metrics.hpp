// Per-cell metrics: named monotonic counters plus log2-bucket histograms.
//
// One `metrics` object lives per executing cell (runtime/experiment_grid
// builds it next to the cell's row). All mutators are relaxed atomic adds —
// shard threads of one cell bump them concurrently; cross-counter ordering
// is irrelevant because the object is only read after the cell finished.
//
// The counters deliberately track quantities that are *deterministic by
// construction* at any shard count: phase ranges partition the full node and
// edge sets, token movement is the processes' own integer accounting, and
// arrivals/services come from seeded streams. That is what lets run_cell
// append the allow-listed counters to result_row.extra (behind the opt-in
// --obs-extras flag) without breaking the byte-identical-rows contract
// across --threads / --shard-threads. The queue-depth histogram goes only to
// the profile report (obs/prof.hpp), never to rows. Barrier waits are
// timing, not counts, so they are not kept here: they are the recorder's
// barrier:* spans, which the report folds.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dlb::obs {

/// Power-of-two bucket histogram: value v lands in bucket bit_width(v).
/// Bucket 0 holds exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b). The top
/// value 2^64-1 has bit width 64, so 65 buckets are needed — with 64 the
/// whole top octave [2^63, 2^64) indexed one past the array
/// (tests/obs_test.cpp pins every boundary).
class histogram {
 public:
  static constexpr std::size_t num_buckets = 65;

  /// The bucket `value` lands in.
  [[nodiscard]] static constexpr std::size_t bucket(
      std::uint64_t value) noexcept {
    return value == 0 ? 0
                      : static_cast<std::size_t>(64 - __builtin_clzll(value));
  }

  void add(std::uint64_t value) noexcept {
    buckets_[bucket(value)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::array<std::uint64_t, num_buckets> snapshot()
      const noexcept {
    std::array<std::uint64_t, num_buckets> out{};
    for (std::size_t b = 0; b < num_buckets; ++b) {
      out[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, num_buckets> buckets_{};
};

/// Plain-value copy of a metrics object, taken after the cell finished.
/// `counters` holds (name, value) pairs in a fixed order so serialization is
/// byte-stable.
struct metrics_snapshot {
  std::vector<std::pair<const char*, std::uint64_t>> counters;
  std::array<std::uint64_t, histogram::num_buckets> queue_depth_hist{};

  /// Value of a named counter, 0 when absent.
  [[nodiscard]] std::uint64_t counter(const char* name) const;
};

class metrics {
 public:
  /// One edge/node phase executed over `items` total entities (the ranges of
  /// all shards sum to the full set, so the totals are shard-count
  /// independent).
  void count_phase(bool edge_items, std::uint64_t items) noexcept {
    phases_.fetch_add(1, std::memory_order_relaxed);
    (edge_items ? edges_touched_ : nodes_touched_)
        .fetch_add(items, std::memory_order_relaxed);
  }

  /// Tokens the process physically transferred across edges (counted once,
  /// at the receiving side of each transfer, by the processes themselves).
  void add_tokens_moved(std::uint64_t n) noexcept {
    tokens_moved_.fetch_add(n, std::memory_order_relaxed);
  }

  void add_round() noexcept {
    rounds_.fetch_add(1, std::memory_order_relaxed);
  }

  void add_arrivals(std::uint64_t n) noexcept {
    arrivals_.fetch_add(n, std::memory_order_relaxed);
  }

  void add_served(std::uint64_t n) noexcept {
    served_.fetch_add(n, std::memory_order_relaxed);
  }

  /// One async event dispatched with `queue_depth` entries still pending.
  void add_event(std::uint64_t queue_depth) noexcept {
    events_dispatched_.fetch_add(1, std::memory_order_relaxed);
    queue_depth_.add(queue_depth);
  }

  [[nodiscard]] metrics_snapshot take() const;

 private:
  std::atomic<std::uint64_t> phases_{0};
  std::atomic<std::uint64_t> edges_touched_{0};
  std::atomic<std::uint64_t> nodes_touched_{0};
  std::atomic<std::uint64_t> tokens_moved_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> events_dispatched_{0};
  histogram queue_depth_;
};

}  // namespace dlb::obs
