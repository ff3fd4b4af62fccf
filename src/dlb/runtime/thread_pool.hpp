// A fixed-size thread pool with `parallel_for_each` and `steal_loop`
// primitives.
//
// Deliberately deque-free: the pool exists so that experiment grids can
// spread *independent, deterministic* work over cores, and determinism is
// easiest to audit when scheduling is a plain shared counter. Each
// parallel_for_each call hands indices 0..count-1 to the workers through one
// atomic; steal_loop is the same counter turned inside out — group bodies
// pull chunk indices themselves, so an uneven chunk never strands the other
// workers. Either way the body must not depend on which thread (or in which
// order) an index is executed — all randomness derives from the index,
// never from thread identity.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlb::obs {
class recorder;
}  // namespace dlb::obs

namespace dlb::runtime {

class thread_pool {
 public:
  /// Spawns `num_threads` >= 1 workers (throws contract_violation on 0).
  explicit thread_pool(unsigned num_threads);

  /// Joins all workers; outstanding parallel_for_each calls must have
  /// returned before destruction.
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] unsigned num_threads() const noexcept;

  /// std::thread::hardware_concurrency(), clamped to >= 1.
  [[nodiscard]] static unsigned default_threads() noexcept;

  /// Runs body(i) for every i in [0, count), distributing indices over the
  /// workers, and blocks until all have finished. If any invocation throws,
  /// no further indices are started and the first captured exception is
  /// rethrown here after the in-flight ones drain.
  ///
  /// Re-entrant calls — a body running on a pool worker calling back into
  /// the same pool — execute all indices inline on the calling worker
  /// instead of enqueuing. Enqueuing would deadlock: with every worker
  /// occupied by an outer body, the nested call's slices would wait for the
  /// very threads blocked on them. Nested calls therefore serialize; for
  /// genuine nested parallelism use a separate pool (as sharded cells do).
  void parallel_for_each(std::size_t count,
                         const std::function<void(std::size_t)>& body);

  /// Runs body(g, claim) for every group g in [0, groups), where `claim` is
  /// shared by all groups and yields successive chunk indices from one
  /// atomic cursor; a group loops `claim()` until the result is >= chunks.
  /// Blocks until every group body has returned, which is the only
  /// happens-before edge chunk work gets: writes made under one claim are
  /// visible to the caller after steal_loop returns (via the pool's
  /// completion barrier), not to concurrently-running groups. Re-entrant
  /// use degrades like parallel_for_each: groups run inline in order, so
  /// the first group drains every chunk.
  void steal_loop(
      std::size_t groups, std::size_t chunks,
      const std::function<void(std::size_t,
                               const std::function<std::size_t()>&)>& body);

  /// Attaches a trace recorder: every parallel_for_each slice then records a
  /// "pool_task" span carrying its enqueue→start latency (and, when the
  /// recorder has a counter source, the slice's counter deltas), which the
  /// --obs-summary exporter turns into per-worker utilization and queue-wait
  /// stats. Set it before work is submitted (not thread-safe to flip while
  /// slices run); nullptr detaches. Pure observation — scheduling and the
  /// index distribution are untouched.
  void set_recorder(obs::recorder* rec) noexcept { recorder_ = rec; }

 private:
  void worker_loop();

  /// The pool the current thread is a worker of (nullptr off-pool); lets
  /// parallel_for_each detect re-entrant use.
  static thread_local const thread_pool* worker_of_;

  obs::recorder* recorder_ = nullptr;  // null = no tracing
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool shutting_down_ = false;
};

}  // namespace dlb::runtime
