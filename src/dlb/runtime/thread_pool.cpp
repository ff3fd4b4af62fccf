#include "dlb/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "dlb/common/contracts.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb::runtime {

thread_pool::thread_pool(unsigned num_threads) {
  DLB_EXPECTS(num_threads >= 1);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

unsigned thread_pool::num_threads() const noexcept {
  return static_cast<unsigned>(workers_.size());
}

unsigned thread_pool::default_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

thread_local const thread_pool* thread_pool::worker_of_ = nullptr;

void thread_pool::worker_loop() {
  worker_of_ = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void thread_pool::parallel_for_each(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  // Re-entrant use: this thread is one of our own workers, so it must not
  // block on the queue — with all workers inside outer bodies nobody would
  // ever drain it. Run the whole loop inline instead (exceptions propagate
  // directly to the outer body).
  if (worker_of_ == this) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Shared loop state for this call. Workers pull indices from `next`; the
  // first exception parks `next` past the end so no new work starts.
  struct loop_state {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    std::size_t pending_jobs = 0;  // guarded by done_mutex
    std::mutex done_mutex;
    std::condition_variable done;
    std::exception_ptr error;  // guarded by done_mutex
  };
  auto state = std::make_shared<loop_state>();
  state->count = count;

  const std::size_t jobs =
      std::min<std::size_t>(workers_.size(), count);
  state->pending_jobs = jobs;

  // Per-slice tracing: one "pool_task" span from first index pulled to
  // slice exit, carrying the enqueue→start latency. The recorder's clock
  // (and, when profiling, counter) reads are the only additions — index
  // distribution, locking, and error handling are byte-for-byte the
  // untraced protocol.
  obs::recorder* const rec = recorder_;
  const std::int64_t enqueue_ns = rec != nullptr ? rec->now() : 0;
  const auto run_slice = [state, &body, rec, enqueue_ns] {
    const obs::span_start start =
        rec != nullptr ? rec->begin() : obs::span_start{};
    std::exception_ptr local_error;
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->count) break;
      try {
        body(i);
      } catch (...) {
        local_error = std::current_exception();
        state->next.store(state->count, std::memory_order_relaxed);
        break;
      }
    }
    if (rec != nullptr) {
      rec->end("pool_task", start, /*shard=*/-1, obs::no_cell,
               /*arg=*/start.ts_ns - enqueue_ns);
    }
    {
      const std::lock_guard<std::mutex> lock(state->done_mutex);
      if (local_error && !state->error) state->error = local_error;
      --state->pending_jobs;
    }
    state->done.notify_one();
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DLB_EXPECTS(!shutting_down_);
    for (std::size_t j = 0; j < jobs; ++j) queue_.emplace_back(run_slice);
  }
  wake_.notify_all();

  std::unique_lock<std::mutex> lock(state->done_mutex);
  state->done.wait(lock, [&state] { return state->pending_jobs == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void thread_pool::steal_loop(
    std::size_t groups, std::size_t chunks,
    const std::function<void(std::size_t,
                             const std::function<std::size_t()>&)>& body) {
  if (groups == 0) return;
  // The chunk cursor: with parallel_for_each's index counter, one of the
  // two blessed atomic work-distribution points (tools/dlb_lint.py,
  // "atomic-claim"). Stack lifetime is safe — parallel_for_each blocks
  // until every group body (and therefore every claim) has returned.
  std::atomic<std::size_t> cursor{0};
  const std::function<std::size_t()> claim = [&cursor] {
    return cursor.fetch_add(1, std::memory_order_relaxed);
  };
  (void)chunks;  // bound lives in the bodies' loop condition, not here
  parallel_for_each(groups, [&](std::size_t g) { body(g, claim); });
}

}  // namespace dlb::runtime
