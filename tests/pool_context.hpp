// A shard_context that runs its shards on a caller's thread pool, for tests
// that step processes on real worker threads.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "dlb/core/sharding.hpp"
#include "dlb/graph/graph.hpp"
#include "dlb/runtime/thread_pool.hpp"

namespace dlb {

/// A shard_context running `shards` claim groups on `pool` — the same
/// adapter runtime/experiment_grid builds per cell. `pool` must outlive
/// every process the context is installed on.
inline std::shared_ptr<const shard_context> pool_context(
    const graph& g, std::size_t shards, runtime::thread_pool& pool) {
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& body) {
        pool.parallel_for_each(count, body);
      },
      shard_exec::work_stealing,
      [&pool](std::size_t groups, std::size_t chunks,
              const std::function<void(
                  std::size_t, const std::function<std::size_t()>&)>& body) {
        pool.steal_loop(groups, chunks, body);
      }});
}

}  // namespace dlb
