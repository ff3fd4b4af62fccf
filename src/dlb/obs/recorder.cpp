#include "dlb/obs/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace dlb::obs {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t next_recorder_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  // dlb-lint: allow(atomic-claim): process-lifetime recorder-id allocation; ids never reach rows
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of "my buffer in recorder X". Keyed by the recorder's
/// unique id, not its address: a new recorder at a recycled address must not
/// inherit a dead recorder's cache entry.
struct tl_cache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local tl_cache tls;

/// Footprint of one record vector (`records`, a member pointer) summed over
/// all thread buffers.
template <typename Buffers, typename Records>
prof::buffer_footprint footprint_of(const Buffers& buffers, Records records) {
  prof::buffer_footprint fp;
  fp.threads = buffers.size();
  for (const auto& buf : buffers) {
    const auto& held = (*buf).*records;
    fp.records += held.size();
    fp.bytes += held.capacity() * sizeof(*held.data());
  }
  return fp;
}

}  // namespace

recorder::recorder(const prof::profiler* counters)
    : id_(next_recorder_id()), epoch_ns_(steady_ns()), counters_(counters) {}

recorder::~recorder() = default;

std::int64_t recorder::now() const noexcept {
  return steady_ns() - epoch_ns_;
}

recorder::buffer& recorder::local() {
  if (tls.recorder_id == id_) {
    return *static_cast<buffer*>(tls.buffer);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<buffer>());
  buffer& buf = *buffers_.back();
  buf.tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  buf.spans.reserve(1024);
  if (counters_ != nullptr) buf.payloads.reserve(1024);
  tls = {id_, &buf};
  return buf;
}

span_start recorder::begin() const {
  span_start start;
  if (counters_ != nullptr) start.hw = counters_->read();
  start.ts_ns = now();
  return start;
}

std::int64_t recorder::end(const char* name, const span_start& start,
                           std::int32_t shard, std::uint64_t cell,
                           std::int64_t arg) {
  const std::int64_t end_ns = now();
  buffer& buf = local();
  std::uint32_t slot = no_payload;
  if (counters_ != nullptr) {
    slot = static_cast<std::uint32_t>(buf.payloads.size());
    buf.payloads.push_back(counters_->since(start.hw));
  }
  buf.spans.push_back({name, start.ts_ns, end_ns - start.ts_ns, arg, cell,
                       buf.tid, shard, slot});
  return end_ns;
}

void recorder::complete(const char* name, std::int64_t ts_ns,
                        std::int64_t dur_ns, std::int32_t shard,
                        std::uint64_t cell, std::int64_t arg) {
  buffer& buf = local();
  buf.spans.push_back({name, ts_ns, dur_ns, arg, cell, buf.tid, shard});
}

std::uint64_t recorder::register_cell(std::string grid, std::string scenario,
                                      std::string process,
                                      std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cell_record rec;
  rec.id = cells_.size();
  rec.index = index;
  rec.grid = std::move(grid);
  rec.scenario = std::move(scenario);
  rec.process = std::move(process);
  cells_.push_back(std::move(rec));
  return cells_.back().id;
}

void recorder::finish_cell(std::uint64_t id, const metrics_snapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cells_[static_cast<std::size_t>(id)].snapshot = snapshot;
  cells_[static_cast<std::size_t>(id)].finished = true;
}

std::vector<span_record> recorder::events() const {
  std::vector<span_record> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const span_record& a, const span_record& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<cell_record> recorder::cells() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cells_;
}

const prof::hw_counts* recorder::payload(const span_record& span) const {
  if (span.payload == no_payload) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  return &buffers_[span.tid]->payloads[span.payload];
}

prof::buffer_footprint recorder::footprint() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return footprint_of(buffers_, &buffer::spans);
}

prof::buffer_footprint recorder::payload_footprint() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return footprint_of(buffers_, &buffer::payloads);
}

}  // namespace dlb::obs
