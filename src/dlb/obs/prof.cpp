#include "dlb/obs/prof.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dlb/common/json.hpp"
#include "dlb/obs/recorder.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dlb::obs::prof {

namespace {

constexpr const char* kHwNames[num_hw] = {
    "cycles", "instructions", "cache_references", "cache_misses",
    "branch_misses",
};

#if defined(__linux__)

constexpr std::uint64_t kHwConfigs[num_hw] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES,
};

/// One perf fd group measuring *this thread*, opened lazily on the thread's
/// first hardware read and closed when the thread exits (thread_local
/// destructor) — so per-cell shard pools that come and go never accumulate
/// open fds for dead threads. The group is profiler-independent: the
/// counters measure the thread, any hardware-backend source may read them.
struct perf_group {
  int fds[num_hw] = {-1, -1, -1, -1, -1};
  bool tried = false;
  bool ok = false;
  std::string fail_reason;  ///< from the first (only) failed open attempt

  ~perf_group() { close_all(); }

  void close_all() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    ok = false;
  }

  /// Opens the five-counter group. On failure closes everything, stores the
  /// failing counter + errno in `reason`, and never retries on this thread.
  bool ensure_open(std::string* reason) {
    if (tried) {
      // A later source on this thread must still learn why the first
      // attempt failed (the syscall is never retried).
      if (!ok && reason != nullptr) *reason = fail_reason;
      return ok;
    }
    tried = true;
    for (std::size_t i = 0; i < num_hw; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = kHwConfigs[i];
      attr.disabled = 0;
      attr.exclude_kernel = 1;  // user-space only: works at paranoid <= 2
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP;
      const int group_fd = i == 0 ? -1 : fds[0];
      const long fd = ::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                /*cpu=*/-1, group_fd, /*flags=*/0UL);
      if (fd < 0) {
        std::ostringstream os;
        os << "perf_event_open(" << kHwNames[i]
           << ") failed: " << std::strerror(errno);
        if (errno == EACCES || errno == EPERM) {
          os << " (check /proc/sys/kernel/perf_event_paranoid or container "
                "seccomp policy)";
        }
        fail_reason = os.str();
        if (reason != nullptr) *reason = fail_reason;
        close_all();
        return false;
      }
      fds[i] = static_cast<int>(fd);
    }
    ok = true;
    return true;
  }

  /// Reads all five counters atomically via the group leader.
  bool read_values(std::array<std::uint64_t, num_hw>& out) {
    if (!ok) return false;
    // PERF_FORMAT_GROUP layout: u64 nr, then nr values in open order.
    std::uint64_t buf[1 + num_hw] = {};
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got != static_cast<ssize_t>(sizeof(buf)) || buf[0] != num_hw) {
      return false;
    }
    for (std::size_t i = 0; i < num_hw; ++i) out[i] = buf[1 + i];
    return true;
  }
};

thread_local perf_group tl_group;

#endif  // defined(__linux__)

bool force_fallback_env() {
  const char* v = std::getenv("DLB_PROF_FORCE_FALLBACK");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

double safe_div(double num, double den) noexcept {
  return den > 0.0 ? num / den : 0.0;
}

/// %.6g formatting: locale-independent, no exponent surprises for the value
/// ranges we emit, and identical across the compilers CI runs.
void write_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

/// `v` with `digits` decimals, for the table.
std::string fixed(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string format_ms(std::int64_t ns) { return fixed(ms(ns), 2) + "ms"; }

}  // namespace

const char* hw_name(std::size_t i) noexcept { return kHwNames[i]; }

profiler::profiler() {
  if (force_fallback_env()) {
    fallback_reason_ = "forced by DLB_PROF_FORCE_FALLBACK=1";
  } else {
#if defined(__linux__)
    // Probe on the constructing thread: if the syscall is denied here it is
    // denied everywhere in this process, so later per-thread opens cannot
    // introduce a surprise mid-run.
    std::string reason;
    if (tl_group.ensure_open(&reason)) {
      hardware_ = true;
    } else {
      fallback_reason_ = reason;
    }
#else
    fallback_reason_ = "perf_event_open is Linux-only on this platform";
#endif
  }
  if (!hardware_) {
    // Reported once per source (dlb_run builds exactly one), never fatal:
    // wall-clock skew attribution still works without hardware counters.
    std::fprintf(stderr,
                 "dlb prof: hardware counters unavailable (%s); continuing "
                 "with wall-clock-only profiling\n",
                 fallback_reason_.c_str());
  }
}

bool profiler::hardware_available() const noexcept { return hardware_; }

const std::string& profiler::fallback_reason() const noexcept {
  return fallback_reason_;
}

hw_counts profiler::read() const {
  hw_counts r;
#if defined(__linux__)
  if (hardware_ && tl_group.ensure_open(nullptr)) {
    r.available = tl_group.read_values(r.value);
  }
#endif
  return r;
}

hw_counts profiler::since(const hw_counts& start) const {
  hw_counts d;
  if (!start.available) return d;
  const hw_counts end = read();
  if (!end.available) return d;
  for (std::size_t i = 0; i < num_hw; ++i) {
    // Counters are monotonic per thread; a migrating task never reads
    // backwards, but clamp anyway so a kernel quirk cannot wrap.
    d.value[i] = end.value[i] >= start.value[i]
                     ? end.value[i] - start.value[i]
                     : 0;
  }
  d.available = true;
  return d;
}

// ---------------------------------------------------------------------------
// Post-run report
// ---------------------------------------------------------------------------

double shard_stat::ipc() const noexcept {
  return safe_div(static_cast<double>(hw[static_cast<std::size_t>(
                      hw::instructions)]),
                  static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cycles)]));
}

double shard_stat::cache_miss_rate() const noexcept {
  return safe_div(static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cache_misses)]),
                  static_cast<double>(hw[static_cast<std::size_t>(
                      hw::cache_references)]));
}

memory_profile sample_memory(const recorder* rec, std::nullptr_t) {
  memory_profile mem;
#if defined(__unix__) || defined(__APPLE__) || defined(__linux__)
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    mem.max_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    mem.max_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
  }
#endif
#if defined(__linux__)
  // VmHWM is the true heap+stack high-water; ru_maxrss can under-report
  // after memory is returned. Missing file (non-proc mounts) just leaves 0.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::uint64_t* slot = nullptr;
    if (line.rfind("VmHWM:", 0) == 0) slot = &mem.vm_hwm_kb;
    if (line.rfind("VmRSS:", 0) == 0) slot = &mem.vm_rss_kb;
    if (slot != nullptr) {
      std::istringstream fields(line.substr(line.find(':') + 1));
      fields >> *slot;
    }
  }
#endif
  if (rec != nullptr) {
    mem.recorder = rec->footprint();
    mem.profiler = rec->payload_footprint();
  }
  return mem;
}

namespace {

bool is_round_span(const char* name) noexcept {
  return std::strcmp(name, "round") == 0 || std::strcmp(name, "tA_round") == 0;
}

bool is_barrier_span(const char* name) noexcept {
  return std::strncmp(name, "barrier:", 8) == 0;
}

std::int64_t nearest_rank_p99(std::vector<std::int64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

/// The per-(phase, shard) fold that each cell and the whole run go through.
class phase_fold {
 public:
  /// One span: one call of its phase on its shard, with its counter payload
  /// when it has one.
  void add(const span_record& span, const hw_counts* hw) {
    phase_accum& ph = phase(span.name);
    shard_stat& st = shard(ph, span.shard);
    const bool available = hw != nullptr && hw->available;
    st.hw_available = (st.calls == 0 || st.hw_available) && available;
    st.calls += 1;
    st.wall_ns += span.dur_ns;
    if (hw != nullptr) {
      for (std::size_t i = 0; i < num_hw; ++i) st.hw[i] += hw->value[i];
    }
    ph.longest_ns = std::max(ph.longest_ns, span.dur_ns);
  }

  /// A barrier:<phase> span: its wait is credited to the phase it guards, so
  /// the per-shard barrier columns line up with the matching phase spans.
  void credit_barrier(const span_record& span) {
    shard(phase(span.name + 8), span.shard).barrier_wait_ns += span.dur_ns;
  }

  [[nodiscard]] std::vector<phase_profile> finish() const {
    std::vector<phase_profile> out;
    for (const auto& [name, ph] : phases_) {
      phase_profile pp;
      pp.phase = name;
      pp.wall_longest_ns = ph.longest_ns;
      std::vector<std::int64_t> walls;
      for (const auto& [id, st] : ph.shards) {
        pp.shards.push_back(st);
        pp.calls += st.calls;
        pp.wall_total_ns += st.wall_ns;
        pp.barrier_wait_ns += st.barrier_wait_ns;
        walls.push_back(st.wall_ns);
        if (pp.shards.size() == 1 || st.wall_ns > pp.wall_slowest_ns) {
          pp.wall_slowest_ns = st.wall_ns;
          pp.slowest_shard = id;
        }
      }
      pp.wall_mean_ns =
          pp.wall_total_ns / static_cast<std::int64_t>(pp.shards.size());
      pp.wall_p99_ns = nearest_rank_p99(std::move(walls));
      pp.skew = safe_div(static_cast<double>(pp.wall_slowest_ns),
                         static_cast<double>(pp.wall_mean_ns));
      out.push_back(std::move(pp));
    }
    return out;
  }

 private:
  struct phase_accum {
    std::map<std::int32_t, shard_stat> shards;
    std::int64_t longest_ns = 0;
  };

  phase_accum& phase(const char* name) {
    const auto it = phases_.find(std::string_view(name));
    if (it != phases_.end()) return it->second;
    return phases_.emplace(name, phase_accum{}).first->second;
  }

  static shard_stat& shard(phase_accum& ph, std::int32_t id) {
    shard_stat& st = ph.shards[id];
    st.shard = id;
    return st;
  }

  // std::map keeps phases name-sorted and shards id-sorted, which is what
  // makes the sidecar order deterministic.
  std::map<std::string, phase_accum, std::less<>> phases_;
};

}  // namespace

profile_report analyze_profile(const recorder& rec) {
  profile_report report;
  if (const profiler* source = rec.counter_source(); source != nullptr) {
    report.hardware_available = source->hardware_available();
    report.fallback_reason = source->fallback_reason();
  }
  report.memory = sample_memory(&rec);
  for (const cell_record& cell : rec.cells()) {
    cell_profile& cp = report.cells.emplace_back();
    cp.cell = cell.id;
    cp.index = cell.index;
    cp.grid = cell.grid;
    cp.scenario = cell.scenario;
    cp.process = cell.process;
    cp.finished = cell.finished;
    cp.snapshot = cell.snapshot;
  }

  // One fold per cell (cell ids index report.cells) and one for the run.
  std::vector<phase_fold> cell_folds(report.cells.size());
  phase_fold run_fold;
  run_profile& run = report.run;
  std::map<std::uint32_t, std::int64_t> busy;  // tid → Σ pool_task wall
  const std::vector<span_record> events = rec.events();  // by start time
  run.spans = events.size();
  const std::int64_t t_min = events.empty() ? 0 : events.front().ts_ns;
  std::int64_t t_max = t_min;
  for (const span_record& span : events) {
    t_max = std::max(t_max, span.ts_ns + span.dur_ns);
    const hw_counts* hw = rec.payload(span);
    // Spans outside any cell (pool tasks, warmup) fold into the run only.
    const bool in_cell = span.cell < cell_folds.size();
    if (is_barrier_span(span.name)) {
      run_fold.credit_barrier(span);
      if (in_cell) {
        cell_folds[span.cell].credit_barrier(span);
        const auto wait =
            static_cast<std::uint64_t>(std::max<std::int64_t>(span.dur_ns, 0));
        report.cells[span.cell].barrier_wait_hist[histogram::bucket(wait)] += 1;
      }
      continue;
    }
    run_fold.add(span, hw);
    if (in_cell && std::strcmp(span.name, "cell") == 0) {
      report.cells[span.cell].wall_ns += span.dur_ns;
    } else if (in_cell) {
      cell_folds[span.cell].add(span, hw);
    }
    if (std::strcmp(span.name, "pool_task") == 0) {
      busy[span.tid] += span.dur_ns;
      if (span.arg >= 0) {
        run.pool.tasks += 1;
        run.pool.queue_wait_total_ns += span.arg;
        run.pool.queue_wait_max_ns =
            std::max(run.pool.queue_wait_max_ns, span.arg);
      }
    }
  }
  run.window_ns = t_max - t_min;
  run.phases = run_fold.finish();
  for (const phase_profile& pp : run.phases) {
    run.barrier_wait_ns += pp.barrier_wait_ns;
  }
  run.pool.busy_ns.assign(busy.begin(), busy.end());

  for (cell_profile& cp : report.cells) {
    cp.phases = cell_folds[cp.cell].finish();
    std::int64_t phase_wall = 0;
    std::int32_t max_shard = 0;  // unsharded spans (shard -1) count as one
    for (const phase_profile& pp : cp.phases) {
      phase_wall += pp.wall_total_ns;
      cp.barrier_wait_ns += pp.barrier_wait_ns;
      max_shard = std::max(max_shard, pp.shards.back().shard);
      if (is_round_span(pp.phase.c_str())) {
        cp.rounds += pp.calls;
        cp.round_wall_ns += pp.wall_total_ns;
      }
    }
    // Share of aggregate shard-time spent waiting: the barriers accumulate
    // one wait per shard per phase, so the matching denominator is round
    // wall time multiplied by the shard count (falling back to summed phase
    // wall when no round spans exist, e.g. bare step() calls).
    const std::int64_t denom = cp.round_wall_ns > 0
                                   ? cp.round_wall_ns * (max_shard + 1)
                                   : phase_wall + cp.barrier_wait_ns;
    cp.barrier_wait_share =
        std::min(1.0, safe_div(static_cast<double>(cp.barrier_wait_ns),
                               static_cast<double>(denom)));
  }
  return report;
}

namespace {

/// Log2 buckets up to the last non-empty one: the buckets past it carry no
/// information.
void write_hist(std::ostream& os, const log2_hist& h) {
  std::size_t last = 0;
  for (std::size_t b = 0; b < h.size(); ++b) {
    if (h[b] > 0) last = b + 1;
  }
  os << '[';
  for (std::size_t b = 0; b < last; ++b) {
    if (b > 0) os << ',';
    os << h[b];
  }
  os << ']';
}

void write_phases(std::ostream& os, const std::vector<phase_profile>& phases) {
  os << "\"phases\": [";
  bool first_phase = true;
  for (const phase_profile& pp : phases) {
    os << (first_phase ? "\n" : ",\n");
    first_phase = false;
    os << "      {\"phase\": " << json_string(pp.phase)
       << ", \"shards\": " << pp.shards.size() << ", \"calls\": " << pp.calls
       << ", \"wall_total_ns\": " << pp.wall_total_ns
       << ", \"wall_mean_ns\": " << pp.wall_mean_ns
       << ", \"wall_slowest_ns\": " << pp.wall_slowest_ns
       << ", \"wall_p99_ns\": " << pp.wall_p99_ns
       << ", \"wall_longest_ns\": " << pp.wall_longest_ns
       << ", \"slowest_shard\": " << pp.slowest_shard << ", \"skew\": ";
    write_double(os, pp.skew);
    os << ", \"barrier_wait_ns\": " << pp.barrier_wait_ns;
    os << ",\n       \"per_shard\": [";
    bool first_shard = true;
    for (const shard_stat& st : pp.shards) {
      os << (first_shard ? "\n" : ",\n");
      first_shard = false;
      os << "        {\"shard\": " << st.shard << ", \"calls\": " << st.calls
         << ", \"wall_ns\": " << st.wall_ns
         << ", \"barrier_wait_ns\": " << st.barrier_wait_ns
         << ", \"hw_available\": " << (st.hw_available ? "true" : "false");
      for (std::size_t i = 0; i < num_hw; ++i) {
        os << ", \"" << kHwNames[i] << "\": " << st.hw[i];
      }
      os << ", \"ipc\": ";
      write_double(os, st.hw_available ? st.ipc() : 0.0);
      os << ", \"cache_miss_rate\": ";
      write_double(os, st.hw_available ? st.cache_miss_rate() : 0.0);
      os << "}";
    }
    os << (first_shard ? "]" : "\n       ]") << "}";
  }
  os << (first_phase ? "]" : "\n     ]");
}

}  // namespace

void write_profile_json(std::ostream& os, const profile_report& report) {
  os << "{\n";
  os << "  \"schema\": \"dlb-profile-v2\",\n";
  os << "  \"backend\": "
     << (report.hardware_available ? "\"perf_event\"" : "\"fallback\"")
     << ",\n";
  os << "  \"fallback_reason\": " << json_string(report.fallback_reason)
     << ",\n";
  const memory_profile& mem = report.memory;
  os << "  \"memory\": {\"max_rss_kb\": " << mem.max_rss_kb
     << ", \"vm_hwm_kb\": " << mem.vm_hwm_kb
     << ", \"vm_rss_kb\": " << mem.vm_rss_kb
     << ", \"recorder_threads\": " << mem.recorder.threads
     << ", \"recorder_spans\": " << mem.recorder.records
     << ", \"recorder_bytes\": " << mem.recorder.bytes
     << ", \"profiler_samples\": " << mem.profiler.records
     << ", \"profiler_bytes\": " << mem.profiler.bytes << "},\n";

  const run_profile& run = report.run;
  os << "  \"run\": {\"spans\": " << run.spans
     << ", \"window_ns\": " << run.window_ns
     << ", \"barrier_wait_ns\": " << run.barrier_wait_ns
     << ",\n     \"pool\": {\"tasks\": " << run.pool.tasks
     << ", \"queue_wait_total_ns\": " << run.pool.queue_wait_total_ns
     << ", \"queue_wait_max_ns\": " << run.pool.queue_wait_max_ns
     << ", \"busy\": [";
  bool first_tid = true;
  for (const auto& [tid, busy_ns] : run.pool.busy_ns) {
    if (!first_tid) os << ", ";
    first_tid = false;
    os << "{\"tid\": " << tid << ", \"busy_ns\": " << busy_ns << "}";
  }
  os << "]},\n     ";
  write_phases(os, run.phases);
  os << "},\n";

  os << "  \"cells\": [";
  bool first_cell = true;
  for (const cell_profile& cp : report.cells) {
    os << (first_cell ? "\n" : ",\n");
    first_cell = false;
    os << "    {\"cell\": " << cp.cell << ", \"grid_cell\": " << cp.index
       << ", \"grid\": " << json_string(cp.grid)
       << ", \"scenario\": " << json_string(cp.scenario)
       << ", \"process\": " << json_string(cp.process)
       << ",\n     \"finished\": " << (cp.finished ? "true" : "false")
       << ", \"wall_ns\": " << cp.wall_ns << ", \"rounds\": " << cp.rounds
       << ", \"round_wall_ns\": " << cp.round_wall_ns
       << ", \"barrier_wait_ns\": " << cp.barrier_wait_ns
       << ", \"barrier_wait_share\": ";
    write_double(os, cp.barrier_wait_share);
    os << ",\n     \"counters\": {";
    bool first_counter = true;
    for (const auto& [key, value] : cp.snapshot.counters) {
      if (!first_counter) os << ", ";
      first_counter = false;
      os << '"' << key << "\": " << value;
    }
    os << "},\n     \"barrier_wait_hist\": ";
    write_hist(os, cp.barrier_wait_hist);
    os << ", \"queue_depth_hist\": ";
    write_hist(os, cp.snapshot.queue_depth_hist);
    os << ",\n     ";
    write_phases(os, cp.phases);
    os << "}";
  }
  os << (first_cell ? "]" : "\n  ]") << "\n}\n";
}

namespace {

/// The whole run's views: the largest span names, per-phase shard balance,
/// the barrier total, and pool utilization with the enqueue→start wait.
void write_run_table(std::ostream& os, const run_profile& run) {
  if (run.spans == 0) {
    os << "run: no spans recorded\n";
    return;
  }
  const double window_ms = ms(run.window_ns);
  os << "run: " << run.spans << " spans over " << fixed(window_ms, 2)
     << " ms\n";

  constexpr std::size_t top_names = 12;
  std::vector<const phase_profile*> ranked;
  ranked.reserve(run.phases.size());
  for (const phase_profile& pp : run.phases) ranked.push_back(&pp);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const phase_profile* a, const phase_profile* b) {
                     return a->wall_total_ns > b->wall_total_ns;
                   });
  os << "top spans by total time:\n";
  os << "  " << std::left << std::setw(28) << "name" << std::right
     << std::setw(10) << "count" << std::setw(14) << "total ms"
     << std::setw(14) << "mean us" << std::setw(14) << "max us" << "\n";
  for (std::size_t i = 0; i < std::min(ranked.size(), top_names); ++i) {
    const phase_profile& pp = *ranked[i];
    os << "  " << std::left << std::setw(28) << pp.phase << std::right
       << std::setw(10) << pp.calls << std::setw(14)
       << fixed(ms(pp.wall_total_ns), 2) << std::setw(14)
       << fixed(safe_div(ms(pp.wall_total_ns) * 1e3,
                         static_cast<double>(pp.calls)),
                1)
       << std::setw(14) << fixed(ms(pp.wall_longest_ns) * 1e3, 1) << "\n";
  }

  bool balance_header = false;
  for (const phase_profile& pp : run.phases) {
    if (pp.shards.front().shard < 0) continue;  // not shard-scoped
    if (!balance_header) {
      os << "per-phase shard balance (totals across the run):\n";
      os << "  " << std::left << std::setw(28) << "phase" << std::right
         << std::setw(8) << "shards" << std::setw(14) << "mean/shard ms"
         << std::setw(14) << "slowest ms" << std::setw(8) << "skew" << "\n";
      balance_header = true;
    }
    os << "  " << std::left << std::setw(28) << pp.phase << std::right
       << std::setw(8) << pp.shards.size() << std::setw(14)
       << fixed(ms(pp.wall_mean_ns), 2) << std::setw(14)
       << fixed(ms(pp.wall_slowest_ns), 2) << std::setw(7)
       << fixed(pp.skew, 2) << "x\n";
  }

  if (run.barrier_wait_ns > 0) {
    os << "barrier waits: " << fixed(ms(run.barrier_wait_ns), 2)
       << " ms total\n";
  }

  const pool_profile& pool = run.pool;
  if (pool.busy_ns.empty()) return;
  // A run with per-cell shard pools registers hundreds of mostly idle tids:
  // name the busiest few and fold the rest into one aggregate.
  constexpr std::size_t top_tids = 8;
  std::vector<std::pair<std::uint32_t, std::int64_t>> busiest = pool.busy_ns;
  std::stable_sort(busiest.begin(), busiest.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  os << "pool tasks: utilization over the " << fixed(window_ms, 2)
     << " ms window (" << busiest.size() << " worker threads):";
  const std::size_t shown = std::min(busiest.size(), top_tids);
  for (std::size_t i = 0; i < shown; ++i) {
    os << " t" << busiest[i].first << "="
       << fixed(100.0 * safe_div(ms(busiest[i].second), window_ms), 0) << "%";
  }
  if (busiest.size() > shown) {
    std::int64_t rest = 0;
    for (std::size_t i = shown; i < busiest.size(); ++i) {
      rest += busiest[i].second;
    }
    os << " +" << busiest.size() - shown << " more totalling "
       << fixed(ms(rest), 2) << " ms";
  }
  os << "\n";
  if (pool.tasks > 0) {
    os << "  enqueue->start wait: mean "
       << fixed(safe_div(ms(pool.queue_wait_total_ns) * 1e3,
                         static_cast<double>(pool.tasks)),
                1)
       << " us, max "
       << fixed(ms(pool.queue_wait_max_ns) * 1e3, 1) << " us over "
       << pool.tasks << " tasks\n";
  }
}

}  // namespace

void write_profile_table(std::ostream& os, const profile_report& report) {
  os << "profile: backend="
     << (report.hardware_available ? "perf_event" : "fallback");
  if (!report.hardware_available) {
    os << " (" << report.fallback_reason << ")";
  }
  os << "\n";
  const memory_profile& mem = report.memory;
  os << "memory: max_rss=" << mem.max_rss_kb << "kB vm_hwm=" << mem.vm_hwm_kb
     << "kB recorder=" << mem.recorder.records << " spans/"
     << mem.recorder.bytes / 1024 << "kB counters=" << mem.profiler.records
     << " payloads/" << mem.profiler.bytes / 1024 << "kB\n";
  for (const cell_profile& cp : report.cells) {
    char share[32];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  cp.barrier_wait_share * 100.0);
    os << "cell " << cp.cell << " " << cp.grid << " [" << cp.process << " @ "
       << cp.scenario << "]: wall=" << format_ms(cp.wall_ns)
       << " rounds=" << cp.rounds
       << " round_wall=" << format_ms(cp.round_wall_ns)
       << " barrier_share=" << share << "\n";
    os << "  " << std::left << std::setw(20) << "phase" << std::right
       << std::setw(7) << "shards" << std::setw(11) << "total" << std::setw(11)
       << "mean" << std::setw(14) << "slowest" << std::setw(11) << "p99"
       << std::setw(7) << "skew" << std::setw(11) << "barrier" << std::setw(7)
       << "IPC" << std::setw(8) << "miss%" << "\n";
    for (const phase_profile& pp : cp.phases) {
      // Cell-wide IPC / miss-rate from the summed per-shard counters; a
      // single unavailable shard poisons the aggregate so it prints "-".
      bool hw_ok = !pp.shards.empty();
      std::uint64_t instr = 0;
      std::uint64_t cycles = 0;
      std::uint64_t refs = 0;
      std::uint64_t misses = 0;
      for (const shard_stat& st : pp.shards) {
        hw_ok = hw_ok && st.hw_available;
        instr += st.hw[static_cast<std::size_t>(hw::instructions)];
        cycles += st.hw[static_cast<std::size_t>(hw::cycles)];
        refs += st.hw[static_cast<std::size_t>(hw::cache_references)];
        misses += st.hw[static_cast<std::size_t>(hw::cache_misses)];
      }
      std::string slowest = format_ms(pp.wall_slowest_ns);
      slowest += " (#" + std::to_string(pp.slowest_shard) + ")";
      os << "  " << std::left << std::setw(20) << pp.phase << std::right
         << std::setw(7) << pp.shards.size() << std::setw(11)
         << format_ms(pp.wall_total_ns) << std::setw(11)
         << format_ms(pp.wall_mean_ns) << std::setw(14) << slowest
         << std::setw(11) << format_ms(pp.wall_p99_ns) << std::setw(7)
         << fixed(pp.skew, 2) << std::setw(11)
         << format_ms(pp.barrier_wait_ns);
      if (hw_ok) {
        os << std::setw(7)
           << fixed(safe_div(static_cast<double>(instr),
                             static_cast<double>(cycles)),
                    2)
           << std::setw(8)
           << fixed(safe_div(static_cast<double>(misses),
                             static_cast<double>(refs)) *
                        100.0,
                    1);
      } else {
        os << std::setw(7) << "-" << std::setw(8) << "-";
      }
      os << "\n";
    }
  }
  write_run_table(os, report.run);
}

}  // namespace dlb::obs::prof
