#include "dlb/obs/prof.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

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

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string format_ms(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

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
// Post-run skew analysis
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

std::int64_t nearest_rank_p99(std::vector<std::int64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace

profile_report analyze_profile(const recorder& rec) {
  profile_report report;
  if (const profiler* source = rec.counter_source(); source != nullptr) {
    report.hardware_available = source->hardware_available();
    report.fallback_reason = source->fallback_reason();
  }
  report.memory = sample_memory(&rec);

  struct cell_accum {
    std::uint64_t rounds = 0;
    std::int64_t round_wall_ns = 0;
    std::int64_t barrier_wait_ns = 0;
    std::int32_t max_shard = -1;
    // (phase name, shard) -> totals. std::map keeps phases name-sorted and
    // shards id-sorted, which is what makes the sidecar order deterministic.
    std::map<std::string, std::map<std::int32_t, shard_stat>> phases;
  };
  std::map<std::uint64_t, cell_accum> accums;

  for (const span_record& span : rec.events()) {
    // Spans outside any cell (pool warmup etc.) are not attributable.
    if (span.cell == no_cell || span.name == nullptr) continue;
    cell_accum& acc = accums[span.cell];
    if (const hw_counts* hw = rec.payload(span); hw != nullptr) {
      shard_stat& st = acc.phases[span.name][span.shard];
      if (st.calls == 0) {
        st.shard = span.shard;
        st.hw_available = hw->available;
      }
      st.calls += 1;
      st.wall_ns += span.dur_ns;
      st.hw_available = st.hw_available && hw->available;
      for (std::size_t i = 0; i < num_hw; ++i) st.hw[i] += hw->value[i];
      acc.max_shard = std::max(acc.max_shard, span.shard);
    }
    if (is_round_span(span.name)) {
      acc.rounds += 1;
      acc.round_wall_ns += span.dur_ns;
    } else if (std::strncmp(span.name, "barrier:", 8) == 0) {
      acc.barrier_wait_ns += span.dur_ns;
      // Credit the wait to the phase it guards so per-shard barrier columns
      // line up with the matching phase spans.
      shard_stat& st = acc.phases[span.name + 8][span.shard];
      if (st.calls == 0) st.shard = span.shard;
      st.barrier_wait_ns += span.dur_ns;
      acc.max_shard = std::max(acc.max_shard, span.shard);
    }
  }

  for (const cell_record& cell : rec.cells()) {
    const auto it = accums.find(cell.id);
    if (it == accums.end()) continue;  // cell ran without profiling attached
    const cell_accum& acc = it->second;

    cell_profile cp;
    cp.cell = cell.id;
    cp.grid = cell.grid;
    cp.scenario = cell.scenario;
    cp.process = cell.process;
    cp.rounds = acc.rounds;
    cp.round_wall_ns = acc.round_wall_ns;
    cp.barrier_wait_ns = acc.barrier_wait_ns;

    std::int64_t all_phase_wall = 0;
    for (const auto& [name, shards] : acc.phases) {
      phase_profile pp;
      pp.phase = name;
      std::vector<std::int64_t> walls;
      for (const auto& [shard, st] : shards) {
        pp.shards.push_back(st);
        pp.calls += st.calls;
        pp.wall_total_ns += st.wall_ns;
        pp.barrier_wait_ns += st.barrier_wait_ns;
        walls.push_back(st.wall_ns);
        if (st.wall_ns > pp.wall_slowest_ns) {
          pp.wall_slowest_ns = st.wall_ns;
          pp.slowest_shard = st.shard;
        }
      }
      if (!pp.shards.empty()) {
        pp.wall_mean_ns =
            pp.wall_total_ns / static_cast<std::int64_t>(pp.shards.size());
      }
      pp.wall_p99_ns = nearest_rank_p99(std::move(walls));
      pp.skew = safe_div(static_cast<double>(pp.wall_slowest_ns),
                         static_cast<double>(pp.wall_mean_ns));
      all_phase_wall += pp.wall_total_ns;
      cp.phases.push_back(std::move(pp));
    }

    // Share of aggregate shard-time spent waiting: the barriers accumulate
    // one wait per shard per phase, so the matching denominator is round
    // wall time multiplied by the shard count (falling back to summed phase
    // wall when no round spans exist, e.g. bare step() calls).
    const std::int64_t shard_count =
        acc.max_shard >= 0 ? acc.max_shard + 1 : 1;
    const std::int64_t denom = acc.round_wall_ns > 0
                                   ? acc.round_wall_ns * shard_count
                                   : all_phase_wall + acc.barrier_wait_ns;
    cp.barrier_wait_share =
        std::min(1.0, safe_div(static_cast<double>(acc.barrier_wait_ns),
                               static_cast<double>(denom)));
    report.cells.push_back(std::move(cp));
  }
  return report;
}

void write_profile_json(std::ostream& os, const profile_report& report) {
  os << "{\n";
  os << "  \"schema\": \"dlb-profile-v1\",\n";
  os << "  \"backend\": "
     << (report.hardware_available ? "\"perf_event\"" : "\"fallback\"")
     << ",\n";
  os << "  \"fallback_reason\": ";
  write_json_string(os, report.fallback_reason);
  os << ",\n";
  const memory_profile& mem = report.memory;
  os << "  \"memory\": {\"max_rss_kb\": " << mem.max_rss_kb
     << ", \"vm_hwm_kb\": " << mem.vm_hwm_kb
     << ", \"vm_rss_kb\": " << mem.vm_rss_kb
     << ", \"recorder_threads\": " << mem.recorder.threads
     << ", \"recorder_spans\": " << mem.recorder.records
     << ", \"recorder_bytes\": " << mem.recorder.bytes
     << ", \"profiler_samples\": " << mem.profiler.records
     << ", \"profiler_bytes\": " << mem.profiler.bytes << "},\n";
  os << "  \"cells\": [";
  bool first_cell = true;
  for (const cell_profile& cp : report.cells) {
    os << (first_cell ? "\n" : ",\n");
    first_cell = false;
    os << "    {\"cell\": " << cp.cell << ", \"grid\": ";
    write_json_string(os, cp.grid);
    os << ", \"scenario\": ";
    write_json_string(os, cp.scenario);
    os << ", \"process\": ";
    write_json_string(os, cp.process);
    os << ",\n     \"rounds\": " << cp.rounds
       << ", \"round_wall_ns\": " << cp.round_wall_ns
       << ", \"barrier_wait_ns\": " << cp.barrier_wait_ns
       << ", \"barrier_wait_share\": ";
    write_double(os, cp.barrier_wait_share);
    os << ",\n     \"phases\": [";
    bool first_phase = true;
    for (const phase_profile& pp : cp.phases) {
      os << (first_phase ? "\n" : ",\n");
      first_phase = false;
      os << "      {\"phase\": ";
      write_json_string(os, pp.phase);
      os << ", \"shards\": " << pp.shards.size()
         << ", \"calls\": " << pp.calls
         << ", \"wall_total_ns\": " << pp.wall_total_ns
         << ", \"wall_mean_ns\": " << pp.wall_mean_ns
         << ", \"wall_slowest_ns\": " << pp.wall_slowest_ns
         << ", \"wall_p99_ns\": " << pp.wall_p99_ns
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
    os << (first_phase ? "]" : "\n     ]") << "}";
  }
  os << (first_cell ? "]" : "\n  ]") << "\n}\n";
}

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
       << cp.scenario << "]: rounds=" << cp.rounds
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
      char skew[16];
      std::snprintf(skew, sizeof(skew), "%.2f", pp.skew);
      std::string slowest = format_ms(pp.wall_slowest_ns);
      slowest += " (#" + std::to_string(pp.slowest_shard) + ")";
      os << "  " << std::left << std::setw(20) << pp.phase << std::right
         << std::setw(7) << pp.shards.size() << std::setw(11)
         << format_ms(pp.wall_total_ns) << std::setw(11)
         << format_ms(pp.wall_mean_ns) << std::setw(14) << slowest
         << std::setw(11) << format_ms(pp.wall_p99_ns) << std::setw(7) << skew
         << std::setw(11) << format_ms(pp.barrier_wait_ns);
      if (hw_ok) {
        char ipc[16];
        std::snprintf(ipc, sizeof(ipc), "%.2f",
                      safe_div(static_cast<double>(instr),
                               static_cast<double>(cycles)));
        char miss[16];
        std::snprintf(miss, sizeof(miss), "%.1f",
                      safe_div(static_cast<double>(misses),
                               static_cast<double>(refs)) *
                          100.0);
        os << std::setw(7) << ipc << std::setw(8) << miss;
      } else {
        os << std::setw(7) << "-" << std::setw(8) << "-";
      }
      os << "\n";
    }
  }
}

}  // namespace dlb::obs::prof
