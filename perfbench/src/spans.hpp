// The benchmark's own instruments: an in-memory span log, order statistics,
// and the result digest. Everything here lives outside the library — spans
// are recorded around calls *into* dlb's public functions, never inside them.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded call: name, [start, end) on the steady clock, and the index
/// of the enclosing span (-1 for a root).
struct span_record {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Spans of one traced run, kept in memory until the run ends. Spans are
/// opened and closed on the benchmark's main thread only, so nesting is a
/// plain stack.
class span_log {
 public:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<span_record>& spans() const {
    return spans_;
  }

  /// Total duration (ms) of every span with exactly this name.
  [[nodiscard]] double total_ms(const std::string& name) const {
    double ms = 0;
    for (const span_record& s : spans_) {
      if (s.name == name) {
        ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    return ms;
  }

  /// Share of span `idx`'s duration covered by its direct children.
  [[nodiscard]] double child_coverage(int idx) const {
    const span_record& p = spans_[static_cast<std::size_t>(idx)];
    std::int64_t covered = 0;
    for (const span_record& s : spans_) {
      if (s.parent == idx) covered += s.end_ns - s.start_ns;
    }
    const std::int64_t total = p.end_ns - p.start_ns;
    return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                     : 1.0;
  }

  /// Self time (ms) per layer: each span's duration minus its direct
  /// children's, summed by the layer its name starts with.
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const span_record& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span_record& s = spans_[i];
      out[layer_of(s.name)] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// The library layer a span name belongs to: its first dotted component,
  /// with `sharding` and `core` spelled as the library modules they time.
  [[nodiscard]] static std::string layer_of(const std::string& name) {
    const std::string head = name.substr(0, name.find('.'));
    if (head == "sharding") return "core.sharding";
    if (head == "core") return "core.step";
    return head;
  }

 private:
  std::vector<span_record> spans_;
  std::vector<int> stack_;
};

/// The active log, or nullptr outside traced passes (spans are then free).
inline span_log*& active_log() {
  static span_log* log = nullptr;
  return log;
}

/// RAII span on the active log; a no-op when none is installed.
class scoped_span {
 public:
  explicit scoped_span(const char* name)
      : log_(active_log()), idx_(log_ != nullptr ? log_->open(name) : -1) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(idx_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  int idx_;
};

/// Linear interpolation into a sorted, non-empty sample at quantile q
/// (clamped to [0, 1]).
inline double sorted_quantile(const std::vector<double>& v, double q) {
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Smoothed quantile: the mean of the interpolated quantile function over
/// [q - h, q + h]. A single order statistic jumps when q sits between two
/// clusters of samples — and per-round times are a mixture of a dozen such
/// clusters (cells × warm-up/sampled halves) — while this mean moves only
/// with the clusters' own values.
inline double smooth_quantile(std::vector<double> v, double q,
                              double h = 0.05) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  constexpr int steps = 200;
  double sum = 0;
  for (int i = 0; i <= steps; ++i) {
    sum += sorted_quantile(v, q - h + 2 * h * static_cast<double>(i) / steps);
  }
  return sum / (steps + 1);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// FNV-1a over 64-bit words: the per-cell result digest. Doubles enter by
/// bit pattern, so a digest match means bit-identical results.
class digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1U : 0U}); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char ch : s) {
      add(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const T& x : xs) add(x);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
