// Minimal `key=value` command-line argument parser for the example binaries
// and one-off experiment drivers. Not a general-purpose CLI library — just
// enough to make simulations scriptable.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dlb/common/types.hpp"

namespace dlb::analysis {

/// get_int's parser, for values that arrive inside a list: `text` as an
/// integer in [lo, hi], else one contract_violation naming `key`.
[[nodiscard]] std::int64_t parse_int(const std::string& key,
                                     const std::string& text, std::int64_t lo,
                                     std::int64_t hi);

class arg_map {
 public:
  /// Parses `key=value` tokens; bare tokens become flags with value "true".
  /// Dashed tokens are also accepted (`--key=value`, `--key value`, and
  /// `--flag`); leading dashes are stripped from the stored key, so
  /// `--master-seed 7` and `master-seed=7` are interchangeable. A dashed key
  /// consumes the following token as its value unless that token is itself
  /// a key — dash-led or `key=value` shaped. Negative numbers like `-5` or
  /// `-.5` still count as values; values that are dash-led or contain `=`
  /// need the `--key=value` spelling. Throws contract_violation on
  /// duplicate keys (naming the key: a repeated flag is an error, never
  /// last-wins) or empty keys.
  arg_map(int argc, const char* const* argv);

  /// Builds from pre-split tokens (testing convenience).
  explicit arg_map(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value lookups with defaults; numeric getters throw on non-numeric text.
  /// get_int also throws on a value outside [lo, hi]: pass the range of the
  /// type the caller narrows to, so a count that would wrap fails instead of
  /// silently running a different experiment. get_real also throws on
  /// `inf`/`nan`, which no real-valued setting accepts.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// get() for a setting that names a file: a bare flag (`--trace` with no
  /// value) throws instead of yielding a file called "true".
  [[nodiscard]] std::string get_path(const std::string& key,
                                     const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double get_real(const std::string& key,
                                double fallback) const;

  /// Keys the caller never consumed — used to reject typos.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  void parse(const std::vector<std::string>& tokens);
  void insert_pair(std::string key, std::string value);

  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  ///< keys given as flags, without a value
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace dlb::analysis
