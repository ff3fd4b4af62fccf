#include "dlb/analysis/args.hpp"

#include <cctype>
#include <cstddef>
#include <stdexcept>

#include "dlb/common/contracts.hpp"

namespace dlb::analysis {

namespace {

bool is_dashed_key(const std::string& token) {
  // "-x" / "--key", but not a bare "-"/"--" and not a negative number
  // ("-5", "-.5"). Dash-led *string* values need the "--key=-value" form.
  if (token.size() < 2 || token[0] != '-') return false;
  const std::size_t body = token.find_first_not_of('-');
  if (body == std::string::npos) return false;
  const auto c = static_cast<unsigned char>(token[body]);
  if (std::isdigit(c)) return false;
  if (token[body] == '.' && body + 1 < token.size() &&
      std::isdigit(static_cast<unsigned char>(token[body + 1])))
    return false;
  return true;
}

}  // namespace

std::int64_t parse_int(const std::string& key, const std::string& text,
                       std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(text, &pos);
    DLB_EXPECTS(pos == text.size());
  } catch (const std::logic_error&) {
    throw contract_violation("argument '" + key +
                             "' is not an integer: " + text);
  }
  if (v < lo || v > hi) {
    throw contract_violation("argument '" + key + "' is " + text +
                             ", outside [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
  }
  return v;
}

arg_map::arg_map(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

arg_map::arg_map(const std::vector<std::string>& tokens) { parse(tokens); }

void arg_map::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    std::string body = token;
    bool dashed = false;
    if (is_dashed_key(token)) {
      dashed = true;
      body = token.substr(token.find_first_not_of('-'));
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      insert_pair(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // A dashed key without '=' consumes the next token as its value unless
    // that token is itself a key — dashed ("--list --grid ...") or
    // key=value ("--table master-seed=9" must not eat the seed setting).
    if (dashed && i + 1 < tokens.size() && !is_dashed_key(tokens[i + 1]) &&
        tokens[i + 1].find('=') == std::string::npos) {
      insert_pair(body, tokens[i + 1]);
      ++i;
      continue;
    }
    insert_pair(body, "true");
  }
}

void arg_map::insert_pair(std::string key, std::string value) {
  DLB_EXPECTS(!key.empty());
  DLB_EXPECTS(values_.find(key) == values_.end());
  values_.emplace(std::move(key), std::move(value));
}

bool arg_map::has(const std::string& key) const {
  const bool present = values_.find(key) != values_.end();
  if (present) consumed_[key] = true;
  return present;
}

std::string arg_map::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  consumed_[key] = true;
  return it == values_.end() ? fallback : it->second;
}

std::int64_t arg_map::get_int(const std::string& key, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const {
  const auto it = values_.find(key);
  consumed_[key] = true;
  if (it == values_.end()) return fallback;
  return parse_int(key, it->second, lo, hi);
}

double arg_map::get_real(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  consumed_[key] = true;
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    DLB_EXPECTS(pos == it->second.size());
    return v;
  } catch (const std::logic_error&) {
    throw contract_violation("argument '" + key + "' is not a number: " +
                             it->second);
  }
}

std::vector<std::string> arg_map::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    const auto it = consumed_.find(key);
    if (it == consumed_.end() || !it->second) out.push_back(key);
  }
  return out;
}

}  // namespace dlb::analysis
