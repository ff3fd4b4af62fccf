#include "dlb/runtime/result_sink.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <system_error>

#include "dlb/common/contracts.hpp"

namespace dlb::runtime {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Shortest representation that round-trips exactly (std::to_chars default).
void append_real(std::string& out, real_t v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  DLB_ASSERT(res.ec == std::errc());
  out.append(buf, res.ptr);
}

template <typename Int>
void append_int(std::string& out, Int v) {
  out += std::to_string(v);
}

// --- minimal parser for the flat objects to_json emits -----------------

struct cursor {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const {
    DLB_EXPECTS(!done());
    return text[pos];
  }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t' ||
                       text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }
  void expect(char c) {
    skip_ws();
    DLB_EXPECTS(!done() && text[pos] == c);
    ++pos;
  }
  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (done() || text[pos] != c) return false;
    ++pos;
    return true;
  }
};

std::string parse_string(cursor& c) {
  c.expect('"');
  std::string out;
  for (;;) {
    DLB_EXPECTS(!c.done());
    const char ch = c.text[c.pos++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    DLB_EXPECTS(!c.done());
    const char esc = c.text[c.pos++];
    switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        DLB_EXPECTS(c.pos + 4 <= c.text.size());
        unsigned code = 0;
        const auto res = std::from_chars(c.text.data() + c.pos,
                                         c.text.data() + c.pos + 4, code, 16);
        DLB_EXPECTS(res.ec == std::errc());
        c.pos += 4;
        DLB_EXPECTS(code < 0x80);  // to_json only escapes control chars
        out += static_cast<char>(code);
        break;
      }
      default:
        throw contract_violation("unsupported JSON escape");
    }
  }
}

std::string_view parse_scalar_token(cursor& c) {
  c.skip_ws();
  const std::size_t start = c.pos;
  while (!c.done()) {
    const char ch = c.text[c.pos];
    if (ch == ',' || ch == '}' || ch == ']' || ch == ' ' || ch == '\n' ||
        ch == '\r' || ch == '\t')
      break;
    ++c.pos;
  }
  DLB_EXPECTS(c.pos > start);
  return c.text.substr(start, c.pos - start);
}

real_t to_real(std::string_view tok) {
  real_t v = 0;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  DLB_EXPECTS(res.ec == std::errc() && res.ptr == tok.data() + tok.size());
  return v;
}

template <typename Int>
Int to_int(std::string_view tok) {
  Int v = 0;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  DLB_EXPECTS(res.ec == std::errc() && res.ptr == tok.data() + tok.size());
  return v;
}

std::vector<extra_metric> parse_extras(cursor& c) {
  std::vector<extra_metric> extras;
  c.expect('{');
  if (c.consume('}')) return extras;
  for (;;) {
    const std::string key = parse_string(c);
    c.expect(':');
    extras.push_back({key, to_real(parse_scalar_token(c))});
    if (c.consume('}')) return extras;
    c.expect(',');
  }
}

result_row parse_object(cursor& c) {
  result_row row;
  c.expect('{');
  if (c.consume('}')) return row;
  for (;;) {
    const std::string key = parse_string(c);
    c.expect(':');
    c.skip_ws();
    if (key == "extra") {
      row.extra = parse_extras(c);
    } else if (!c.done() && c.peek() == '"') {
      const std::string value = parse_string(c);
      if (key == "grid") row.grid = value;
      else if (key == "scenario") row.scenario = value;
      else if (key == "process") row.process = value;
      else if (key == "model") row.model = value;
    } else {
      const std::string_view tok = parse_scalar_token(c);
      if (key == "cell") row.cell = to_int<std::uint64_t>(tok);
      else if (key == "n") row.n = to_int<std::int64_t>(tok);
      else if (key == "seed") row.seed = to_int<std::uint64_t>(tok);
      else if (key == "rounds") row.rounds = to_int<round_t>(tok);
      else if (key == "converged") row.converged = tok == "true";
      else if (key == "final_max_min") row.final_max_min = to_real(tok);
      else if (key == "final_max_avg") row.final_max_avg = to_real(tok);
      else if (key == "mean_max_min") row.mean_max_min = to_real(tok);
      else if (key == "peak_max_min") row.peak_max_min = to_real(tok);
      else if (key == "dummy_created") row.dummy_created = to_int<weight_t>(tok);
      else if (key == "wall_ns") row.wall_ns = to_int<std::int64_t>(tok);
    }
    if (c.consume('}')) return row;
    c.expect(',');
  }
}

}  // namespace

real_t result_row::extra_value(std::string_view key, real_t fallback) const {
  for (const extra_metric& m : extra) {
    if (m.key == key) return m.value;
  }
  return fallback;
}

std::string to_json(const result_row& row, timing t) {
  std::string out;
  out.reserve(256);
  out += "{\"cell\":";
  append_int(out, row.cell);
  out += ",\"grid\":";
  append_escaped(out, row.grid);
  out += ",\"scenario\":";
  append_escaped(out, row.scenario);
  out += ",\"process\":";
  append_escaped(out, row.process);
  out += ",\"model\":";
  append_escaped(out, row.model);
  out += ",\"n\":";
  append_int(out, row.n);
  out += ",\"seed\":";
  append_int(out, row.seed);
  out += ",\"rounds\":";
  append_int(out, row.rounds);
  out += ",\"converged\":";
  out += row.converged ? "true" : "false";
  out += ",\"final_max_min\":";
  append_real(out, row.final_max_min);
  out += ",\"final_max_avg\":";
  append_real(out, row.final_max_avg);
  out += ",\"mean_max_min\":";
  append_real(out, row.mean_max_min);
  out += ",\"peak_max_min\":";
  append_real(out, row.peak_max_min);
  out += ",\"dummy_created\":";
  append_int(out, row.dummy_created);
  if (!row.extra.empty()) {
    out += ",\"extra\":{";
    for (std::size_t i = 0; i < row.extra.size(); ++i) {
      if (i > 0) out += ',';
      append_escaped(out, row.extra[i].key);
      out += ':';
      append_real(out, row.extra[i].value);
    }
    out += '}';
  }
  out += ",\"wall_ns\":";
  append_int(out, t == timing::include ? row.wall_ns : 0);
  out += '}';
  return out;
}

result_row parse_row(std::string_view json) {
  cursor c{json};
  const result_row row = parse_object(c);
  c.skip_ws();
  DLB_EXPECTS(c.done());
  return row;
}

std::vector<result_row> parse_json(std::string_view json) {
  cursor c{json};
  std::vector<result_row> rows;
  c.expect('[');
  if (c.consume(']')) return rows;
  for (;;) {
    rows.push_back(parse_object(c));
    if (c.consume(']')) return rows;
    c.expect(',');
  }
}

std::vector<analysis::pivot_cell> discrepancy_cells(
    const std::vector<result_row>& rows) {
  return metric_cells(rows, "final_max_min");
}

std::vector<analysis::pivot_cell> metric_cells(
    const std::vector<result_row>& rows, std::string_view metric) {
  const auto fixed = [&](const result_row& r) -> real_t {
    if (metric == "rounds") return static_cast<real_t>(r.rounds);
    if (metric == "final_max_min") return r.final_max_min;
    if (metric == "final_max_avg") return r.final_max_avg;
    if (metric == "mean_max_min") return r.mean_max_min;
    if (metric == "peak_max_min") return r.peak_max_min;
    if (metric == "dummy_created") return static_cast<real_t>(r.dummy_created);
    if (metric == "wall_ns") return static_cast<real_t>(r.wall_ns);
    return r.extra_value(metric, std::numeric_limits<real_t>::quiet_NaN());
  };
  std::vector<analysis::pivot_cell> cells;
  cells.reserve(rows.size());
  for (const result_row& row : rows) {
    const real_t v = fixed(row);
    if (!std::isnan(v)) cells.push_back({row.process, row.scenario, v});
  }
  return cells;
}

std::vector<analysis::pivot_cell> extras_cells(
    const std::vector<result_row>& rows) {
  std::vector<analysis::pivot_cell> cells;
  for (const result_row& row : rows) {
    const std::string label = row.process + " @ " + row.scenario;
    for (const extra_metric& m : row.extra) {
      cells.push_back({label, m.key, m.value});
    }
  }
  return cells;
}

// ----------------------------------------------------------- CSV backend

namespace {

constexpr std::string_view csv_header =
    "cell,grid,scenario,process,model,n,seed,rounds,converged,final_max_min,"
    "final_max_avg,mean_max_min,peak_max_min,dummy_created,extra,wall_ns";

/// RFC-4180 quoting: a field is quoted iff it contains a comma, quote, or
/// line break; embedded quotes are doubled.
void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string csv_extra_field(const std::vector<extra_metric>& extra) {
  std::string out;
  for (std::size_t i = 0; i < extra.size(); ++i) {
    DLB_EXPECTS(extra[i].key.find(';') == std::string::npos);
    if (i > 0) out += ';';
    out += extra[i].key;
    out += '=';
    append_real(out, extra[i].value);
  }
  return out;
}

/// Splits one CSV record into fields starting at `pos`; advances `pos` past
/// the record's line terminator. Quoted fields may contain any byte,
/// including line breaks.
std::vector<std::string> next_csv_record(std::string_view text,
                                         std::size_t& pos) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  while (pos < text.size()) {
    const char c = text[pos];
    if (quoted) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          fields.back() += '"';
          ++pos;
        } else {
          quoted = false;
        }
      } else {
        fields.back() += c;
      }
      ++pos;
      continue;
    }
    if (c == '"' && fields.back().empty()) {
      quoted = true;
      ++pos;
    } else if (c == ',') {
      fields.emplace_back();
      ++pos;
    } else if (c == '\n' || c == '\r') {
      while (pos < text.size() && (text[pos] == '\n' || text[pos] == '\r')) {
        ++pos;
      }
      return fields;
    } else {
      fields.back() += c;
      ++pos;
    }
  }
  DLB_EXPECTS(!quoted);  // unterminated quoted field
  return fields;
}

std::string csv_line(const result_row& row, timing t) {
  std::string line;
  append_int(line, row.cell);
  line += ',';
  append_csv_field(line, row.grid);
  line += ',';
  append_csv_field(line, row.scenario);
  line += ',';
  append_csv_field(line, row.process);
  line += ',';
  append_csv_field(line, row.model);
  line += ',';
  append_int(line, row.n);
  line += ',';
  append_int(line, row.seed);
  line += ',';
  append_int(line, row.rounds);
  line += ',';
  line += row.converged ? "true" : "false";
  line += ',';
  append_real(line, row.final_max_min);
  line += ',';
  append_real(line, row.final_max_avg);
  line += ',';
  append_real(line, row.mean_max_min);
  line += ',';
  append_real(line, row.peak_max_min);
  line += ',';
  append_int(line, row.dummy_created);
  line += ',';
  append_csv_field(line, csv_extra_field(row.extra));
  line += ',';
  append_int(line, t == timing::include ? row.wall_ns : 0);
  return line;
}

std::vector<extra_metric> parse_csv_extras(std::string_view field) {
  std::vector<extra_metric> extras;
  std::size_t start = 0;
  while (start < field.size()) {
    std::size_t end = field.find(';', start);
    if (end == std::string_view::npos) end = field.size();
    const std::string_view pair = field.substr(start, end - start);
    // Keys may contain '=' (the convergence checkpoints "t/T=0.1"); the
    // value is a bare real, so the split point is the *last* '='.
    const std::size_t eq = pair.rfind('=');
    DLB_EXPECTS(eq != std::string_view::npos && eq > 0);
    extras.push_back(
        {std::string(pair.substr(0, eq)), to_real(pair.substr(eq + 1))});
    start = end + 1;
  }
  return extras;
}

}  // namespace

sink_format parse_format(const std::string& name) {
  if (name == "json") return sink_format::json;
  if (name == "csv") return sink_format::csv;
  throw contract_violation("unknown result format: " + name +
                           " (expected json or csv)");
}

std::vector<result_row> parse_csv(std::string_view text) {
  std::size_t pos = 0;
  const std::vector<std::string> header = next_csv_record(text, pos);
  std::string joined;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) joined += ',';
    joined += header[i];
  }
  DLB_EXPECTS(joined == csv_header);
  std::vector<result_row> rows;
  while (pos < text.size()) {
    const std::vector<std::string> f = next_csv_record(text, pos);
    if (f.size() == 1 && f[0].empty()) continue;  // trailing blank line
    DLB_EXPECTS(f.size() == 16);
    result_row row;
    row.cell = to_int<std::uint64_t>(f[0]);
    row.grid = f[1];
    row.scenario = f[2];
    row.process = f[3];
    row.model = f[4];
    row.n = to_int<std::int64_t>(f[5]);
    row.seed = to_int<std::uint64_t>(f[6]);
    row.rounds = to_int<round_t>(f[7]);
    row.converged = f[8] == "true";
    row.final_max_min = to_real(f[9]);
    row.final_max_avg = to_real(f[10]);
    row.mean_max_min = to_real(f[11]);
    row.peak_max_min = to_real(f[12]);
    row.dummy_created = to_int<weight_t>(f[13]);
    row.extra = parse_csv_extras(f[14]);
    row.wall_ns = to_int<std::int64_t>(f[15]);
    rows.push_back(std::move(row));
  }
  return rows;
}

// ------------------------------------------------------------ row framing

row_writer::row_writer(std::ostream& os, sink_format f, timing t)
    : os_(os), format_(f), timing_(t) {}

void row_writer::begin() {
  DLB_EXPECTS(!open_ && rows_ == 0);
  open_ = true;
  if (format_ == sink_format::csv) {
    os_ << csv_header << '\n';
  } else {
    os_ << "[\n";
  }
}

void row_writer::row(const result_row& r) {
  DLB_EXPECTS(open_);
  if (format_ == sink_format::csv) {
    os_ << csv_line(r, timing_) << '\n';
  } else {
    // Comma *before* each subsequent row: the total count need not be known
    // while the grid is still running.
    if (rows_ > 0) os_ << ",\n";
    os_ << "  " << to_json(r, timing_);
  }
  ++rows_;
}

void row_writer::end() {
  DLB_EXPECTS(open_);
  open_ = false;
  if (format_ == sink_format::csv) return;
  if (rows_ > 0) os_ << '\n';
  os_ << "]\n";
}

void write_rows(std::ostream& os, const std::vector<result_row>& rows,
                sink_format f, timing t) {
  row_writer writer(os, f, t);
  writer.begin();
  for (const result_row& row : rows) writer.row(row);
  writer.end();
}

}  // namespace dlb::runtime
