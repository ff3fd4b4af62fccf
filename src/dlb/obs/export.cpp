#include "dlb/obs/export.hpp"

#include <cstring>
#include <iomanip>
#include <ostream>

#include "dlb/common/json.hpp"

namespace dlb::obs {

namespace {

/// Microseconds with sub-ns timestamps preserved (trace-event ts/dur unit).
void write_us(std::ostream& os, std::int64_t ns) {
  os << ns / 1000 << '.' << std::setw(3) << std::setfill('0') << ns % 1000
     << std::setfill(' ');
}

/// The span's payload key: phases carry entity counts, pool tasks carry the
/// enqueue→start latency.
const char* arg_key(const span_record& span) {
  return std::strcmp(span.name, "pool_task") == 0 ? "queue_wait_ns" : "items";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const recorder& rec) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const span_record& span : rec.events()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
       << ",\"name\":" << json_string(span.name) << ",\"cat\":\"dlb\",\"ts\":";
    write_us(os, span.ts_ns);
    os << ",\"dur\":";
    write_us(os, span.dur_ns);
    os << ",\"args\":{";
    bool first_arg = true;
    const auto arg_field = [&](const char* key, std::int64_t value) {
      if (!first_arg) os << ',';
      first_arg = false;
      os << '"' << key << "\":" << value;
    };
    if (span.shard >= 0) arg_field("shard", span.shard);
    if (span.cell != no_cell) {
      arg_field("cell", static_cast<std::int64_t>(span.cell));
    }
    if (span.arg >= 0) arg_field(arg_key(span), span.arg);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace dlb::obs
