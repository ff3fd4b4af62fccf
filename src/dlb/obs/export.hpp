// The trace exporter: Chrome/Perfetto trace-event JSON of a recorder's
// spans. It only serializes; the one fold over the same spans is
// prof::analyze_profile (obs/prof.hpp).
//
// It reads the recorder after the run — it never touches the hot path.
#pragma once

#include <iosfwd>

#include "dlb/obs/recorder.hpp"

namespace dlb::obs {

/// Chrome trace-event JSON: an object with a "traceEvents" array of complete
/// ("ph":"X") events in microseconds. Loads in ui.perfetto.dev and
/// chrome://tracing for offline reading.
void write_chrome_trace(std::ostream& os, const recorder& rec);

}  // namespace dlb::obs
