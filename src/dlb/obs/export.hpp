// Exporters for recorded traces: Chrome/Perfetto trace-event JSON, the
// per-cell metrics sidecar, and the human --obs-summary table.
//
// All three read the recorder after the run — they never touch the hot path.
#pragma once

#include <iosfwd>

#include "dlb/obs/recorder.hpp"

namespace dlb::obs {

/// Chrome trace-event JSON: an object with a "traceEvents" array of complete
/// ("ph":"X") events in microseconds. Loads in ui.perfetto.dev and
/// chrome://tracing; tools/summarize_trace.py aggregates it offline.
void write_chrome_trace(std::ostream& os, const recorder& rec);

/// Per-cell metrics snapshots as a JSON array (one object per registered
/// cell: identity, counters, histograms) — the sidecar `--trace` writes next
/// to the trace file.
void write_metrics_sidecar(std::ostream& os, const recorder& rec);

/// Human summary: top span names by total time, per-phase shard skew
/// (slowest shard vs mean shard), and pool-task utilization / queue-wait —
/// what `dlb_run --obs-summary` prints to stderr. The utilization line names
/// the 8 busiest worker tids and folds the rest into an explicit "+N more
/// totalling X ms" aggregate — never a silent cut.
void write_summary(std::ostream& os, const recorder& rec);

}  // namespace dlb::obs
