#ifndef WTPG_SCHED_TELEMETRY_REPORT_HTML_H_
#define WTPG_SCHED_TELEMETRY_REPORT_HTML_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wtpgsched {

// One run's worth of report input: the sampled gauge series (typically from
// a parsed trace's gauge lines, see trace_reader.h) plus the footer counter
// snapshot the health verdicts are read from.
struct ReportRun {
  std::string title;      // Heading, e.g. "LOW seed=42".
  std::string scheduler;  // From the trace meta.
  std::vector<std::string> gauge_names;
  // series[g] holds (time_seconds, value) points for gauge_names[g].
  std::vector<std::vector<std::pair<double, double>>> series;
  std::vector<std::pair<std::string, uint64_t>> counters;
  // Why the run's trace is incomplete ("" when it is not); shown as a
  // trace.truncated badge, since an incomplete trace supports no verdict.
  std::string truncation;
};

// Renders a self-contained HTML document (inline CSS + SVG, no external
// resources): per run, health verdict badges from the health.* counters, a
// trace.truncated badge when `truncation` is set, and one time-series chart
// per gauge, grouped by gauge-name prefix.
std::string RenderRunReport(const std::vector<ReportRun>& runs);

// RenderRunReport + write to `path`.
Status WriteRunReport(const std::vector<ReportRun>& runs,
                      const std::string& path);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TELEMETRY_REPORT_HTML_H_
