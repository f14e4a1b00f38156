// wtpg-trace — analysis tool for JSONL traces recorded by wtpg_sim
// (--trace-jsonl). Subcommands:
//
//   wtpg-trace summary <trace.jsonl>
//       Per-transaction wait breakdown (admission wait vs lock wait vs
//       execution), aggregate means that reconcile with the run's
//       mean_response_s, and scheduler decision counts.
//
//   wtpg-trace check-serializable <trace.jsonl>
//       Post-hoc serialization-order check: rebuilds the conflict graph
//       from the traced data accesses and verifies acyclicity. Exits 0 when
//       serializable, 1 when a cycle is found (expected only for NODC), and
//       3 ("inconclusive") when the recording ring dropped events or the
//       file has no end footer: a truncated history can hide a cycle, so it
//       yields no verdict.
//
//   wtpg-trace perfetto <trace.jsonl> <out.json>
//       Converts the trace to Chrome trace-event format, loadable in
//       Perfetto (ui.perfetto.dev) or chrome://tracing. Sampled gauge
//       series recorded with --telemetry-ms become counter tracks.
//
//   wtpg-trace report <trace.jsonl> [more.jsonl ...] <out.html>
//       Renders a self-contained HTML run-health report (inline SVG
//       time-series charts plus thrashing/convoy/restart-storm verdicts,
//       and a trace.truncated badge for an incomplete trace) for one or
//       more runs recorded with --telemetry-ms.

#include <algorithm>
#include <cstdio>

#include "sim/time.h"
#include "telemetry/report_html.h"
#include "trace/trace_analysis.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "util/flags.h"
#include "util/string_util.h"

using namespace wtpgsched;

namespace {

constexpr const char* kUsage =
    "usage: wtpg-trace <summary|check-serializable|perfetto|report> "
    "<trace.jsonl> [more.jsonl ...] [out] [--top=N]\n";

int LoadTrace(const std::string& path, ParsedTrace* trace) {
  const Status status = ReadJsonlTrace(path, trace);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (!trace->footer_seen) {
    std::fprintf(stderr, "warning: %s has no end footer (truncated?)\n",
                 path.c_str());
  }
  return 0;
}

// IncompleteHistoryNote for a parsed trace file: "" when it is complete.
std::string IncompleteNote(const ParsedTrace& trace) {
  return IncompleteHistoryNote(trace.events.size(), trace.dropped,
                               trace.footer_seen);
}

double Pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

int RunSummary(const std::string& path, int top) {
  ParsedTrace trace;
  if (int rc = LoadTrace(path, &trace); rc != 0) return rc;
  const TraceSummary summary = SummarizeTrace(trace.events);

  std::printf("schema             %s\n", kTraceSchemaVersion);
  std::printf("scheduler          %s\n", trace.meta.scheduler.c_str());
  std::printf("machine            %d nodes, %d files, DD=%d, seed %llu\n",
              trace.meta.num_nodes, trace.meta.num_files, trace.meta.dd,
              static_cast<unsigned long long>(trace.meta.seed));
  std::printf("events             %zu buffered (%llu dropped)\n",
              trace.events.size(),
              static_cast<unsigned long long>(trace.dropped));
  std::printf("transactions       arrived %llu, committed %llu, aborted %llu\n",
              static_cast<unsigned long long>(summary.arrived),
              static_cast<unsigned long long>(summary.committed),
              static_cast<unsigned long long>(summary.aborted));
  const double mean = summary.mean_response_s;
  std::printf("mean response      %.3f s (over %zu reconstructed txns)\n",
              mean, summary.txns.size());
  std::printf("  admission wait   %.3f s (%.1f%%)\n",
              summary.mean_admission_wait_s,
              Pct(summary.mean_admission_wait_s, mean));
  std::printf("  lock wait        %.3f s (%.1f%%)\n", summary.mean_lock_wait_s,
              Pct(summary.mean_lock_wait_s, mean));
  std::printf("  execution        %.3f s (%.1f%%)\n",
              summary.mean_execution_s, Pct(summary.mean_execution_s, mean));
  std::printf("  other (CN etc.)  %.3f s (%.1f%%)\n", summary.mean_other_s,
              Pct(summary.mean_other_s, mean));
  if (const std::string note = IncompleteNote(trace); !note.empty()) {
    std::printf("serializability    %s\n", note.c_str());
  }

  std::printf("event counts:\n");
  for (const auto& [name, count] : summary.event_counts) {
    std::printf("  %-18s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }

  if (top > 0 && !summary.txns.empty()) {
    std::vector<TxnBreakdown> slowest = summary.txns;
    std::sort(slowest.begin(), slowest.end(),
              [](const TxnBreakdown& a, const TxnBreakdown& b) {
                return a.response_s > b.response_s;
              });
    if (static_cast<int>(slowest.size()) > top) {
      slowest.resize(static_cast<size_t>(top));
    }
    std::printf("slowest transactions:\n");
    std::printf("  %-8s %10s %10s %10s %10s %10s %9s\n", "txn", "response",
                "admission", "lock", "exec", "other", "restarts");
    for (const TxnBreakdown& b : slowest) {
      std::printf("  T%-7lld %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %9d\n",
                  static_cast<long long>(b.txn), b.response_s,
                  b.admission_wait_s, b.lock_wait_s, b.execution_s, b.other_s,
                  b.restarts);
    }
  }
  return 0;
}

int RunCheckSerializable(const std::string& path) {
  ParsedTrace trace;
  if (int rc = LoadTrace(path, &trace); rc != 0) return rc;
  const HistoryCheck check =
      CheckRecordedHistory(trace.events, trace.dropped, trace.footer_seen);
  std::printf("serializability    %s\n", check.text.c_str());
  return check.exit_code;
}

// Regroups a parsed trace's flat gauge-sample list into per-gauge tracks
// (sample lines are time-ordered, so each track comes out time-ordered).
std::vector<GaugeTrack> TracksFromTrace(const ParsedTrace& trace) {
  std::vector<GaugeTrack> tracks(trace.gauge_names.size());
  for (size_t g = 0; g < trace.gauge_names.size(); ++g) {
    tracks[g].name = trace.gauge_names[g];
  }
  for (const ParsedTrace::GaugeSample& sample : trace.gauge_samples) {
    tracks[static_cast<size_t>(sample.gauge)].points.emplace_back(
        sample.time, sample.value);
  }
  return tracks;
}

int RunPerfetto(const std::string& path, const std::string& out) {
  ParsedTrace trace;
  if (int rc = LoadTrace(path, &trace); rc != 0) return rc;
  const std::vector<GaugeTrack> tracks = TracksFromTrace(trace);
  const Status written =
      WriteChromeTrace(trace.events, trace.meta, out,
                       tracks.empty() ? nullptr : &tracks);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("chrome trace       %s (%zu events, %zu gauges)\n", out.c_str(),
              trace.events.size(), tracks.size());
  return 0;
}

int RunReport(const std::vector<std::string>& inputs, const std::string& out) {
  std::vector<ReportRun> runs;
  runs.reserve(inputs.size());
  for (const std::string& path : inputs) {
    ParsedTrace trace;
    if (int rc = LoadTrace(path, &trace); rc != 0) return rc;
    if (trace.gauge_names.empty()) {
      std::fprintf(stderr,
                   "warning: %s has no gauge samples (recorded without "
                   "--telemetry-ms?)\n",
                   path.c_str());
    }
    ReportRun run;
    run.title = StrCat(trace.meta.scheduler, " seed=", trace.meta.seed, " (",
                       path, ")");
    run.scheduler = trace.meta.scheduler;
    run.gauge_names = trace.gauge_names;
    run.series.resize(trace.gauge_names.size());
    for (const ParsedTrace::GaugeSample& sample : trace.gauge_samples) {
      run.series[static_cast<size_t>(sample.gauge)].emplace_back(
          TimeToSeconds(sample.time), sample.value);
    }
    run.counters = trace.footer_counters;
    run.truncation = IncompleteNote(trace);
    runs.push_back(std::move(run));
  }
  const Status written = WriteRunReport(runs, out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("report             %s (%zu runs)\n", out.c_str(), runs.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("top", 10, "summary: list the N slowest transactions (0 = off)");
  flags.AddBool("help", false, "print usage");

  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s%s", status.ToString().c_str(), kUsage,
                 flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s%s", kUsage, flags.Help().c_str());
    return 0;
  }
  const std::vector<std::string>& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& command = args[0];
  const std::string& path = args[1];
  if (command == "summary") {
    return RunSummary(path, static_cast<int>(flags.GetInt("top")));
  }
  if (command == "check-serializable") {
    return RunCheckSerializable(path);
  }
  if (command == "perfetto") {
    if (args.size() < 3) {
      std::fprintf(stderr, "perfetto needs an output path\n%s", kUsage);
      return 2;
    }
    return RunPerfetto(path, args[2]);
  }
  if (command == "report") {
    if (args.size() < 3) {
      std::fprintf(stderr, "report needs an output path\n%s", kUsage);
      return 2;
    }
    const std::vector<std::string> inputs(args.begin() + 1, args.end() - 1);
    return RunReport(inputs, args.back());
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}
