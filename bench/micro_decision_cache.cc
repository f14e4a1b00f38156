// micro_decision_cache — hit-rate and throughput benchmark of the decision
// cache layer (DESIGN.md section 12).
//
// Two sections, from one contended end-to-end replica per WTPG scheduler
// (best of reps):
//   1. hit_rate: cache hits/misses, uncached graph evaluations, and the
//      machine-side retry/shortcut counters the caches feed off.
//   2. end_to_end: events/sec per scheduler.
//
// Results land in BENCH_decision_cache.json and a CSV for per-PR tracking;
// --smoke shrinks iteration counts for the perf-labeled ctest target. The
// smoke run also enforces the PR's acceptance floor — r C2PL at least
// 5x its pre-cache 28,371 events/s — except under sanitizers, where
// absolute numbers are meaningless and the run doubles as a stress test.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "driver/report.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "sched/scheduler.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "workload/pattern.h"

using namespace wtpgsched;

// Sanitizer builds run the same workloads but skip the wall-clock floor.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WTPG_BENCH_SANITIZED 1
#endif
#if !defined(WTPG_BENCH_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WTPG_BENCH_SANITIZED 1
#endif
#endif
#ifndef WTPG_BENCH_SANITIZED
#define WTPG_BENCH_SANITIZED 0
#endif

namespace {

// C2PL before the decision-cache layer: the C2PL row of the `sim_core`
// entry at commit dc3cb3e in the frozen results/BENCH_trajectory.json. The
// acceptance floor below is 5x this.
constexpr double kC2plBaselineEventsPerS = 28'371.0;

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct EndToEndResult {
  std::string scheduler;
  uint64_t events = 0;
  double seconds = 0.0;
  double events_per_s = 0.0;
  uint64_t completions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t wtpg_evals = 0;
  uint64_t decision_retries = 0;
  uint64_t block_shortcuts = 0;
};

// One replica near the knee of the Fig.-8 rate grid: contended enough that
// scheduler decisions (WTPG evaluations, lock scans) dominate, not idle
// arrivals. The arrival cap, not the horizon, bounds the work: a saturated
// scheduler's backlog grows with simulated time, so long horizons cost
// quadratic wall time; a fixed arrival count with a generous drain horizon
// keeps every scheduler's workload comparable and finite.
EndToEndResult RunEndToEnd(SchedulerKind kind, uint64_t max_arrivals) {
  SimConfig config;
  config.scheduler = kind;
  config.run.horizon_ms = 100'000'000;
  config.workload.arrival_rate_tps = 1.2;
  config.workload.max_arrivals = max_arrivals;
  Machine machine(config, Pattern::Experiment1(config.machine.num_files));
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = machine.Run();
  const auto t1 = std::chrono::steady_clock::now();
  EndToEndResult r;
  r.scheduler = SchedulerKindName(kind);
  r.events = machine.simulator().events_executed();
  r.seconds = Seconds(t0, t1);
  r.events_per_s = r.seconds > 0.0 ? r.events / r.seconds : 0.0;
  r.completions = stats.completions;
  r.decision_retries = machine.decision_retries();
  r.block_shortcuts = machine.block_shortcuts();
  if (const auto* wtpg_sched =
          dynamic_cast<const WtpgSchedulerBase*>(&machine.scheduler())) {
    r.cache_hits = wtpg_sched->cache_hits();
    r.cache_misses = wtpg_sched->cache_misses();
    r.wtpg_evals = wtpg_sched->wtpg_evals();
  }
  return r;
}

// Best-of-reps: noise only ever adds time, so the fastest repetition is the
// least-noisy estimate.
EndToEndResult BestOf(SchedulerKind kind, uint64_t max_arrivals, int reps) {
  EndToEndResult best;
  for (int rep = 0; rep < reps; ++rep) {
    EndToEndResult r = RunEndToEnd(kind, max_arrivals);
    if (rep == 0 || r.events_per_s > best.events_per_s) best = r;
  }
  return best;
}

double HitRate(const EndToEndResult& r) {
  const uint64_t total = r.cache_hits + r.cache_misses;
  return total > 0 ? static_cast<double>(r.cache_hits) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false,
                "tiny iteration counts (ctest perf label / sanitizers)");
  flags.AddString("out-json", "BENCH_decision_cache.json",
                  "JSON result file");
  flags.AddString("out-csv", "micro_decision_cache.csv", "CSV result file");
  flags.AddBool("help", false, "print usage");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }

  const bool smoke = flags.GetBool("smoke");
  const int reps = smoke ? 2 : 5;
  const uint64_t max_arrivals = smoke ? 600 : 5'000;

  CsvWriter csv;
  const Status csv_status = csv.Open(flags.GetString("out-csv"));
  if (!csv_status.ok()) {
    std::fprintf(stderr, "%s\n", csv_status.ToString().c_str());
    return 1;
  }
  csv.WriteHeader({"section", "name", "ops", "seconds", "value", "extra"});

  constexpr SchedulerKind kKinds[] = {SchedulerKind::kTwoPl,
                                      SchedulerKind::kC2pl,
                                      SchedulerKind::kGow, SchedulerKind::kLow};
  TablePrinter e2e_table(
      {"scheduler", "events/s", "hit rate", "evals", "retries"});
  std::string hit_json;
  std::string e2e_json;
  double c2pl_cached_events_per_s = 0.0;
  for (SchedulerKind kind : kKinds) {
    const EndToEndResult r = BestOf(kind, max_arrivals, reps);
    if (kind == SchedulerKind::kC2pl) {
      c2pl_cached_events_per_s = r.events_per_s;
    }
    e2e_table.AddRow({r.scheduler, FormatDouble(r.events_per_s, 0),
                      FormatDouble(HitRate(r), 3),
                      StrCat(r.wtpg_evals),
                      StrCat(r.decision_retries)});
    JsonWriter hit_row;
    hit_row.Add("scheduler", r.scheduler)
        .Add("cache_hits", r.cache_hits)
        .Add("cache_misses", r.cache_misses)
        .Add("hit_rate", HitRate(r))
        .Add("wtpg_evals", r.wtpg_evals)
        .Add("decision_retries", r.decision_retries)
        .Add("block_shortcuts", r.block_shortcuts);
    if (!hit_json.empty()) hit_json += ',';
    hit_json += hit_row.ToString();
    csv.WriteRow({"hit_rate", r.scheduler, StrCat(r.cache_hits),
                  "", FormatDouble(HitRate(r), 4),
                  StrCat(r.wtpg_evals)});
    JsonWriter e2e_row;
    e2e_row.Add("scheduler", r.scheduler)
        .Add("events", r.events)
        .Add("cached_events_per_s", r.events_per_s)
        .Add("completions", r.completions);
    if (!e2e_json.empty()) e2e_json += ',';
    e2e_json += e2e_row.ToString();
    csv.WriteRow({"end_to_end", r.scheduler, StrCat(r.events),
                  FormatDouble(r.seconds, 4),
                  FormatDouble(r.events_per_s, 0), ""});
  }
  e2e_table.Print();

  // Acceptance floor: r C2PL at least 5x the pre-cache baseline.
  const double c2pl_floor = 5.0 * kC2plBaselineEventsPerS;
  const bool sanitized = WTPG_BENCH_SANITIZED != 0;
  const bool floor_ok = sanitized || c2pl_cached_events_per_s >= c2pl_floor;
  std::printf("c2pl: %.0f events/s (floor %.0f, baseline %.0f)%s\n",
              c2pl_cached_events_per_s, c2pl_floor, kC2plBaselineEventsPerS,
              sanitized ? " [sanitized: floor not enforced]" : "");

  JsonWriter json;
  json.Add("bench", "decision_cache")
      .Add("smoke", smoke)
      .Add("sanitized", sanitized)
      .Add("c2pl_baseline_events_per_s", kC2plBaselineEventsPerS)
      .Add("c2pl_cached_events_per_s", c2pl_cached_events_per_s)
      .Add("c2pl_floor_events_per_s", c2pl_floor)
      .AddRaw("hit_rate", StrCat("[", hit_json, "]"))
      .AddRaw("end_to_end", StrCat("[", e2e_json, "]"));
  const std::string out_path = flags.GetString("out-json");
  std::ofstream out(out_path);
  out << json.ToString() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const Status close_status = csv.Close();
  if (!close_status.ok()) {
    std::fprintf(stderr, "%s\n", close_status.ToString().c_str());
    return 1;
  }
  std::printf("-> %s, %s\n", out_path.c_str(),
              flags.GetString("out-csv").c_str());
  if (!floor_ok) {
    std::fprintf(stderr, "FAIL: c2pl %.0f events/s below floor %.0f\n",
                 c2pl_cached_events_per_s, c2pl_floor);
    return 1;
  }
  return 0;
}
