// e2e_bench: runs one workload of the end-to-end benchmark and measures it
// from outside the simulator, through public entry points only (Machine's
// constructors and Run(), RunStats counters read by name,
// simulator().events_executed(), trace(), telemetry()). run.py builds this
// binary, drives it and turns its records into metrics; README.md beside
// this file defines the workloads and metrics.
//
//   e2e_bench --workload fig8_grid --seed 1 --seconds 20 --mode plain
//   e2e_bench --workload churn_traced --seed 1 --mode traced --scheduler GOW
//   e2e_bench --self-test
//
// Output: one JSON object per line: a "host" record, then one record per
// simulation run ("run" or "traced").

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/config.h"
#include "machine/machine.h"
#include "sched/asl.h"
#include "sched/c2pl.h"
#include "sched/gow.h"
#include "sched/low.h"
#include "sched/nodc.h"
#include "sched/opt.h"
#include "trace/trace_analysis.h"
#include "util/json_writer.h"
#include "workload/openworld.h"
#include "workload/pattern.h"
#include "workload/workload.h"

namespace wtpgsched {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2e_bench: %s\n", message.c_str());
  std::exit(2);
}

// --- Workloads -------------------------------------------------------------

// The paper's six schedulers, in its reporting order.
const std::vector<SchedulerKind>& PaperKinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kNodc, SchedulerKind::kAsl,  SchedulerKind::kGow,
      SchedulerKind::kLow,  SchedulerKind::kC2pl, SchedulerKind::kOpt};
  return kinds;
}

struct RunSpec {
  std::string label;  // "<scheduler>/<point>", unique within the workload.
  SimConfig config;
};

struct Workload {
  std::string name;
  // Exactly one source is set: a single pattern or an open-world mix.
  std::unique_ptr<Pattern> pattern;
  std::vector<WeightedPattern> mix;
  std::vector<RunSpec> runs;
};

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// Table-1 defaults for one scheduler at one operating point.
SimConfig BaseConfig(SchedulerKind kind, int num_files, int dd, double rate,
                     double horizon_ms) {
  SimConfig config;
  config.scheduler = kind;
  config.machine.num_files = num_files;
  config.machine.dd = dd;
  config.workload.arrival_rate_tps = rate;
  config.run.horizon_ms = horizon_ms;
  return config;
}

// Adds `replicas` runs of `config`, seeded seed*replicas + r, labelled
// "<label>#r" when there is more than one. The replicas of a chaotic
// configuration average out how much one seed's inputs load the run.
void AddRuns(Workload* w, const std::string& label, SimConfig config,
             uint64_t seed, int replicas) {
  for (int r = 0; r < replicas; ++r) {
    config.run.seed = seed * static_cast<uint64_t>(replicas) +
                      static_cast<uint64_t>(r);
    w->runs.push_back(
        {replicas > 1 ? label + "#" + std::to_string(r) : label, config});
  }
}

// Trace ring large enough for the longest churn run, so the trace-replay
// check always sees the whole history.
constexpr uint64_t kChurnTraceCapacity = uint64_t{1} << 22;
constexpr double kTelemetrySampleMs = 1000.0;
// The traced run switches telemetry on where the workload has it off, only
// so that the decision counters are exported. Sampling every 100 s keeps
// its own cost out of the hook split: at 1 s, C2PL's gauges triple the
// host time of a saturated fig8_grid run.
constexpr double kTracedTelemetrySampleMs = 100'000.0;

// Replicas per configuration and horizons. fig8_grid keeps the paper's
// single 2,000 s run per point: summed over 42 points its host time moves
// little with the seed. The other two are chaotic per run — one seed's
// Zipf draws or fault schedule can double a run's events — so each point
// runs several seeds, and churn_traced runs them at a quarter of the
// horizon to keep a pass under ten seconds.
constexpr int kOpenWorldReplicas = 6;
constexpr double kOpenWorldHorizonMs = 2'000'000;
constexpr int kChurnReplicas = 10;
constexpr double kChurnHorizonMs = 500'000;

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "fig8_grid") {
    // Exp. 1, Fig. 8: Pattern 1, NumFiles=16, DD=1, 8 DPNs, recording off.
    w.pattern = std::make_unique<Pattern>(Pattern::Experiment1(16));
    for (SchedulerKind kind : PaperKinds()) {
      for (int i = 1; i <= 7; ++i) {
        const double rate = 0.2 * i;
        AddRuns(&w,
                std::string(SchedulerKindName(kind)) + "/rate=" +
                    Fmt("%.1f", rate),
                BaseConfig(kind, 16, 1, rate, 2'000'000), seed, 1);
      }
    }
  } else if (name == "openworld_1m") {
    // Two-class Zipf(0.9) mix over 1M files at 1 TPS, P² tail sketch on,
    // ungated and with a batch admission gate of 2.
    const OpenWorldSpec spec;  // 1M files, theta 0.9.
    w.mix = MakeOpenWorldMix(spec);
    for (SchedulerKind kind : PaperKinds()) {
      for (int batch_mpl : {0, 2}) {
        SimConfig config =
            BaseConfig(kind, spec.num_files, 1, 1.0, kOpenWorldHorizonMs);
        config.workload.zipf_theta = spec.zipf_theta;
        config.machine.batch_mpl = batch_mpl;
        config.run.tail_metrics = true;
        config.run.tail_sketch = true;
        AddRuns(&w,
                std::string(SchedulerKindName(kind)) + "/batch_mpl=" +
                    std::to_string(batch_mpl),
                config, seed, kOpenWorldReplicas);
      }
    }
  } else if (name == "churn_traced") {
    // exp_faults' churn settings at DD=8, 1 TPS, with event recording and
    // telemetry on. MTTF 0 is the fault-free point (all-zero fault section).
    w.pattern = std::make_unique<Pattern>(Pattern::Experiment1(16));
    for (SchedulerKind kind : PaperKinds()) {
      for (double mttf_ms : {0.0, 400'000.0, 100'000.0}) {
        SimConfig config = BaseConfig(kind, 16, 8, 1.0, kChurnHorizonMs);
        if (mttf_ms > 0.0) {
          config.fault.dpn_mttf_ms = mttf_ms;
          config.fault.dpn_mttr_ms = 20'000;
          config.fault.straggler_mtbf_ms = 300'000;
          config.fault.straggler_duration_ms = 30'000;
          config.fault.straggler_factor = 4.0;
          config.fault.abort_rate_per_s = 0.02;
        }
        config.run.trace_enabled = true;
        config.run.trace_capacity = kChurnTraceCapacity;
        config.run.telemetry_sample_ms = kTelemetrySampleMs;
        AddRuns(&w,
                std::string(SchedulerKindName(kind)) + "/mttf=" +
                    (mttf_ms > 0.0 ? Fmt("%.0f", mttf_ms / 1000.0) : "inf"),
                config, seed, kChurnReplicas);
      }
    }
  } else {
    Die("unknown workload '" + name +
        "' (fig8_grid, openworld_1m, churn_traced)");
  }
  return w;
}

// --- Timed scheduler ---------------------------------------------------------

// Host time and call counts of one group of scheduler hooks.
struct HookTimes {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

struct SchedTimes {
  HookTimes startup;  // DecideStartup (+ AfterAdmit time).
  HookTimes lock;     // DecideLock.
  HookTimes grant;    // AfterGrant (+ OnLockRecorded time).
  HookTimes step;     // OnStepCompleted.
  HookTimes end;      // AfterCommit, AfterAbort (+ ValidateAtCommit time).
  uint64_t decisions = 0;
  uint64_t grants = 0;
};

// Adds the host time of its scope to `hook`; counts a call when `count`.
class HookSpan {
 public:
  HookSpan(HookTimes* hook, bool count) : hook_(hook), start_(Clock::now()) {
    if (count) ++hook_->calls;
  }
  ~HookSpan() {
    hook_->ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  HookSpan(const HookSpan&) = delete;
  HookSpan& operator=(const HookSpan&) = delete;

 private:
  HookTimes* hook_;
  Clock::time_point start_;
};

// A concrete scheduler with every decision hook timed. It forwards each hook
// to the real implementation unchanged, so the simulation is identical (the
// benchmark checks it); the machine sees it as a custom scheduler.
template <class Base>
class TimedScheduler final : public Base {
 public:
  template <class... Args>
  explicit TimedScheduler(SchedTimes* times, Args&&... args)
      : Base(std::forward<Args>(args)...), times_(times) {}

  void OnStepCompleted(Transaction& txn, int step) override {
    HookSpan span(&times_->step, true);
    Base::OnStepCompleted(txn, step);
  }
  bool ValidateAtCommit(Transaction& txn) override {
    HookSpan span(&times_->end, false);
    return Base::ValidateAtCommit(txn);
  }

 protected:
  Decision DecideStartup(Transaction& txn) override {
    Decision decision;
    {
      HookSpan span(&times_->startup, true);
      decision = Base::DecideStartup(txn);
    }
    Tally(decision);
    return decision;
  }
  void AfterAdmit(Transaction& txn) override {
    HookSpan span(&times_->startup, false);
    Base::AfterAdmit(txn);
  }
  Decision DecideLock(Transaction& txn, int step) override {
    Decision decision;
    {
      HookSpan span(&times_->lock, true);
      decision = Base::DecideLock(txn, step);
    }
    Tally(decision);
    return decision;
  }
  void OnLockRecorded(Transaction& txn, FileId file) override {
    HookSpan span(&times_->grant, false);
    Base::OnLockRecorded(txn, file);
  }
  void AfterGrant(Transaction& txn, int step) override {
    HookSpan span(&times_->grant, true);
    Base::AfterGrant(txn, step);
  }
  void AfterCommit(Transaction& txn) override {
    HookSpan span(&times_->end, true);
    Base::AfterCommit(txn);
  }
  void AfterAbort(Transaction& txn) override {
    HookSpan span(&times_->end, true);
    Base::AfterAbort(txn);
  }

 private:
  void Tally(const Decision& decision) {
    ++times_->decisions;
    if (decision.kind == DecisionKind::kGrant) ++times_->grants;
  }

  SchedTimes* times_;
};

// Mirrors CreateScheduler's wiring of the Table-1 costs for the six paper
// schedulers; the traced-vs-plain byte-identity check catches any drift.
std::unique_ptr<Scheduler> MakeTimedScheduler(const SimConfig& c,
                                              SchedTimes* times) {
  switch (c.scheduler) {
    case SchedulerKind::kNodc:
      return std::make_unique<TimedScheduler<NodcScheduler>>(times);
    case SchedulerKind::kAsl:
      return std::make_unique<TimedScheduler<AslScheduler>>(times);
    case SchedulerKind::kC2pl:
      return std::make_unique<TimedScheduler<C2plScheduler>>(
          times, MsToTime(c.costs.dd_time_ms), c.machine.mpl);
    case SchedulerKind::kOpt:
      return std::make_unique<TimedScheduler<OptScheduler>>(
          times, c.opt_validate_writes);
    case SchedulerKind::kGow:
      return std::make_unique<TimedScheduler<GowScheduler>>(
          times, MsToTime(c.costs.top_time_ms),
          MsToTime(c.costs.chain_time_ms));
    case SchedulerKind::kLow:
      return std::make_unique<TimedScheduler<LowScheduler>>(
          times, c.low_k, MsToTime(c.costs.kwtpg_time_ms),
          c.low_charge_per_eval);
    default:
      Die("no timed wrapper for this scheduler");
  }
}

// --- Running and checking one configuration ---------------------------------

// A workload generator identical to the one Machine's pattern and mix
// constructors build from `config`.
WorkloadGenerator MakeGenerator(const Workload& w, const SimConfig& config) {
  const double theta = config.workload.zipf_theta;
  const ErrorModel error{config.workload.error_sigma};
  if (w.pattern != nullptr) {
    return WorkloadGenerator(theta > 0.0 ? w.pattern->WithZipf(theta)
                                         : *w.pattern,
                             config.workload.arrival_rate_tps,
                             config.machine.dd, error, config.run.seed);
  }
  std::vector<WeightedPattern> mix = w.mix;
  if (theta > 0.0) {
    for (WeightedPattern& wp : mix) wp.pattern = wp.pattern.WithZipf(theta);
  }
  return WorkloadGenerator(std::move(mix), config.workload.arrival_rate_tps,
                           config.machine.dd, error, config.run.seed);
}

// Builds the machine through the public constructors: the stock scheduler
// from config.scheduler, or `custom` through the custom-scheduler form.
std::unique_ptr<Machine> MakeMachine(const Workload& w, const SimConfig& config,
                                     std::unique_ptr<Scheduler> custom) {
  if (custom != nullptr) {
    return std::make_unique<Machine>(config, MakeGenerator(w, config),
                                     std::move(custom));
  }
  if (w.pattern != nullptr) return std::make_unique<Machine>(config, *w.pattern);
  return std::make_unique<Machine>(config, w.mix);
}

// Peak resident set of this process image (VmHWM). Unlike getrusage's
// ru_maxrss it does not inherit the parent's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

// Resets this process's peak-RSS mark to its current resident set
// (Linux >= 4.0), so that PeakRssMb() then reads the peak of one run. Where
// the kernel refuses, the mark keeps the process-wide peak.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

// Verdict of the trace-replay serializability check. A verdict is given only
// on a complete trace: a ring that dropped events is "truncated", which
// fails the run (a partial history cannot show a cycle it lost). NODC is
// expected to be non-serializable, which is not a failure.
enum class TraceVerdict {
  kOff,
  kSerializable,
  kExpectedNonSerializable,
  kTruncated,
  kNotSerializable,
};

const char* VerdictName(TraceVerdict v) {
  switch (v) {
    case TraceVerdict::kOff: return "off";
    case TraceVerdict::kSerializable: return "serializable";
    case TraceVerdict::kExpectedNonSerializable: return "nodc_not_serializable";
    case TraceVerdict::kTruncated: return "truncated";
    case TraceVerdict::kNotSerializable: return "not_serializable";
  }
  return "?";
}

bool VerdictPasses(TraceVerdict v) {
  return v == TraceVerdict::kOff || v == TraceVerdict::kSerializable ||
         v == TraceVerdict::kExpectedNonSerializable;
}

TraceVerdict JudgeTrace(const Machine& machine) {
  const TraceRecorder& trace = machine.trace();
  if (!trace.enabled()) return TraceVerdict::kOff;
  if (trace.dropped() > 0) return TraceVerdict::kTruncated;
  if (CheckTraceSerializable(trace.Snapshot()).serializable) {
    return TraceVerdict::kSerializable;
  }
  return machine.config().scheduler == SchedulerKind::kNodc
             ? TraceVerdict::kExpectedNonSerializable
             : TraceVerdict::kNotSerializable;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The counter `name` of `stats`, or null when the run did not export it.
const uint64_t* FindCounter(const RunStats& stats, const std::string& name) {
  for (const auto& [key, value] : stats.counters) {
    if (key == name) return &value;
  }
  return nullptr;
}

// ToJson of `stats` without the counters whose names start with any of
// `prefixes`.
std::string JsonWithout(RunStats stats,
                        const std::vector<std::string>& prefixes) {
  std::vector<std::pair<std::string, uint64_t>> kept;
  for (auto& counter : stats.counters) {
    bool drop = false;
    for (const std::string& p : prefixes) {
      if (counter.first.rfind(p, 0) == 0) drop = true;
    }
    if (!drop) kept.push_back(std::move(counter));
  }
  stats.counters = std::move(kept);
  return stats.ToJson();
}

// Counters only telemetry-sampled runs export (Machine::Run's telemetry
// gate); dropped before comparing a telemetry run against a plain one.
const std::vector<std::string>& TelemetryOnlyCounters() {
  static const std::vector<std::string> prefixes = {
      "sched.decision_retries", "sched.block_shortcuts", "wtpg.evals",
      "cache.", "health."};
  return prefixes;
}

struct RunOutcome {
  RunStats stats;
  std::string json;
  double setup_s = 0;
  double run_s = 0;
  double check_s = 0;
  uint64_t events = 0;
  bool conserved = false;
  TraceVerdict verdict = TraceVerdict::kOff;
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  uint64_t telemetry_samples = 0;
  double summary_s = 0;
  double rss_mb = 0;  // Peak resident set of the process during the run.

  bool ok() const { return conserved && VerdictPasses(verdict); }
};

// Constructs, runs and checks one configuration. `summarize` also times
// SummarizeTrace over the recorded events. `trim` first returns the heap's
// free memory to the kernel, so that rss_mb is the run's own footprint
// rather than what earlier runs left resident.
RunOutcome Execute(const Workload& w, const SimConfig& config,
                   std::unique_ptr<Scheduler> custom, bool summarize,
                   bool trim = false) {
  RunOutcome out;
  if (trim) malloc_trim(0);
  ResetPeakRss();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Machine> machine = MakeMachine(w, config, std::move(custom));
  const Clock::time_point t1 = Clock::now();
  out.stats = machine->Run();
  const Clock::time_point t2 = Clock::now();
  out.rss_mb = PeakRssMb();
  out.json = out.stats.ToJson();
  out.conserved = out.stats.arrivals ==
                  out.stats.completions + out.stats.in_flight_at_end;
  out.verdict = JudgeTrace(*machine);
  const Clock::time_point t3 = Clock::now();
  out.setup_s = Seconds(t0, t1);
  out.run_s = Seconds(t1, t2);
  out.check_s = Seconds(t2, t3);
  out.events = machine->simulator().events_executed();
  out.trace_recorded = machine->trace().total_recorded();
  out.trace_dropped = machine->trace().dropped();
  if (machine->telemetry() != nullptr) {
    out.telemetry_samples = machine->telemetry()->store().total_rows();
  }
  if (summarize && machine->trace().enabled()) {
    const Clock::time_point s0 = Clock::now();
    const TraceSummary summary = SummarizeTrace(machine->trace().Snapshot());
    out.summary_s = Seconds(s0, Clock::now());
    if (summary.committed != out.stats.completions &&
        out.trace_dropped == 0) {
      out.conserved = false;  // The trace disagrees with RunStats.
    }
  }
  return out;
}

// Host seconds to generate `txns` transactions with a generator identical
// to the machine's (same mix, rate, DD, seed) — the workload layer alone.
double ReplayWorkload(const Workload& w, const SimConfig& config,
                      uint64_t txns) {
  const Clock::time_point t0 = Clock::now();
  WorkloadGenerator gen = MakeGenerator(w, config);
  SimTime sink = 0;
  for (uint64_t i = 0; i < txns; ++i) {
    sink += gen.NextInterarrival();
    sink += static_cast<SimTime>(gen.NextTransaction()->num_steps());
  }
  const double seconds = Seconds(t0, Clock::now());
  if (sink == -1) std::fprintf(stderr, " ");  // Keeps the loop observable.
  return seconds;
}

// --- Output -------------------------------------------------------------------

// Prints one record as a JSON line.
void Print(const JsonWriter& record) {
  std::printf("%s\n", record.ToString().c_str());
  std::fflush(stdout);
}

JsonWriter RunFields(const char* rec, const std::string& label,
                     const SimConfig& config, const RunOutcome& r) {
  JsonWriter record;
  record.Add("rec", rec)
      .Add("label", label)
      .Add("sched", SchedulerKindName(config.scheduler))
      .Add("setup_s", r.setup_s)
      .Add("run_s", r.run_s)
      .Add("check_s", r.check_s)
      .Add("sim_s", r.stats.sim_seconds)
      .Add("arrivals", r.stats.arrivals)
      .Add("commits", r.stats.completions)
      .Add("in_flight", r.stats.in_flight_at_end)
      .Add("events", r.events)
      .Add("rss_mb", r.rss_mb)
      .Add("hash", Hex(Fnv1a(r.json)))
      .Add("conserved", r.conserved)
      .Add("verdict", VerdictName(r.verdict));
  return record;
}

// Fixed integer work (a dependent xorshift64* chain), best of three, in
// million rounds per second: a host-speed fingerprint, not a metric.
double CalibrationScore() {
  constexpr uint64_t kRounds = uint64_t{1} << 25;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kRounds; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      x *= 0x2545f4914f6cdd1dull;
    }
    const double s = Seconds(t0, Clock::now());
    if (x == 0) std::fprintf(stderr, " ");  // Keeps the chain live.
    best = std::max(best, static_cast<double>(kRounds) / s / 1e6);
  }
  return best;
}

// --- Modes --------------------------------------------------------------------

// Pass 0 warms the process up: the first runs of a fresh process pay for
// faulting in heap pages that later runs reuse, up to a fifth of a pass on
// openworld_1m. Its runs are checked but run.py leaves them out of the
// timings; it measures each run's peak resident set from a trimmed heap
// instead. Then untraced passes follow until the next one would end after
// `seconds` (at least one).
int RunPlain(const Workload& w, double seconds) {
  Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    const Clock::time_point pass_start = Clock::now();
    for (const RunSpec& spec : w.runs) {
      const RunOutcome r = Execute(w, spec.config, nullptr, false, pass == 0);
      Print(RunFields("run", spec.label, spec.config, r).Add("pass", pass));
    }
    if (pass == 0) {
      start = Clock::now();
      continue;
    }
    const double pass_s = Seconds(pass_start, Clock::now());
    if (Seconds(start, Clock::now()) + pass_s > seconds) break;
  }
  return 0;
}

// One traced pass over the runs of `scheduler`: each configuration runs
// untraced (the baseline, and the reference for byte-identity), then with
// the timed scheduler and telemetry sampling on, and — where the workload
// records events — once more timed with recording off.
int RunTraced(const Workload& w, const std::string& scheduler) {
  for (const RunSpec& spec : w.runs) {
    if (!scheduler.empty() &&
        scheduler != SchedulerKindName(spec.config.scheduler)) {
      continue;
    }
    const RunOutcome plain = Execute(w, spec.config, nullptr, false);

    SimConfig timed_config = spec.config;
    if (timed_config.run.telemetry_sample_ms <= 0.0) {
      timed_config.run.telemetry_sample_ms = kTracedTelemetrySampleMs;
    }
    SchedTimes times;
    const RunOutcome timed =
        Execute(w, timed_config, MakeTimedScheduler(timed_config, &times),
                /*summarize=*/true);
    const bool identical =
        JsonWithout(plain.stats, TelemetryOnlyCounters()) ==
        JsonWithout(timed.stats, TelemetryOnlyCounters());

    double recoff_run_s = timed.run_s;
    bool recoff_identical = true;
    if (timed_config.run.trace_enabled) {
      SimConfig recoff_config = timed_config;
      recoff_config.run.trace_enabled = false;
      SchedTimes recoff_times;
      const RunOutcome recoff = Execute(
          w, recoff_config, MakeTimedScheduler(recoff_config, &recoff_times),
          false);
      recoff_run_s = recoff.run_s;
      recoff_identical = JsonWithout(timed.stats, {"trace."}) == recoff.json;
    }
    const double workload_s = ReplayWorkload(w, spec.config, plain.stats.arrivals);

    JsonWriter record = RunFields("traced", spec.label, spec.config, plain);
    record.Add("ok", plain.ok() && timed.ok())
        .Add("identical", identical)
        .Add("recoff_identical", recoff_identical)
        .Add("timed_run_s", timed.run_s)
        .Add("recoff_run_s", recoff_run_s)
        .Add("timed_check_s", timed.check_s)
        .Add("summary_s", timed.summary_s)
        .Add("timed_events", timed.events)
        .Add("timed_commits", timed.stats.completions)
        .Add("trace_recorded", timed.trace_recorded)
        .Add("trace_dropped", timed.trace_dropped)
        .Add("telemetry_samples", timed.telemetry_samples)
        .Add("workload_s", workload_s)
        .Add("workload_txns", plain.stats.arrivals)
        .Add("startup_calls", times.startup.calls)
        .Add("startup_ns", times.startup.ns)
        .Add("lock_calls", times.lock.calls)
        .Add("lock_ns", times.lock.ns)
        .Add("grant_calls", times.grant.calls)
        .Add("grant_ns", times.grant.ns)
        .Add("step_calls", times.step.calls)
        .Add("step_ns", times.step.ns)
        .Add("end_calls", times.end.calls)
        .Add("end_ns", times.end.ns)
        .Add("decisions", times.decisions)
        .Add("grants", times.grants)
        .Add("restarts", timed.stats.restarts);
    for (const char* name :
         {"sched.decision_retries", "sched.block_shortcuts", "wtpg.evals",
          "cache.hits", "cache.misses", "fault.crashes", "fault.crash_victims",
          "fault.injected_aborts"}) {
      // Absent counters are left out, so the reader can tell absent from 0.
      if (const uint64_t* value = FindCounter(timed.stats, name)) {
        record.Add(name, *value);
      }
    }
    Print(record);
  }
  return 0;
}

// The benchmark's own check of the truncation rule, on the NODC repro:
// rate 1.2, 300 s. A 500-event ring must give "truncated" (a failed run),
// never a verdict; the whole trace must give NODC's expected
// non-serializable verdict, which passes; LOW on the same inputs must be
// serializable.
int SelfTest() {
  Workload w = MakeWorkload("fig8_grid", 1);
  SimConfig config = BaseConfig(SchedulerKind::kNodc, 16, 1, 1.2, 300'000);
  config.run.trace_enabled = true;

  struct Case {
    const char* name;
    SchedulerKind kind;
    uint64_t capacity;
    TraceVerdict want;
  };
  const Case cases[] = {
      {"nodc_truncated", SchedulerKind::kNodc, 500, TraceVerdict::kTruncated},
      {"nodc_full", SchedulerKind::kNodc, kChurnTraceCapacity,
       TraceVerdict::kExpectedNonSerializable},
      {"low_full", SchedulerKind::kLow, kChurnTraceCapacity,
       TraceVerdict::kSerializable},
  };
  int failures = 0;
  for (const Case& c : cases) {
    config.scheduler = c.kind;
    config.run.trace_capacity = c.capacity;
    const RunOutcome r = Execute(w, config, nullptr, false);
    const bool pass = r.verdict == c.want &&
                      r.ok() == VerdictPasses(c.want) && r.conserved;
    if (!pass) ++failures;
    Print(JsonWriter()
              .Add("case", c.name)
              .Add("verdict", VerdictName(r.verdict))
              .Add("want", VerdictName(c.want))
              .Add("dropped", r.trace_dropped)
              .Add("run_ok", r.ok())
              .Add("pass", pass));
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string mode = "plain";
  std::string scheduler;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--mode") {
      mode = value();
    } else if (arg == "--scheduler") {
      scheduler = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Die("bad --seed '" + v + "'");
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(seconds > 0)) {
        Die("bad --seconds '" + v + "'");
      }
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      Die("unknown argument '" + arg + "'");
    }
  }
  if (self_test) return SelfTest();
  if (mode != "plain" && mode != "traced") Die("--mode is plain or traced");
  const Workload w = MakeWorkload(workload, seed);
  Print(JsonWriter().Add("rec", "host").Add("cpu_score", CalibrationScore()));
  return mode == "plain" ? RunPlain(w, seconds) : RunTraced(w, scheduler);
}

}  // namespace
}  // namespace wtpgsched

int main(int argc, char** argv) { return wtpgsched::Main(argc, argv); }
