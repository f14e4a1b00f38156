// micro_sim_core — microbenchmark of the simulator's event queue.
//
// Four EventQueue workloads: schedule+pop at the measured-realistic queue
// size, a deep-heap variant, cancel-heavy, and steady-state churn. The
// simulator's end-to-end speed is bench_e2e's to measure (per-scheduler
// events/s: micro_decision_cache). The numbers of the pre-rewrite queue
// (std::function callbacks keyed by id in an unordered_map, tombstoned
// cancels) stay in the frozen results/BENCH_trajectory.json. Results land in
// BENCH_sim_core.json and a CSV; --smoke shrinks the iteration counts to
// seconds for the perf-labeled ctest target (also run under ASan, where
// absolute numbers are meaningless but the workloads double as a stress
// test).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "driver/report.h"
#include "sim/event_queue.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace wtpgsched;

namespace {

// Queue workloads. Every workload returns the number of queue operations
// performed; callbacks bump a sink so the invocation cannot be dead-stripped.
//
// The capture is sized like the real call sites (machine pointer, txn id,
// step, node id — ~40 bytes; see src/machine/machine.cc): inside the
// queue's 48-byte inline budget, beyond std::function's small-buffer
// threshold. A token capture would hide the allocation the inline budget
// avoids.
struct Payload {
  uint64_t* sink;
  uint64_t txn;
  int32_t step;
  int32_t node;
  double cost;
  uint64_t tag;

  void operator()() const { *sink += txn + static_cast<uint64_t>(step); }
};

Payload MakePayload(uint64_t* sink, uint64_t i) {
  return Payload{sink, i, static_cast<int32_t>(i % 7),
                 static_cast<int32_t>(i % 13), 0.5 * static_cast<double>(i),
                 i ^ 0x9E3779B97F4A7C15ull};
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Every drain below mirrors Simulator::Step exactly: NextTime() (the
// horizon check the simulator makes before every event), then Pop(), then
// the callback.
void Drain(EventQueue& q) {
  while (q.NextTime() != kSimTimeMax) {
    q.Pop().callback();
  }
}

// Batches of schedules at random times (many FIFO ties) drained by pops.
uint64_t RunSchedulePop(int rounds, int batch, uint64_t* sink) {
  EventQueue q;
  Rng rng(20260807);
  uint64_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      q.Schedule(static_cast<SimTime>(rng.UniformInt(0, 99)),
                 MakePayload(sink, static_cast<uint64_t>(i)));
    }
    Drain(q);
    ops += 2u * static_cast<uint64_t>(batch);
  }
  return ops;
}

// Batches where half the events are cancelled before the drain — the
// workload the tombstone scheme paid for (timeouts cancelled on completion).
uint64_t RunCancelHeavy(int rounds, int batch, uint64_t* sink) {
  EventQueue q;
  Rng rng(20260808);
  std::vector<EventQueue::EventId> ids;
  uint64_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    ids.clear();
    for (int i = 0; i < batch; ++i) {
      ids.push_back(q.Schedule(static_cast<SimTime>(rng.UniformInt(0, 999)),
                               MakePayload(sink, static_cast<uint64_t>(i))));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      WTPG_CHECK(q.Cancel(ids[i]));
    }
    Drain(q);
    ops += 2u * static_cast<uint64_t>(batch) +
           static_cast<uint64_t>(batch) / 2;
  }
  return ops;
}

// Steady state: a resident set of pending events, each pop scheduling a
// successor — the shape of a running simulation (server completions,
// arrivals, timeouts).
uint64_t RunChurn(int steps, int resident, uint64_t* sink) {
  EventQueue q;
  Rng rng(20260809);
  SimTime now = 0;
  for (int i = 0; i < resident; ++i) {
    q.Schedule(static_cast<SimTime>(rng.UniformInt(0, 99)),
               MakePayload(sink, static_cast<uint64_t>(i)));
  }
  for (int s = 0; s < steps; ++s) {
    WTPG_CHECK_NE(q.NextTime(), kSimTimeMax);  // Simulator's horizon check.
    auto ev = q.Pop();
    now = ev.time;
    ev.callback();
    q.Schedule(now + static_cast<SimTime>(rng.UniformInt(1, 99)),
               MakePayload(sink, static_cast<uint64_t>(s)));
  }
  return 2u * static_cast<uint64_t>(steps);
}

struct WorkloadResult {
  std::string workload;
  uint64_t ops = 0;
  double seconds = 0.0;
  double mops_per_s = 0.0;
};

// Best-of-`reps` measurement: on a shared container a single run can eat an
// arbitrary scheduling stall, so the fastest repetition is the least-noisy
// estimate of the workload's actual cost (the standard microbenchmark rule:
// noise only ever adds time).
WorkloadResult Measure(const std::string& workload,
                       uint64_t (*fn)(int, int, uint64_t*), int a, int b,
                       int reps) {
  WorkloadResult r;
  r.workload = workload;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t ops = fn(a, b, &sink);
    const auto t1 = std::chrono::steady_clock::now();
    WTPG_CHECK_GT(sink, 0u);
    const double seconds = Seconds(t0, t1);
    const double mops = seconds > 0.0 ? ops / seconds / 1e6 : 0.0;
    if (rep == 0 || mops > r.mops_per_s) {
      r.ops = ops;
      r.seconds = seconds;
      r.mops_per_s = mops;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false,
                "tiny iteration counts (ctest perf label / sanitizers)");
  flags.AddString("out-json", "BENCH_sim_core.json", "JSON result file");
  flags.AddString("out-csv", "micro_sim_core.csv", "CSV result file");
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
  // Queue sizes: instrumenting Simulator::Step across all four schedulers
  // at the Fig.-8 operating point (rate 1.2, Experiment 1 pattern) shows
  // the pending-event population is tiny — mean 3-8, max 11 — because the
  // backlog under load lives in scheduler admission queues, not the event
  // queue. batch=64 is a generous envelope of that regime and is the
  // headline schedule+pop number; the _deep variant (batch 1024, ~5 heap
  // levels) and churn (resident 4096) keep the deep-heap regime tracked.
  const int rounds = smoke ? 128 : 32'000;
  const int batch = 64;
  const int deep_rounds = smoke ? 8 : 2000;
  const int deep_batch = 1024;
  const int churn_steps = smoke ? 20'000 : 4'000'000;
  const int churn_resident = 4096;

  struct Spec {
    const char* name;
    uint64_t (*fn)(int, int, uint64_t*);
    int a, b;
  };
  const Spec specs[] = {
      {"schedule_pop", &RunSchedulePop, rounds, batch},
      {"schedule_pop_deep", &RunSchedulePop, deep_rounds, deep_batch},
      {"cancel_heavy", &RunCancelHeavy, rounds, batch},
      {"churn", &RunChurn, churn_steps, churn_resident},
  };

  TablePrinter queue_table({"workload", "Mops/s"});
  std::string queue_json;
  CsvWriter csv;
  const Status csv_status = csv.Open(flags.GetString("out-csv"));
  if (!csv_status.ok()) {
    std::fprintf(stderr, "%s\n", csv_status.ToString().c_str());
    return 1;
  }
  csv.WriteHeader({"workload", "ops", "seconds", "mops_per_s"});

  const int reps = smoke ? 1 : 5;
  for (const Spec& spec : specs) {
    const WorkloadResult r = Measure(spec.name, spec.fn, spec.a, spec.b, reps);
    queue_table.AddRow({spec.name, FormatDouble(r.mops_per_s, 2)});
    JsonWriter row;
    row.Add("workload", r.workload)
        .Add("ops", r.ops)
        .Add("seconds", r.seconds)
        .Add("mops_per_s", r.mops_per_s);
    if (!queue_json.empty()) queue_json += ',';
    queue_json += row.ToString();
    csv.WriteRow({r.workload, StrCat(r.ops), FormatDouble(r.seconds, 4),
                  FormatDouble(r.mops_per_s, 3)});
  }
  queue_table.Print();

  JsonWriter json;
  json.Add("bench", "sim_core")
      .Add("smoke", smoke)
      .AddRaw("queue", StrCat("[", queue_json, "]"));
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
  return 0;
}
