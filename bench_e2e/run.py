#!/usr/bin/env python3
"""End-to-end benchmark of the WTPG scheduling simulator.

Builds bench_e2e/ (the simulator library from src/ plus e2e_bench.cc),
runs one workload, checks the simulated outputs and prints every metric by
name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md beside this
file for the workloads, metrics and layer table.

  python3 bench_e2e/run.py --workload fig8_grid --seed 1 --seconds 24 --trace 0
  python3 bench_e2e/run.py --workload churn_traced --trace 1
  python3 bench_e2e/run.py              # every workload, untraced then traced

Run it from the repository root. --trace 0 reports the end-to-end metrics
(untraced runs); --trace 1 repeats the workload once with the scheduler
hooks timed and reports the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("fig8_grid", "openworld_1m", "churn_traced")
SCHEDULERS = ("NODC", "ASL", "GOW", "LOW", "C2PL", "OPT")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_seed1.json")
GOLDEN_SEED = 1
# Each child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Counters the traced run reads from RunStats by name. A scheduler that does
# not export one leaves it absent; absent is reported, never a failure.
TRACED_COUNTERS = ("sched.decision_retries", "sched.block_shortcuts",
                   "wtpg.evals", "cache.hits", "cache.misses",
                   "fault.crashes", "fault.crash_victims",
                   "fault.injected_aborts")


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds the benchmark package; returns the binary."""
    if not os.path.isfile(os.path.join(root, "src", "machine", "machine.h")):
        die("simulator sources (src/) not found under " + root +
            "; run from the repository root")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "bench_e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            die("build step failed: %s (%s)" % (" ".join(step), err))
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "e2e_bench")


def run_child(binary, args):
    """Runs e2e_bench; returns its parsed JSON-line records."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=CHILD_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("e2e_bench %s failed: %s" % (" ".join(args), err))
    if done.returncode != 0:
        die("e2e_bench %s exited with %d" % (" ".join(args), done.returncode))
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def source_digest(root):
    """sha256 over the simulator and benchmark sources: names the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".py", ".txt", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def fingerprint(root, seed, cpu_score):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"cpu_model": model, "hardware_threads": os.cpu_count(),
            "calibration_mrounds_per_s": round(cpu_score, 1),
            "commit": commit, "source_sha256": source_digest(root),
            "seed": seed}


def load_golden():
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def output_failures(workload, seed, records, golden):
    """Labels of runs whose outputs fail a check, one entry per failing
    run record: conservation, trace verdict, run-to-run determinism and,
    on the golden seed, the committed RunStats hash (skipped when `golden`
    is None, i.e. while recording it)."""
    expected = None
    if golden is not None and seed == GOLDEN_SEED:
        expected = golden.get(workload, {})
    first_hash = {}
    failures = []
    for r in records:
        label = r["label"]
        reasons = []
        if not r["conserved"]:
            reasons.append("arrivals != completions + in_flight_at_end")
        if r["verdict"] in ("truncated", "not_serializable"):
            reasons.append("trace verdict " + r["verdict"])
        if first_hash.setdefault(label, r["hash"]) != r["hash"]:
            reasons.append("hash differs between passes")
        if expected is not None and expected.get(label) != r["hash"]:
            reasons.append("hash %s != golden %s" %
                           (r["hash"], expected.get(label)))
        if r.get("ok") is False:
            reasons.append("traced run failed its checks")
        if r.get("identical") is False:
            reasons.append("traced stats differ from untraced")
        if r.get("recoff_identical") is False:
            reasons.append("recording changed the stats")
        if reasons:
            failures.append("%s: %s" % (label, "; ".join(reasons)))
    return failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def plain_metrics(records):
    by_pass = {}
    for r in records:
        if r["rec"] == "run" and r["pass"] > 0:  # Pass 0 is the warm-up.
            by_pass.setdefault(r["pass"], []).append(r)
    host_per_h, commits_per_s, setup, verify = [], [], [], []
    for rs in by_pass.values():
        run_s = sum(r["run_s"] for r in rs)
        sim_h = sum(r["sim_s"] for r in rs) / 3600.0
        host_per_h.append(run_s / sim_h)
        commits_per_s.append(sum(r["commits"] for r in rs) / run_s)
        setup.append(sum(r["setup_s"] for r in rs))
        verify.append(sum(r["check_s"] for r in rs))
    rss = [r["rss_mb"] for r in records  # Warm-up runs start trimmed.
           if r["rec"] == "run" and r["pass"] == 0]
    return {
        "host_s_per_sim_h": metric(statistics.median(host_per_h), "s/sim-h"),
        "commits_per_host_s": metric(statistics.median(commits_per_s), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MiB"),
    }, {"passes": len(by_pass), "verify_s": statistics.median(verify)}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rs):
    """Per-layer metrics over a set of traced records (one workload, or one
    scheduler's runs of it)."""
    total = lambda key: sum(r.get(key, 0) for r in rs)
    plain_s = total("run_s")
    timed_s = total("timed_run_s")
    sim_h = total("sim_s") / 3600.0
    busy_s = sum(total(h + "_ns") for h in
                 ("startup", "lock", "grant", "step", "end")) / 1e9
    m = {}
    m["sched.busy_s"] = metric(busy_s, "s")
    m["sched.share"] = metric(ratio(busy_s, timed_s), "fraction")
    for hook in ("startup", "lock", "grant", "step", "end"):
        calls = total(hook + "_calls")
        m["sched.%s.calls" % hook] = metric(calls, "count")
        m["sched.%s.ns_per_call" % hook] = metric(
            ratio(total(hook + "_ns"), calls), "ns")
    m["sched.grant_ratio"] = metric(
        ratio(total("grants"), total("decisions")), "fraction")
    hits, misses = total("cache.hits"), total("cache.misses")
    m["wtpg.evals"] = metric(total("wtpg.evals"), "count")
    m["cache.hits"] = metric(hits, "count")
    m["cache.misses"] = metric(misses, "count")
    m["cache.hit_rate"] = metric(ratio(hits, hits + misses), "fraction")
    events = total("timed_events")
    m["machine.busy_s"] = metric(timed_s - busy_s, "s")
    m["machine.share"] = metric(ratio(timed_s - busy_s, timed_s), "fraction")
    m["sim.events"] = metric(events, "count")
    m["sim.ns_per_event"] = metric(ratio(timed_s * 1e9, events), "ns")
    m["sim.events_per_commit"] = metric(
        ratio(events, total("timed_commits")), "count")
    retries = total("sched.decision_retries")
    m["machine.decision_retries"] = metric(retries, "count")
    m["machine.retry_ratio"] = metric(ratio(retries, total("decisions")),
                                      "fraction")
    m["machine.block_shortcuts"] = metric(total("sched.block_shortcuts"),
                                          "count")
    m["machine.in_flight_at_end"] = metric(total("in_flight"), "count")
    m["workload.txns"] = metric(total("workload_txns"), "count")
    m["workload.ns_per_txn"] = metric(
        ratio(total("workload_s") * 1e9, total("workload_txns")), "ns")
    m["state.peak_rss_mb"] = metric(max(r["rss_mb"] for r in rs), "MiB")
    m["setup.s_per_run"] = metric(ratio(total("setup_s"), len(rs)), "s")
    for name in ("fault.crashes", "fault.crash_victims",
                 "fault.injected_aborts"):
        m[name] = metric(total(name), "count")
    m["restarts"] = metric(total("restarts"), "count")
    recorded = total("trace_recorded")
    m["trace.recorded"] = metric(recorded, "count")
    m["trace.dropped"] = metric(total("trace_dropped"), "count")
    # Recording cost as a share of the recording-off run; 0 where the
    # workload records nothing.
    m["trace.record_share"] = metric(
        ratio(timed_s - total("recoff_run_s"), total("recoff_run_s"))
        if recorded else 0.0, "fraction")
    m["telemetry.samples"] = metric(total("telemetry_samples"), "count")
    m["analysis.check_s"] = metric(total("timed_check_s"), "s")
    m["analysis.summary_share"] = metric(ratio(total("summary_s"), timed_s),
                                         "fraction")
    untraced = ratio(plain_s, sim_h)
    traced = ratio(timed_s, sim_h)
    m["traced.host_s_per_sim_h"] = metric(traced, "s/sim-h")
    m["traced.overhead_s_per_sim_h"] = metric(traced - untraced, "s/sim-h")
    m["traced.overhead_share"] = metric(ratio(traced - untraced, untraced),
                                        "fraction")
    m["untraced.host_s_per_sim_h"] = metric(untraced, "s/sim-h")
    return m


def absent_counters(rs):
    return [name for name in TRACED_COUNTERS
            if not any(name in r for r in rs)]


def fmt(value):
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-32s %14s %s" % (name, fmt(m["value"]), m["unit"]))


def run_plain(binary, workload, seed, seconds, golden):
    records = run_child(binary, ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--mode", "plain"])
    runs = [r for r in records if r["rec"] == "run"]
    failures = output_failures(workload, seed, runs, golden)
    metrics, extra = plain_metrics(records)
    cpu_score = records[0]["cpu_score"]
    print_metrics("%s (untraced, warm-up + %d passes of %d runs, verify_s "
                  "%s)" % (workload, extra["passes"],
                           len(runs) // (extra["passes"] + 1),
                           fmt(extra["verify_s"])), metrics)
    return runs, failures, metrics, cpu_score


def run_traced(binary, workload, seed, golden):
    rs, cpu_score = [], 0.0
    for sched in SCHEDULERS:
        records = run_child(binary, ["--workload", workload, "--seed",
                                     str(seed), "--mode", "traced",
                                     "--scheduler", sched])
        cpu_score = max(cpu_score, records[0]["cpu_score"])
        rs += [r for r in records if r["rec"] == "traced"]
    failures = output_failures(workload, seed, rs, golden)
    metrics = layer_metrics(rs)
    metrics["run_fail_ratio"] = metric(ratio(len(failures), len(rs)),
                                       "fraction")
    print_metrics("%s (traced, %d runs; absent counters: %s)" %
                  (workload, len(rs), ", ".join(absent_counters(rs)) or
                   "none"), metrics)
    print("  per scheduler:")
    print("  %-6s %12s %12s %9s %9s %11s %12s %9s" %
          ("sched", "host_s/sim-h", "traced", "sched", "machine",
           "ns/event", "evts/commit", "rss_MiB"))
    for sched in SCHEDULERS:
        sm = layer_metrics([r for r in rs if r["sched"] == sched])
        metrics["untraced.host_s_per_sim_h." + sched] = sm[
            "untraced.host_s_per_sim_h"]
        metrics["sched.share." + sched] = sm["sched.share"]
        print("  %-6s %12s %12s %9s %9s %11s %12s %9s" % (
            sched, fmt(sm["untraced.host_s_per_sim_h"]["value"]),
            fmt(sm["traced.host_s_per_sim_h"]["value"]),
            fmt(sm["sched.share"]["value"]),
            fmt(sm["machine.share"]["value"]),
            fmt(sm["sim.ns_per_event"]["value"]),
            fmt(sm["sim.events_per_commit"]["value"]),
            fmt(sm["state.peak_rss_mb"]["value"])))
    return rs, failures, metrics, cpu_score


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced then "
                             "traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--record-golden", action="store_true",
                        help="write this commit's seed-1 RunStats hashes to "
                             "golden_seed1.json instead of checking them")
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be >= 1")
    if args.record_golden and (args.seed != GOLDEN_SEED or args.trace == 1):
        die("--record-golden needs --seed %d and --trace 0" % GOLDEN_SEED)

    root = os.getcwd()
    binary = build(root)
    golden = None if args.record_golden else load_golden()
    recorded = {}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else (
        [0] if args.workload else [0, 1])

    attempted, failures, all_metrics, cpu_score = 0, [], {}, 0.0
    for mode in modes:
        for workload in workloads:
            if mode == 0:
                runs, fails, metrics, cpu_score = run_plain(
                    binary, workload, args.seed, args.seconds, golden)
                if args.record_golden:
                    recorded.setdefault(workload, {}).update(
                        {r["label"]: r["hash"] for r in runs})
            else:
                runs, fails, metrics, cpu_score = run_traced(
                    binary, workload, args.seed, golden)
            attempted += len(runs)
            failures += fails
            prefix = "" if len(workloads) == 1 and len(modes) == 1 else (
                workload + "/")
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    if args.record_golden:
        merged = load_golden()
        merged.update(recorded)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded golden hashes for " + ", ".join(workloads))

    for failure in failures:
        print("FAILED " + failure)
    print("host " + json.dumps(fingerprint(root, args.seed, cpu_score)))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
