#!/usr/bin/env python3
"""The asynth benchmark: builds the driver, runs one workload, reports.

    python3 perfbench/run.py --workload sweep|serve --seed N --seconds S \
        --trace 0|1

Run from the repository root.  The script builds the library, the `asynth`
CLI and perfbench/driver.cpp (Release) into .bench_build/perfbench, runs the
driver, checks its outputs, and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload runs untraced and then traced at half size each, the Chrome traces
are checked with tools/validate_trace.py, and the metrics are the per-layer
ones.  See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep", "serve")
STAGES = (("expand", "expand"), ("state-graph", "state_graph"), ("reduce", "reduce"),
          ("csc", "csc"), ("logic", "logic"), ("perf", "perf"), ("recover", "recover"),
          ("emit", "emit"), ("verify", "verify"))
DRIVER_TIMEOUT_S = 170
# Per-layer metrics of the service layer, which the sweep does not touch.
SERVICE_MS = ("service.hit_ms.p50", "service.hit_ms.tail", "service.miss_ms.p50",
              "service.miss_ms.tail", "service.hit_service_ms.p50",
              "service.miss_overhead_ms.p50", "service.queue_ms.p50", "service.queue_ms.tail",
              "service.transport_ms.p50", "service.synth_ms.p50")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def local_env():
    """The environment with TMPDIR inside the build tree: the compiler and
    every process the benchmark starts keep their files in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the driver and the asynth CLI; returns paths."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_driver", "asynth"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                              env=local_env()).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed (see " + log_path + ")")
    return (os.path.join(BUILD, "perfbench_driver"), os.path.join(BUILD, "asynth", "asynth"))


def run_driver(cmd):
    """Runs the driver in its own process group and returns (stdout, exit
    code; -1 on timeout).  Whatever the outcome, every process left in the
    group (a serve daemon) is killed and waited for."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=local_env(), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stdout, code = "", -1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while True:  # orphans are not our children: poll until the group is gone
            time.sleep(0.05)
            os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    proc.wait()
    return stdout, code


def validate_trace(paths):
    """Runs the repository's trace validator over @p paths (read-only use)."""
    validator = os.path.join(ROOT, "tools", "validate_trace.py")
    for i in range(0, len(paths), 200):
        proc = subprocess.run([sys.executable, validator] + paths[i:i + 200],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode:
            return proc.stderr.strip() or "trace validation failed"
    return ""


def span_totals(paths):
    """Summed durations (ms) of each span name over Chrome traces."""
    totals = {}
    for path in paths:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        open_spans = {}
        for ev in events:
            key = (ev.get("pid"), ev.get("tid"))
            if ev["ph"] == "B":
                open_spans.setdefault(key, []).append(ev)
            elif ev["ph"] == "E":
                begin = open_spans[key].pop()
                totals[begin["name"]] = totals.get(begin["name"], 0.0) + \
                    (ev["ts"] - begin["ts"]) / 1e3
    return totals


class Report:
    """Collects metrics and prints them, one line each, with their units.
    A metric that cannot be computed is a problem of the run: the manifest
    promises every metric on every workload."""

    def __init__(self, problems):
        self.metrics = {}
        self.lines = []
        self.problems = problems

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())

    def add_median_tail(self, prefix, samples, unit):
        if not samples:
            self.problems.append(f"{prefix}: no samples")
            return
        self.add(prefix + ".p50", stats.median(samples), unit, f"(n={len(samples)})")
        t = stats.tail(samples)
        if t is None:
            self.problems.append(f"{prefix}.tail: fewer than {stats.MIN_BEYOND} samples "
                                 f"beyond p90 (n={len(samples)})")
            return
        value, p, beyond = t
        self.add(prefix + ".tail", value, unit,
                 f"(p{p:g}, {beyond} samples beyond, n={len(samples)})")

    def add_absent(self, names, unit, why):
        """Metrics of a layer the workload does not touch: measured as 0."""
        for name in names:
            self.add(name, 0.0, unit, why)


def end_to_end(workload, doc, rep):
    u = doc["untraced"]
    setup = u["setup_s"] if workload == "serve" else doc["setup_s"]
    rep.add("setup_s", stats.median(setup), "s", f"(median of {len(setup)} set-ups)")
    if workload == "sweep":
        n, passes = doc["specs"], len(u["wall_s"])
        rep.add("specs_per_s", stats.median([n / w for w in u["wall_s"]]), "1/s",
                f"(median of {passes} passes of {n:.0f} specs)")
        rep.add("cpu_ms_per_spec", stats.median([1e3 * c / n for c in u["cpu_s"]]), "ms",
                "(process CPU, median of passes)")
        rep.add_median_tail("latency_ms", u["spec_ms"], "ms")
        rss = doc["peak_rss_kb"]
    else:
        n, walls, cpus = u["window_requests"], u["window_wall_s"], u["window_cpu_s"]
        rep.add("specs_per_s", stats.median([n / w for w in walls]), "1/s",
                f"(median of {len(walls)} windows of {n:.0f} requests)")
        rep.add("cpu_ms_per_spec", stats.median([1e3 * c / n for c in cpus]), "ms",
                "(daemon CPU, median of windows)")
        rep.add_median_tail("latency_ms", u["hit_ms"] + u["miss_ms"], "ms")
        rss = u["daemon_peak_rss_kb"]
    rep.add("peak_rss_mb", rss / 1024.0, "MB")
    rep.add("area_sum", doc["area_sum"], "area")
    rep.add("cycle_sum", doc["cycle_sum"], "units")
    rep.add("ok_frac", doc["ok"] / doc["attempted"], "ratio",
            f"({doc['ok']:.0f} of {doc['attempted']:.0f})")


def per_layer(workload, doc, rep, problems):
    u, t = doc["untraced"], doc["traced"]
    if workload == "serve":
        trace_dir = os.path.join(ROOT, doc["trace_dir"])
        traces = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir))
        units = 1
    else:
        traces = doc["trace_files"]
        units = len(t["wall_s"])
    if not traces:
        problems.append("traced run wrote no trace")
        return
    problem = validate_trace(traces)
    if problem:
        problems.append("trace: " + problem)
    spans = span_totals(traces)

    stage_ms = t["stage_ms"] if workload != "serve" else spans
    per = "per pass" if workload == "sweep" else "per run"
    for stage, name in STAGES:
        rep.add(name + ".ms", stage_ms.get(stage, 0.0) / units, "ms", per)
    rep.add("sg.states", t["states"] / units, "count")
    rep.add("sg.arcs", t["arcs"] / units, "count")
    rep.add("reduce.explored", t["explored"] / units, "count")
    rep.add("reduce.pruned_frac", t["pruned"] / max(t["explored"], 1), "ratio")
    rep.add("csc.signals", t["csc_signals"] / units, "count")
    rep.add("logic.literals", t["literals"] / units, "count")
    rep.add("verify.states", t["verify_states"] / units, "count")

    stage_total = sum(spans.get(stage, 0.0) for stage, _ in STAGES)
    rep.add("pipeline.cover_frac", stage_total / max(spans.get("pipeline", 0.0), 1e-9),
            "ratio", "(stage spans / pipeline spans)")
    if workload == "sweep":
        jobs = 4
        rep.add("batch.busy_frac", t["pipeline_s"] / (sum(t["wall_s"]) * jobs), "ratio",
                "(batch::run_batch pool)")
        rep.add("batch.cpu_per_busy", sum(t["cpu_s"]) / t["pipeline_s"], "ratio")
        rep.add_absent(("store.hits", "store.misses", "store.writes"), "count",
                       "(sweep runs without a store)")
        rep.add_absent(SERVICE_MS, "ms", "(sweep bypasses the service)")
    else:
        workers = 1
        busy = sum(t["synth_ms"]) / 1e3
        rep.add("batch.busy_frac", busy / (t["wall_s"] * workers), "ratio",
                "(daemon's worker pool, measured phase)")
        rep.add("batch.cpu_per_busy", t["cpu_s"] / busy, "ratio", "(daemon CPU / synth time)")
        rep.add("store.hits", t["store_hits"], "count")
        rep.add("store.misses", t["store_misses"], "count")
        rep.add("store.writes", t["store_writes"], "count")
        # Client latencies come from the untraced half, server-side splits
        # from the traced one.
        rep.add_median_tail("service.hit_ms", u["hit_ms"], "ms")
        rep.add_median_tail("service.miss_ms", u["miss_ms"], "ms")
        rep.add("service.hit_service_ms.p50", stats.median(t["hit_service_ms"]), "ms")
        rep.add("service.miss_overhead_ms.p50", stats.median(t["miss_overhead_ms"]), "ms")
        rep.add_median_tail("service.queue_ms", t["queue_ms"], "ms")
        rep.add("service.transport_ms.p50", stats.median(t["transport_ms"]), "ms")
        rep.add("service.synth_ms.p50", stats.median(t["synth_ms"]), "ms")

    def wall(d):
        return sum(d["wall_s"]) if isinstance(d["wall_s"], list) else d["wall_s"]
    rep.add("trace_overhead_frac", wall(t) / wall(u) - 1.0, "ratio",
            "(traced / untraced wall - 1, same work)")


def serve_accounting(doc, problems):
    """Checks the serve phases against their schedules; returns report lines."""
    lines = []
    for half in ("untraced", "traced"):
        d = doc.get(half)
        if not d:
            continue
        for phase in ("warmup", "measured"):
            c = d[phase]
            lines.append(f"  {half} {phase:<9} sent {c['sent']:.0f}, ok {c['ok']:.0f}, "
                         f"failed {c['failed']:.0f}, refused {c['refused']:.0f}")
        for kind in ("hits", "misses"):
            want = d["scheduled_" + kind]
            for source, got in (("responses", d[kind]), ("op:stats", d["store_" + kind])):
                if got != want:
                    problems.append(f"{half}: {got:.0f} store {kind} in {source}, "
                                    f"schedule has {want:.0f}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver, asynth = build()
    # Relative to ROOT (the driver's cwd): the daemon's socket path must stay
    # short whatever the checkout's location.
    workdir = os.path.relpath(os.path.join(BUILD, "work-" + args.workload), ROOT)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.tsv"), "--workdir", workdir, "--asynth", asynth]
    stdout, code = run_driver(cmd)
    if code:
        fail(f"driver exited with code {code}" if code > 0 else
             f"driver exceeded {DRIVER_TIMEOUT_S} s")
    doc = json.loads(stdout.strip().splitlines()[-1])

    problems = list(doc["failures"])
    rep = Report(problems)
    extra = serve_accounting(doc, problems) if args.workload == "serve" else []
    if args.trace:
        per_layer(args.workload, doc, rep, problems)
    else:
        end_to_end(args.workload, doc, rep)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)

    attempted = int(doc["attempted"])
    failed = attempted - int(doc["ok"])
    correct = failed == 0 and not problems
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {'correct' if correct else 'INCORRECT'}, "
          f"{attempted - failed}/{attempted} outputs ok")
    for line in extra + rep.lines:
        print(line)
    for p in problems:
        print("  problem: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": rep.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
