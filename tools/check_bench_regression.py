#!/usr/bin/env python3
"""Guard against pipeline-stage performance regressions in CI.

Compares one or more pipeline stages' total wall-clock between a baseline
BENCH_pipeline.json (checked in at the repo root) and a freshly generated
report, over the *intersection* of spec names (the baseline sweeps more specs
than the CI smoke run).  Repeat --stage to guard several stages in one run
(the nightly workflow watches `reduce` and `logic`); the exit code reports
the worst verdict across them.  Report schema_versions 1 through 6 are all
accepted (v2 adds store/queue aggregates, v3 the impl-verification fields and
emit/verify stage timings, v4 the metrics-registry "counters" block, v5 the
labels of a since-removed search-quality dial, v6 a per-spec deadline_hit
flag in their place, all above or beside the specs[] layout this reads).
A v4+ report missing its counters block is rejected: that key is part of the
schema contract.  So is a report with a row whose search was cut short -- a
v6 row with "deadline_hit": true, or a v5 exact-mode row with a nonzero gap:
a cut search's timings cannot gate full-search budgets.
Do NOT feed it a store-warmed report: a hit's timings describe the producing
run, not this machine.

Raw milliseconds are not comparable across machines, so by default the stage
total is normalised by a calibration total -- the sum of the `expand` and
`state-graph` stages over the same spec set.  Those stages are plain graph
construction that no engine knob touches, so the ratio
    stage_total / calibration_total
cancels machine speed to first order.  Pass --absolute to compare raw
milliseconds instead (useful when baseline and current ran on one machine).

Exit code 0 = within budget, 1 = regression, 2 = usage/data error.

Example (the CI bench-smoke job):
    asynth batch --count 8 --jobs 2 --report BENCH_current.json
    python3 tools/check_bench_regression.py \
        --baseline BENCH_pipeline.json --current BENCH_current.json \
        --stage reduce --max-regress-pct 25
"""

import argparse
import json
import sys

CALIBRATION_STAGES = ("expand", "state-graph")


def die(message):
    """Data/usage error: exit 2 so CI can tell it apart from a regression (1)."""
    print(message, file=sys.stderr)
    sys.exit(2)


SUPPORTED_SCHEMAS = (1, 2, 3, 4, 5, 6)  # v2 adds store hit/miss + queue-wait
                                        # aggregates, v3 impl-verification
                                        # fields and emit/verify stage timings,
                                        # v4 the counters block, v5 the quality
                                        # label + gap, v6 deadline_hit in their
                                        # place; the per-spec layout this tool
                                        # reads is shared.


def load_specs(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        die(f"error: cannot read {path}: {e}")
    if report.get("schema_version") not in SUPPORTED_SCHEMAS:
        die(f"error: {path} has schema_version {report.get('schema_version')!r} "
            f"(supported: {SUPPORTED_SCHEMAS})")
    if report.get("schema_version") >= 4:
        counters = report.get("counters")
        if not isinstance(counters, dict):
            die(f"error: {path} is schema_version >= 4 but has no counters object")
        bad = [k for k, v in counters.items() if not isinstance(v, int) or v < 0]
        if bad:
            die(f"error: {path} counters carry non-count values: {bad}")
    specs = report.get("specs")
    if not isinstance(specs, list) or not specs:
        die(f"error: {path} has no specs[]")
    if report.get("schema_version") >= 6:
        # A deadline-cut row ran only part of its search: its timings cannot
        # gate full-search budgets.
        cut = [s.get("name") for s in specs if s.get("deadline_hit") is True]
        if cut:
            die(f"error: {path} has deadline-cut specs: {cut}")
    elif report.get("schema_version") == 5:
        # The v5 form of the same rule: exact search declares no gap by
        # definition, so a nonzero gap on an exact row means the report does
        # not describe a full exact sweep.
        lying = [s.get("name") for s in specs
                 if s.get("quality", "exact") == "exact" and s.get("bound_gap", 0)]
        if lying:
            die(f"error: {path} has exact-mode specs with nonzero bound_gap: {lying}")
    return {s["name"]: s for s in specs if "name" in s}


def stage_total(specs, names, stage):
    key = f"{stage}_ms"
    samples = [float(specs[n][key]) for n in names if key in specs[n]]
    if not samples:
        # A renamed/dropped stage key must not read as a -100% "improvement":
        # that is exactly when the gate would be defeated silently.
        die(f"error: no {key} samples over the common specs "
            "(schema change? rerun with a matching --stage)")
    return sum(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True, help="checked-in BENCH_pipeline.json")
    ap.add_argument("--current", required=True, help="freshly generated report")
    ap.add_argument("--stage", action="append", default=None,
                    help="stage to guard; repeat for several (default: reduce)")
    ap.add_argument("--max-regress-pct", type=float, default=25.0,
                    help="maximum allowed regression in percent (default: 25)")
    ap.add_argument("--absolute", action="store_true",
                    help="compare raw milliseconds instead of calibrated ratios")
    args = ap.parse_args()
    stages = args.stage or ["reduce"]

    base = load_specs(args.baseline)
    cur = load_specs(args.current)
    common = sorted(set(base) & set(cur))
    if not common:
        die("error: baseline and current share no spec names")

    if not args.absolute:
        base_cal = sum(stage_total(base, common, s) for s in CALIBRATION_STAGES)
        cur_cal = sum(stage_total(cur, common, s) for s in CALIBRATION_STAGES)
        if base_cal <= 0.0 or cur_cal <= 0.0:
            die("error: calibration stages missing; rerun with --absolute")

    failed = False
    for stage in stages:
        base_stage = stage_total(base, common, stage)
        cur_stage = stage_total(cur, common, stage)
        if base_stage <= 0.0:
            die(f"error: baseline has no {stage}_ms samples over the common specs")

        if args.absolute:
            base_metric, cur_metric, unit = base_stage, cur_stage, "ms"
        else:
            base_metric, cur_metric = base_stage / base_cal, cur_stage / cur_cal
            unit = f"x {'+'.join(CALIBRATION_STAGES)}"

        change_pct = 100.0 * (cur_metric - base_metric) / base_metric
        print(f"{stage} over {len(common)} common specs: "
              f"baseline {base_metric:.3f} {unit}, current {cur_metric:.3f} {unit} "
              f"({change_pct:+.1f}%)")

        if change_pct > args.max_regress_pct:
            print(f"FAIL: {stage} regressed {change_pct:.1f}% "
                  f"(budget {args.max_regress_pct:.0f}%)")
            failed = True
        else:
            print(f"OK: {stage} within the {args.max_regress_pct:.0f}% budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
