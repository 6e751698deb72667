#!/usr/bin/env python3
"""Perf-smoke gate: compare a bench metrics dump against the checked-in
baseline.

Usage: check_perf_baseline.py <metrics.json> <baseline.json> [factor]
       check_perf_baseline.py --update <metrics.json> <baseline.json>

<metrics.json> is the registry dump a bench binary writes via
--metrics-out / $NFACTOR_METRICS_OUT ({"counters": {...}, "gauges":
{...}}, plus a "meta" run-provenance key).  <baseline.json> maps gauge
names to reference values (see bench/perf_baseline.json).  The check
fails when any baselined gauge exceeds factor x its reference (default
2.0) — a deliberately loose bound: it tolerates CI-runner noise and
hardware drift but catches the step-function regressions this gate
exists for (e.g. the expression interner silently disabled, a cache key
that stopped hitting).

A gauge more than 2x *faster* than baseline is flagged STALE (non-fatal):
the baseline no longer reflects reality, and a regression back to the
old number would pass the gate unseen — refresh it with --update, which
rewrites every baselined gauge from the metrics file (non-gauge keys,
e.g. "_comment", are preserved).

A baseline entry whose value is null is a *placeholder*: the gauge was
just added (or is environment-dependent, like multi-core shard scaling
on a single-core runner) and has no trustworthy reference yet.  Such
entries report ADDED (informational, never FAIL/STALE) with the current
measurement, and are skipped without failing when the dump lacks them;
--update fills them with real numbers once one environment is blessed.

On failure the metrics file's "meta" stamp (git SHA, build type,
NFACTOR_OBS, jobs) is printed so the report names
the build that produced the numbers.

Exit codes: 0 ok, 1 regression, 2 usage/missing data.
"""

import json
import sys

STALE_FACTOR = 2.0  # >2x faster than baseline => baseline is stale


def update(metrics_path, baseline_path):
    with open(metrics_path) as f:
        gauges = json.load(f).get("gauges", {})
    with open(baseline_path) as f:
        baseline = json.load(f)

    missing = []
    for name in sorted(baseline):
        if name.startswith("_"):  # comment/provenance keys
            continue
        if name not in gauges:
            if baseline[name] is None:
                # Placeholder with no measurement in this run either:
                # leave it null rather than refusing the whole update.
                print(f"keep   {name}: null (absent from metrics dump)")
            else:
                missing.append(name)
            continue
        old = baseline[name]
        baseline[name] = round(float(gauges[name]), 3)
        print(f"update {name}: {old} -> {baseline[name]}")
    if missing:
        print(f"cannot update {len(missing)} gauge(s) absent from the "
              f"metrics dump: {', '.join(missing)}", file=sys.stderr)
        return 2

    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-smoke: baseline {baseline_path} rewritten from "
          f"{metrics_path}")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--update":
        if len(argv) != 4:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return update(argv[2], argv[3])

    if len(argv) < 3 or len(argv) > 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    factor = float(argv[3]) if len(argv) == 4 else 2.0

    with open(argv[1]) as f:
        metrics = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)
    gauges = metrics.get("gauges", {})

    failures = []
    stale = []
    added = []
    for name, ref in sorted(baseline.items()):
        if name.startswith("_"):  # comment/provenance keys
            continue
        if ref is None:
            # Newly-added gauge with no reference yet: report the current
            # value informationally, never gate on it.
            added.append(name)
            if name in gauges:
                print(f"ADDED {name}: current={float(gauges[name]):.2f} "
                      f"(no baseline yet)")
            else:
                print(f"ADDED {name}: not measured in this run "
                      f"(no baseline yet)")
            continue
        if name not in gauges:
            print(f"MISSING {name}: not in metrics dump", file=sys.stderr)
            failures.append(name)
            continue
        cur = float(gauges[name])
        limit = factor * float(ref)
        if cur > limit:
            verdict = "FAIL"
            failures.append(name)
        elif cur * STALE_FACTOR < float(ref):
            # Non-fatal: the measurement beat the baseline by more than
            # the gate's own tolerance, so the gate has gone blind to
            # regressions back up to the recorded number.
            verdict = "STALE"
            stale.append(name)
        else:
            verdict = "ok"
        print(f"{verdict:5} {name}: current={cur:.2f} baseline={ref:.2f} "
              f"limit={limit:.2f} ({factor:g}x)")

    if added:
        print(f"perf-smoke: note: {len(added)} gauge(s) have null "
              f"(placeholder) baselines — bless one environment's numbers "
              f"with --update to start gating them", file=sys.stderr)

    if stale:
        print(f"perf-smoke: warning: {len(stale)} gauge(s) are >"
              f"{STALE_FACTOR:g}x faster than baseline — refresh with "
              f"'check_perf_baseline.py --update <metrics.json> "
              f"<baseline.json>' so regressions stay visible",
              file=sys.stderr)

    if failures:
        print(f"perf-smoke: {len(failures)} gauge(s) regressed beyond "
              f"{factor:g}x baseline", file=sys.stderr)
        meta = metrics.get("meta")
        if meta:
            print(f"perf-smoke: run meta: {json.dumps(meta, sort_keys=True)}",
                  file=sys.stderr)
        return 1
    print("perf-smoke: all gauges within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
