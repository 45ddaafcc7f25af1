#!/usr/bin/env python3
"""Steadiness report: two sets of runs of every workload in BENCHMARK.json,
each run with another seed, and for every end-to-end metric the median,
quartiles, quartile spread (IQR / median) and max/min ratio of each set,
then how far the second set's median moved from the first's.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md

Each set runs seeds 0..runs-1 on every workload for the manifest's
run_seconds. Quartiles are Python's ``statistics.quantiles(values, n=4)``.
A spread is ``ok`` below a third of the metric's bound, ``near`` up to the
bound and ``OVER`` beyond it; a median that got worse by more than the
bound between the sets is ``OVER`` too. The exit code is 1 when anything
is ``OVER`` or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    record = json.loads(lines[-1])
    if not record["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    context = next((l for l in lines if l.startswith("workload=")), "")
    return record, context, elapsed


def run_set(manifest, runs, label):
    """Per workload: the records, the machine context and process walls."""
    out = {}
    for w in manifest["workloads"]:
        name = w["name"]
        records, walls, context = [], [], ""
        for seed in range(runs):
            record, context, elapsed = run_once(manifest["command"], name, seed,
                                                manifest["run_seconds"])
            records.append(record)
            walls.append(elapsed)
            print(f"{label} {name} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        out[name] = (records, context, walls)
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    ratio = max(values) / min(values) if min(values) > 0 else float("inf")
    return q1, q2, q3, spread, ratio


def spread_verdict(spread, bound):
    if spread <= bound / 3:
        return "ok"
    return "near" if spread <= bound else "OVER"


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None, help="write the markdown report here")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    metrics = manifest["end_to_end"]
    sets = [run_set(manifest, args.runs, "set 1"), run_set(manifest, args.runs, "set 2")]

    over = False
    out = ["# Steadiness report\n",
           f"Two sets of {args.runs} runs per workload, seeds 0..{args.runs - 1}, "
           f"{manifest['run_seconds']} s each, set 2 after set 1. "
           "spread = (Q3 - Q1) / median; shift = how much worse set 2's median is "
           "than set 1's, as a share of it.\n"]
    for w in manifest["workloads"]:
        name = w["name"]
        out.append(f"\n## {name}\n")
        for i, s in enumerate(sets):
            records, context, walls = s[name]
            out.append(f"- set {i + 1}: `{context.split(' ', 4)[-1]}`; process wall per run "
                       f"{min(walls):.1f}-{max(walls):.1f} s; failed/attempted per run "
                       f"{sorted({(r['failed'], r['attempted']) for r in records})}")
        out.append("")
        out.append("| metric | unit | bound | median 1 | spread 1 | max/min 1 "
                   "| median 2 | spread 2 | max/min 2 | shift | verdict |")
        out.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            row, verdicts, medians = [], [], []
            for s in sets:
                records = s[name][0]
                values = [r["metrics"][m["name"]]["value"] for r in records]
                _, q2, _, spread, ratio = summarize(values)
                medians.append(q2)
                verdicts.append(spread_verdict(spread, m["bound"]))
                row += [f"{q2:.6g}", f"{spread:.4f}", f"{ratio:.3f}"]
            shift = worse_by(medians[0], medians[1], m["better"])
            if shift > m["bound"]:
                verdicts.append("OVER")
            verdict = max(verdicts, key=["ok", "near", "OVER"].index)
            over |= verdict == "OVER"
            unit = sets[0][name][0][0]["metrics"][m["name"]]["unit"]
            out.append(f"| {m['name']} | {unit} | {m['bound']} | " + " | ".join(row)
                       + f" | {shift:+.4f} | {verdict} |")
    text = "\n".join(out) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
