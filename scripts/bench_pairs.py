#!/usr/bin/env python3
"""Time a change against a revision in alternated perfbench pairs.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py REV --workload vidstream-serve \\
        --pairs 10 --seconds 30 [--first-seed 100]

Exports REV (e.g. the parent commit) with `git archive` into a
temporary directory, the way scripts/fingerprint_parity.py does, and
runs one workload of perfbench/run.py there (the parent side) and in
the working tree (the change side). Pair i runs both sides at seed
first-seed + i, so every pair has fresh inputs; even pairs run the
parent first, odd pairs the change. Each side builds its own
.bench_build/ on its first run.

Prints each pair's end-to-end metrics (the `end_to_end` list of
BENCHMARK.json), then per metric each side's median and quartiles and
how many pairs the change won. Last, whether `cpu_s` meets the gain
rule: the change wins at least 9 of every 10 pairs, and its median
beats the parent's by more than the parent's interquartile range.

Exits 0 when every run passed (whatever the timings say), 2 when REV
cannot be exported or a run fails or reports failed operations. It
reads perfbench/ and writes nothing there.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fingerprint_parity  # noqa: E402  (export and run helpers)


def quartiles(values):
    """(q1, median, q3) of values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(metric, a, b):
    """True when value a is strictly better than b for metric."""
    return a < b if metric["better"] == "lower" else a > b


def gain_rule(metric, parent, change, wins):
    """The claim rule: 9 of 10 pairs won, median gap above the IQR."""
    q1, med, q3 = quartiles(parent)
    gap = med - statistics.median(change)
    if metric["better"] != "lower":
        gap = -gap
    return 10 * wins >= 9 * len(parent) and gap > q3 - q1, gap, q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="git revision of the parent side")
    ap.add_argument("--workload", required=True,
                    choices=fingerprint_parity.WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, default=100,
                    help="seed of the first pair; pair i uses +i")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = fingerprint_parity.repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        fingerprint_parity.export(root, args.rev, base)
        sides = {"parent": base, "change": root}
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        wins = {m["name"]: 0 for m in metrics}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            got = {}
            for side in order:
                out = fingerprint_parity.perfbench(
                    sides[side], args.workload, seed, args.seconds)
                if out is None or not out[1].get("correct"):
                    sys.stderr.write("bench_pairs: %s run at seed %d "
                                     "failed\n" % (side, seed))
                    return 2
                got[side] = {name: v["value"]
                             for name, v in out[1]["metrics"].items()}
            for m in metrics:
                name = m["name"]
                for side in sides:
                    values[side][name].append(got[side][name])
                if better(m, got["change"][name], got["parent"][name]):
                    wins[name] += 1
            print("pair %d seed %d (%s first): %s" % (
                i + 1, seed, order[0], "  ".join(
                    "%s %.6g -> %.6g" % (m["name"],
                                         got["parent"][m["name"]],
                                         got["change"][m["name"]])
                    for m in metrics)))
        print("%-18s %34s %34s %6s" % ("metric", "parent q1/median/q3",
                                       "change q1/median/q3", "wins"))
        for m in metrics:
            name = m["name"]
            row = ["%.6g/%.6g/%.6g" % quartiles(values[side][name])
                   for side in ("parent", "change")]
            print("%-18s %34s %34s %3d/%d" % (name, row[0], row[1],
                                               wins[name], args.pairs))
        cpu = next(m for m in metrics if m["name"] == "cpu_s")
        met, gap, iqr = gain_rule(cpu, values["parent"]["cpu_s"],
                                  values["change"]["cpu_s"], wins["cpu_s"])
        print("cpu_s gain rule: %s (%d of %d pairs won, median gap %.6g "
              "s, parent IQR %.6g s)" % ("met" if met else "not met",
                                         wins["cpu_s"], args.pairs, gap,
                                         iqr))
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
