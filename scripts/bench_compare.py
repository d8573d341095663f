#!/usr/bin/env python3
"""Diff a fresh bench_simcore JSON against the committed baseline.

Every field of every row is classified and checked:

  * structure: both files must have the same rows and the same keys
    (a vanished row or a renamed field is a regression in itself);
  * booleans and strings (events_identical, work_conserved, app,
    plan, ...): must match the baseline exactly;
  * integer counts (events, transfers, items_tracked, ...): must
    match exactly — the simulation is deterministic, so a changed
    event count means the model changed, not the machine;
  * simulated-cycle floats (single_cycles, gain, speedup, ...):
    must match within --rel-tol (default 1e-9), same reasoning;
  * wall-clock timings (*_seconds, events_per_sec): machine-relative,
    so they only fail when they differ from the baseline by more than
    a factor of --time-factor (default 10);
  * machine-relative ratios (overhead_ratio, ...): reported, never
    failed — the bench binary already gates those against absolute
    budgets via its exit code.

Usage: bench_compare.py fresh.json [baseline.json]
The baseline defaults to BENCH_simcore.json next to this script's
repository root. Exit status 0 when the fresh run matches, 1 on any
mismatch, 2 on usage/parse errors.
"""

import json
import os
import sys

# Keys whose values depend on the host machine, never on the model.
TIMING_SUFFIXES = ("seconds", "events_per_sec", "requests_per_sec",
                   "frames_per_sec")
INFO_KEYS = {
    "overhead_ratio",
    "disabled_overhead_ratio",
}


def is_timing(key):
    return any(key.endswith(s) for s in TIMING_SUFFIXES)


def compare_value(path, fresh, base, opts, errors, infos):
    if isinstance(base, dict):
        if not isinstance(fresh, dict):
            errors.append("%s: expected object, got %r" % (path, fresh))
            return
        for key in sorted(set(base) | set(fresh)):
            sub = "%s.%s" % (path, key)
            if key not in fresh:
                errors.append("%s: missing from fresh run" % sub)
            elif key not in base:
                errors.append("%s: not in baseline (new field? "
                              "refresh the baseline)" % sub)
            elif key in INFO_KEYS:
                infos.append("%s: %r (baseline %r, not gated)"
                             % (sub, fresh[key], base[key]))
            else:
                compare_value(sub, fresh[key], base[key], opts,
                              errors, infos)
    elif isinstance(base, list):
        if not isinstance(fresh, list):
            errors.append("%s: expected array, got %r" % (path, fresh))
        elif len(fresh) != len(base):
            errors.append("%s: %d entries vs %d in baseline"
                          % (path, len(fresh), len(base)))
        else:
            for i, (f, b) in enumerate(zip(fresh, base)):
                compare_value("%s[%d]" % (path, i), f, b, opts,
                              errors, infos)
    elif isinstance(base, bool):
        if fresh is not base:
            errors.append("%s: %r vs baseline %r"
                          % (path, fresh, base))
    elif isinstance(base, (int, float)):
        if not isinstance(fresh, (int, float)) \
                or isinstance(fresh, bool):
            errors.append("%s: non-numeric %r" % (path, fresh))
        elif is_timing(path.rsplit(".", 1)[-1]):
            lo, hi = sorted([abs(fresh), abs(base)])
            if lo > 0 and hi / lo > opts["time_factor"]:
                errors.append(
                    "%s: %g vs baseline %g (off by %.1fx, "
                    "budget %gx)" % (path, fresh, base, hi / lo,
                                     opts["time_factor"]))
        elif isinstance(base, int) and isinstance(fresh, int):
            if fresh != base:
                errors.append("%s: %d vs baseline %d"
                              % (path, fresh, base))
        else:
            scale = max(abs(fresh), abs(base), 1.0)
            if abs(fresh - base) > opts["rel_tol"] * scale:
                errors.append("%s: %g vs baseline %g (rel tol %g)"
                              % (path, fresh, base, opts["rel_tol"]))
    else:  # strings
        if fresh != base:
            errors.append("%s: %r vs baseline %r"
                          % (path, fresh, base))


def match_rows(fresh, base, opts, errors, infos):
    """Top-level `rows` arrays are matched by row name, not index."""
    by_name = {r.get("name"): r for r in base if isinstance(r, dict)}
    seen = set()
    for r in fresh:
        name = r.get("name") if isinstance(r, dict) else None
        if name not in by_name:
            errors.append("rows[%r]: not in baseline" % name)
            continue
        seen.add(name)
        compare_value("rows[%r]" % name, r, by_name[name], opts,
                      errors, infos)
    for name in by_name:
        if name not in seen:
            errors.append("rows[%r]: missing from fresh run" % name)


def main(argv):
    opts = {"rel_tol": 1e-9, "time_factor": 10.0}
    paths = []
    for a in argv[1:]:
        if a.startswith("--rel-tol="):
            opts["rel_tol"] = float(a.split("=", 1)[1])
        elif a.startswith("--time-factor="):
            opts["time_factor"] = float(a.split("=", 1)[1])
        else:
            paths.append(a)
    if not paths or len(paths) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_path = paths[0]
    base_path = paths[1] if len(paths) == 2 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_simcore.json")

    docs = []
    for path in (fresh_path, base_path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print("%s: cannot parse: %s" % (path, e), file=sys.stderr)
            return 2
    fresh, base = docs

    errors, infos = [], []
    if fresh.get("smoke") != base.get("smoke"):
        print("%s: smoke=%r but baseline %s has smoke=%r — "
              "regenerate the baseline with the matching mode"
              % (fresh_path, fresh.get("smoke"), base_path,
                 base.get("smoke")), file=sys.stderr)
        return 2

    for key in sorted(set(base) | set(fresh)):
        if key == "smoke":
            continue
        if key not in fresh:
            errors.append("%s: missing from fresh run" % key)
        elif key not in base:
            errors.append("%s: not in baseline (new section? "
                          "refresh the baseline)" % key)
        elif key == "rows":
            match_rows(fresh[key], base[key], opts, errors, infos)
        else:
            compare_value(key, fresh[key], base[key], opts, errors,
                          infos)

    for line in infos:
        print("  note: " + line)
    for line in errors:
        print("MISMATCH " + line, file=sys.stderr)
    if errors:
        print("%s: %d mismatch(es) vs %s"
              % (fresh_path, len(errors), base_path), file=sys.stderr)
        return 1
    print("%s: OK, matches %s" % (fresh_path, base_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
