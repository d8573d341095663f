#!/usr/bin/env python3
"""Check that a change leaves every perfbench fingerprint unchanged.

Usage, from anywhere inside the repository:

    python3 scripts/fingerprint_parity.py REV

Exports REV (any git revision, e.g. HEAD or a parent commit) into a
temporary directory with `git archive`, then builds perfbench there
and in the working tree with perfbench/run.py. Each workload runs
once per seed with --seconds 0 (set-up plus one timed pass) at seeds
0 and 7, and the `fingerprint` lines of the two builds are compared
key by key: every simulated count, cycle total, metric and tuned
winner. A speed-only change must keep them all.

Prints each key that differs and exits 1; exits 0 when every
fingerprint matches and 2 when REV cannot be exported or a build or
run fails. The script only
reads perfbench/; run.py writes its build tree to .bench_build/ of
each checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("fig11-k20c", "vidstream-serve", "shard-failover")
SEEDS = (0, 7)


def repo_root():
    return subprocess.check_output(
        ["git", "rev-parse", "--show-toplevel"], text=True).strip()


def export(root, rev, dest):
    """Write the tree of @rev under dest (no .git metadata)."""
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.call(["tar", "-x", "-C", dest],
                            stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar != 0:
        sys.stderr.write("fingerprint_parity: cannot export %s\n" % rev)
        sys.exit(2)


def flatten(obj, prefix=""):
    """Nested JSON objects as one {dotted.key: value} map."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(flatten(value, prefix + "." + key if prefix else key))
    return out


def perfbench(checkout, workload, seed, seconds=0.0):
    """Run one workload with perfbench/run.py in checkout (building it
    when needed): its (fingerprint, result JSON), or None on failure."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    prints = [line for line in lines if line.startswith("fingerprint ")]
    if proc.returncode == 0 and prints:
        return (flatten(json.loads(prints[0][len("fingerprint "):])),
                json.loads(lines[-1]))
    sys.stderr.write(proc.stderr[-4000:])
    sys.stderr.write("perfbench: %s seed %d failed in %s\n"
                     % (workload, seed, checkout))
    return None


def fingerprint(checkout, workload, seed):
    """One --seconds 0 pass in checkout; its fingerprint, or None."""
    out = perfbench(checkout, workload, seed)
    return out[0] if out else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="git revision to compare against")
    args = ap.parse_args()

    root = repo_root()
    base = tempfile.mkdtemp(prefix="fingerprint-parity-")
    try:
        export(root, args.rev, base)
        diffs = 0
        for workload in WORKLOADS:
            for seed in SEEDS:
                old = fingerprint(base, workload, seed)
                new = fingerprint(root, workload, seed)
                if old is None or new is None:
                    return 2
                for key in sorted(set(old) | set(new)):
                    if old.get(key) != new.get(key):
                        diffs += 1
                        print("%s seed %d %s: %s -> %s"
                              % (workload, seed, key, old.get(key),
                                 new.get(key)))
                print("%s seed %d: %d keys compared"
                      % (workload, seed, len(set(old) | set(new))))
        if diffs:
            print("fingerprint_parity: %d keys differ from %s"
                  % (diffs, args.rev))
            return 1
        print("fingerprint_parity: every fingerprint matches %s"
              % args.rev)
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
