#!/usr/bin/env python3
"""Build and run the DiTyCO benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N]

The first form builds perfbench/bench.exe with dune (into .bench_build)
and runs one workload.  It prints the run header and a metric table,
each line starting with '#', and as its last line one JSON object with
the keys correct, attempted, failed and metrics.  Traced runs write
their spans to perfbench/_out/.

The second form is the benchmark's self-check: each workload runs twice
with one seed and once with the next; every run must be correct, and on
the deterministic-engine workloads the counts of the two same-seed runs
must agree exactly.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT_DIR = os.path.join("perfbench", "_out")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["local-objects", "remote-mix", "par-fanout"]
DETERMINISTIC = ["local-objects", "remote-mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout), 1)
    return proc.returncode, out


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "%s src:%s" % (commit, h.hexdigest()[:12])


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no DiTyCO sources here: run from the root of a checkout (dune-project and lib/ are missing)")
    code, _ = run_group(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
                         "./perfbench/bench.exe"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not os.path.isfile(EXE):
        die("build failed", 3)


def bench(workload, seed, seconds, trace, commit):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.join(ROOT, OUT_DIR))
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, env=env)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if code != 0 or not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        die("bench.exe exited %d without a result" % code, 1)
    return lines, result


def header(lines, key):
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "#" and parts[1] == key:
            return parts[2]
    return None


def self_check(seed, commit):
    ok = True
    for w in WORKLOADS:
        runs = [(seed, bench(w, seed, 1, 0, commit)), (seed, bench(w, seed, 1, 0, commit)),
                (seed + 1, bench(w, seed + 1, 1, 0, commit))]
        bad = [(s, header(lines, "failure")) for s, (lines, result) in runs if not result["correct"]]
        for s, why in bad:
            print("FAIL %s seed %d: not correct (%s)" % (w, s, why))
        a, b = (header(r[1][0], "fingerprint") for r in runs[:2])
        if w in DETERMINISTIC and (a is None or a != b):
            bad.append((seed, None))
            print("FAIL %s seed %d: deterministic counts differ between runs: %s / %s" % (w, seed, a, b))
        if not bad:
            repeat = "counts repeat (%s); " % a if w in DETERMINISTIC else ""
            print("ok   %s: %sseeds %d and %d pass the oracle" % (w, repeat, seed, seed + 1))
        ok = ok and not bad
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and (args.workload is None or args.seconds is None or args.seconds < 1):
        ap.error("--workload and --seconds (>= 1) are required")
    start = time.monotonic()
    build()
    print("# build_s %.3f" % (time.monotonic() - start), file=sys.stderr)
    commit = source_id()
    if args.self_check:
        sys.exit(0 if self_check(args.seed, commit) else 1)
    lines, _ = bench(args.workload, args.seed, args.seconds, args.trace, commit)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
