#!/usr/bin/env python3
"""Build and run the benchmark for one workload; print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--fault KIND]

The benchmark program (perfbench/main.ml) is built from source with dune
into .bench_build/ and run once, in its own process.  Its human-readable
lines are passed through; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The metrics
are the ones BENCHMARK.json lists: its end_to_end metrics with --trace 0,
its per_layer metrics (of the traced run; spans go to .bench_out/) with
--trace 1.  Figures the program prints beyond those, such as op_p50_us
and fail_frac, are kept in the history.

Every run is appended to perfbench/history.jsonl, keyed by a digest of
the sources and, in a git checkout, by the revision, suffixed "-dirty"
when the working tree differs from it, so perfbench/compare.py can
compare two versions of the program.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
HISTORY = os.path.join("perfbench", "history.jsonl")
WORKLOADS = ["figs-n100", "bcast-perfect", "bcast-lossy", "serve-mobile"]


def build():
    """Build the benchmark program; return its path, or exit 1 on failure."""
    # Without dune on PATH, let opam put the switch's tools there.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
                  "--cache", "disabled", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {r.returncode})")
    return os.path.join(ROOT, EXE)


def run_exe(exe, args, timeout=170):
    """Run the program; return (stdout lines, final JSON result, detail)."""
    r = subprocess.run([exe] + args, cwd=ROOT, capture_output=True, text=True,
                       timeout=timeout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench: benchmark program failed (exit {r.returncode})")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("#detail "):
            detail = json.loads(line[len("#detail "):])
    return lines, result, detail


def source_digest():
    """Digest of the library and benchmark sources: the history key that
    works without git."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def contract_metrics(trace):
    """The metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_revision():
    """HEAD's short revision, with "-dirty" appended when any file but the
    history differs from it; None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--no-renames"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None
    if not rev:
        return None
    changed = [line[3:] for line in status.splitlines() if line[3:] != HISTORY]
    return rev + "-dirty" if changed else rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fault", default="",
                    help="seeded defect: stale-pool (bcast-*), loss (bcast-perfect), "
                         "skip-maintenance (serve-mobile)")
    a = ap.parse_args()

    exe = build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.fault:
        args += ["--fault", a.fault]
    if a.trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        args += ["--spans", os.path.join(OUT_DIR, f"spans-{a.workload}-{a.seed}.tsv")]
    lines, result, detail = run_exe(exe, args)
    names = contract_metrics(a.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit("perfbench: the program did not report " + ", ".join(missing))

    entry = {
        "rev": git_revision(),
        "src": source_digest(),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "fault": a.fault,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": detail.get("digest"),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    with open(os.path.join(ROOT, HISTORY), "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")

    for line in lines[:-1]:
        print(line)
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
