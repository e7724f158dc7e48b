#!/usr/bin/env python3
"""Self-test of the benchmark: seeding and output checks.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload, at a fixed op count:
  - two runs with one seed give identical op counts, allocated words per
    op, per-layer counts and output digest, untraced and traced;
  - a run with another seed gives another digest.
Then each seeded fault must make the output checks fail (fail_frac > 0)
while the same run without the fault passes.  Exits 1 on any mismatch.
"""

import sys

from run import WORKLOADS, build, run_exe

OPS = 40
FAULTS = [("bcast-perfect", "stale-pool"), ("bcast-perfect", "loss"),
          ("bcast-lossy", "stale-pool"), ("serve-mobile", "skip-maintenance")]
# Per-layer metrics that are counts, not timings: they must repeat.
EXACT_UNITS = {"count", "words", "1"}
NOT_EXACT = {"trace.overhead_frac"}


def run(exe, workload, seed, trace, fault=""):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "60",
            "--trace", str(trace), "--ops", str(OPS)]
    if fault:
        args += ["--fault", fault]
    _, result, detail = run_exe(exe, args)
    return result, detail


def exact_view(result, detail):
    view = {"attempted": result["attempted"], "failed": result["failed"],
            "digest": detail["digest"]}
    for name, m in result["metrics"].items():
        if name == "alloc_words_per_op" or (m["unit"] in EXACT_UNITS and name not in NOT_EXACT):
            view[name] = m["value"]
    return view


def main():
    exe = build()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            a = exact_view(*run(exe, w, 11, trace))
            b = exact_view(*run(exe, w, 11, trace))
            diff = sorted(k for k in a if a[k] != b.get(k))
            status = "ok" if not diff else "MISMATCH " + ", ".join(diff)
            print(f"{w:14s} trace={trace} same seed repeats: {status}")
            if diff:
                problems.append(f"{w} trace={trace}: {diff}")
            if a["failed"]:
                problems.append(f"{w} trace={trace}: {a['failed']} ops failed without a fault")
        other = exact_view(*run(exe, w, 12, 0))
        repeated = other["digest"] == a["digest"]
        print(f"{w:14s} another seed changes the digest: {'no' if repeated else 'ok'}")
        if repeated:
            problems.append(f"{w}: seed 12 gave the digest of seed 11")
    for w, fault in FAULTS:
        result, _ = run(exe, w, 11, 0, fault)
        frac = result["failed"] / result["attempted"]
        print(f"{w:14s} fault {fault}: fail_frac {frac:.3f}")
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{w}: fault {fault} went undetected")
    if problems:
        print("selftest FAILED:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
