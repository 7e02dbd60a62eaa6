"""Benchmark entry point for bosonic_telesim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scan-fullrank, witness, protocol, cli (see workloads.py and
NOTES.md).  Each run starts the workload in a fresh child process with
OPENBLAS/OMP/MKL threads pinned to 1; an untraced run also starts six
set-up-only children, one after another, and reports the median set-up time
of all seven.  Detail lines go first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).

``correct`` is false when any check fails in a way that matches none of the
known defects listed in workloads.DEFECTS; failures that do match them are
counted in ``failed`` and ``correct_share``.  ``attempted`` is the number of
distinct op inputs in the seeded pool (each runs once per pool cycle) and
``failed`` the number of those inputs with a failed check on any run, so both
depend on the seed only, not on how many cycles fit into ``--seconds``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args):
    """Run worker.py in a fresh process and return its result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    start = ["--start", repr(time.monotonic())]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args + start,
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="bosonic_telesim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("scan-fullrank", "witness", "protocol", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src", "bosonic_telesim")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: library source not found at {src}", file=sys.stderr)
        return 2
    # byte-compile up front so that no set-up sample pays for compilation
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [spawn(common + ["--seconds", "0", "--setup-only"])
                  for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    detail = {k: result[k] for k in ("versions", "ranges", "pool_size", "defect_checks",
                                     "unexplained_checks", "bad_rows")}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, reference_rel_tol=result["reference_rel_tol"])
    if args.trace:
        detail["traced_ops"] = result["traced_ops"]
    else:
        detail["tail"] = result["tail"]
        detail["kernel_p50_ms"] = result["kernel_p50_ms"]
        detail["setup_samples_s"] = [s["setup_s"] for s in setups]
        t = result["tail"]
        print(f"op_tail_ms is p{t['percentile']:g} of {t['samples']} ops "
              f"({t['beyond']} beyond)")
    print("detail " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["unexplained"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
