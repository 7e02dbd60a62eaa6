"""Run one workload in this process and print its measurements as one JSON line.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --start T [--setup-only]

``--start`` is the ``time.monotonic()`` reading taken just before this
process was started (the clock is system-wide), so that set-up time counts
from process start.

``run.py`` starts it in a fresh process with BLAS/OpenMP threads pinned to 1.
Order of work: import the library, build the seeded pool, run one warm-up op
of each kind, note ``t_ready`` (the end of set-up); then compute the
references (the harness's own cost, not set-up), then measure.

Untraced, the closed loop runs one op at a time, cycling through the pool,
until ``--seconds`` have passed and the cycle is complete, so every input
runs equally often.  Traced, a fixed number of ops (set by the seconds and
the workload's nominal traced rate, so that counts repeat exactly for a
seed) runs once untraced and once with spans; that gives the per-layer
numbers and the tracing overhead.

Speed normalisation: the machine this runs on is shared, and its speed
drifts by tens of percent over seconds.  Right after every op the harness
times a fixed calibration kernel (numpy 4x4 linear algebra and mpmath
arithmetic, the same mix of work as the library, none of its code), with the
garbage collector paused so that the library's garbage is not collected on
the kernel's clock.  Every op time is scaled by ``CAL_REF_S / kernel time``,
i.e. reported as it would read on a machine where the kernel takes
CAL_REF_S.  The set-up time is scaled by the kernel time taken right after
set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAL_REF_S = 1e-3
SETUP_CAL_RUNS = 15
# per-function span metrics: name -> statistic
FUNCTION_METRICS = {
    "channels.classify.calls_per_op": "calls_per_op",
    "channels.classify.p50_us": "p50_us",
    "symplectic.GaussianState.calls_per_op": "calls_per_op",
    "fidelity.gaussian_fidelity.p50_us": "p50_us",
    "convergence.diamond_upper_bound.p50_us": "p50_us",
    "convergence.b1_witness_bound.p50_us": "p50_us",
    "peeling.two_round_demo.p50_us": "p50_us",
    "capacity.corrected_key_bound.p50_us": "p50_us",
}
PROBE_REPEATS = 3


class Calibration:
    """Fixed kernel whose run time tracks the machine's current speed."""

    def __init__(self):
        import mpmath
        import numpy as np
        self.np, self.mp = np, mpmath
        self.a = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2],
                           [0.1, 0.0, 2.5, 0.4], [0.0, 0.2, 0.4, 1.8]])
        self.omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        self.v = np.ones(4)
        self.eye = np.eye(4)

    def kernel(self):
        np, acc = self.np, 0.0
        for k in range(12):
            m = self.a + (0.01 * k) * self.eye
            acc += (float(np.linalg.det(m))
                    + float(np.max(np.abs(np.linalg.eigvals(m @ self.omega))))
                    + float(np.linalg.solve(m, self.v)[0]))
        with self.mp.workdps(40):
            x = self.mp.mpf(acc)
            for _ in range(30):
                x = self.mp.sqrt(x * x + 1)
        return acc

    def time(self, runs):
        """Median kernel time over ``runs`` runs, garbage collection paused."""
        ts = []
        gc.disable()
        try:
            for _ in range(runs):
                t0 = time.perf_counter()
                self.kernel()
                ts.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(ts)


def percentile(times, p):
    """Nearest-rank percentile: (value, samples beyond it)."""
    s = sorted(times)
    rank = max(math.ceil(p / 100.0 * len(s)), 1)
    return s[rank - 1], len(s) - rank


def versions():
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}


class Record:
    """Per-op measurements of one loop."""

    def __init__(self):
        self.times, self.cals, self.fails = [], [], []

    def normalised(self):
        """Op times scaled by CAL_REF_S over the kernel time after each op."""
        return [t * CAL_REF_S / c for t, c in zip(self.times, self.cals)]


class Runner:
    def __init__(self, args):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import bosonic_telesim
        import workloads
        self.bt, self.wl = bosonic_telesim, workloads
        cls = workloads.WORKLOADS[args.workload]
        self.w = cls(ROOT) if cls is workloads.Cli else cls()
        self.items = workloads.pool(args.workload, args.seed)
        self.prepared = [self.w.prepare(self.bt, it) for it in self.items]
        seen = set()
        for item, prep in zip(self.items, self.prepared):
            if self.w.kind(item) not in seen:
                seen.add(self.w.kind(item))
                if cls is workloads.Cli:
                    workloads.in_process(item["argv"])
                else:
                    self.w.run(self.bt, prep)
        self.t_ready = time.monotonic()
        self.cal = Calibration()
        self.cal.time(5)
        self.setup_cal_s = self.cal.time(SETUP_CAL_RUNS)

    def references(self):
        self.refs = [self.w.reference(it) for it in self.items]

    def one(self, i, rec):
        """Run op i of the cycle, then the calibration kernel; append the op's
        time, kernel time and failures to ``rec``; return the output."""
        k = i % len(self.items)
        t0 = time.perf_counter()
        out = self.w.run(self.bt, self.prepared[k])
        dt = time.perf_counter() - t0
        rec.times.append(dt)
        rec.cals.append(self.cal.time(self.w.cal_runs))
        rec.fails.append(self.w.check(self.items[k], out, self.refs[k]))
        return out

    def loop(self, seconds):
        """Closed loop over whole pool cycles, at least one, for at least
        ``seconds``."""
        rec = Record()
        end = time.perf_counter() + seconds
        i = 0
        while True:
            self.one(i, rec)
            i += 1
            if i % len(self.items) == 0 and time.perf_counter() >= end:
                return rec

    def fixed(self, count, tracer=None):
        rec, spans = Record(), {}
        for i in range(count):
            if tracer is not None:
                tracer.op_id = i
            out = self.one(i, rec)
            if self.w.name == "cli" and tracer is not None:
                self.merge_child_spans(out[2], spans)
        return rec, spans

    def merge_child_spans(self, stderr, into):
        import tracer as tr
        for line in reversed(stderr.splitlines()):
            if line.startswith(tr.SPANS_MARKER):
                tr.merge(into, json.loads(line[len(tr.SPANS_MARKER):]))
                return
        raise RuntimeError("traced CLI child reported no spans")


def outcome(fails, pool_size):
    """Count attempted and failed per pool input, not per op.

    Op i ran input ``i % pool_size``.  An input counts as failed when any of
    its runs failed, so ``attempted`` and ``failed`` depend only on the seed,
    not on how many pool cycles fitted into the measured time.
    """
    defects = {}
    unexplained = []
    for op_fails in fails:
        for f in op_fails:
            if f.defect is None:
                unexplained.append(f.check)
            else:
                defects[f.defect] = defects.get(f.defect, 0) + 1
    failed_inputs = {i % pool_size for i, op_fails in enumerate(fails) if op_fails}
    return {"attempted": min(len(fails), pool_size), "failed": len(failed_inputs),
            "unexplained": len(unexplained), "unexplained_checks": sorted(set(unexplained)),
            "defect_checks": defects,
            "bad_rows": sum(1 for op in fails for f in op if f.convergence_row)}


def untraced(runner, seconds):
    gc.collect()
    rec = runner.loop(seconds)
    latency = rec.normalised()
    res = outcome(rec.fails, len(runner.items))
    pct = runner.w.tail_percentile
    value, beyond = percentile(latency, pct)
    who = resource.RUSAGE_CHILDREN if runner.w.name == "cli" else resource.RUSAGE_SELF
    res["metrics"] = {
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": 1e3 * percentile(latency, 50)[0],
        "op_tail_ms": 1e3 * value,
        "correct_share": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    res["tail"] = {"percentile": pct, "samples": len(latency), "beyond": beyond}
    res["kernel_p50_ms"] = 1e3 * statistics.median(rec.cals)
    return res


def probe(cmdline, env, repeat):
    ts = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run(cmdline, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=120)
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def traced(runner, seconds):
    import tracer as tr
    w = runner.w
    count = w.block * max(1, math.ceil(seconds * w.trace_rate / 2.0 / w.block))
    gc.collect()
    plain, _ = runner.fixed(count)
    tracer = tr.Tracer()
    gc.collect()
    if w.name == "cli":
        w.traced = True
        runner.prepared = [w.prepare(runner.bt, it) for it in runner.items]
        traced_rec, summary = runner.fixed(count, tracer)
    else:
        tracer.install()
        try:
            traced_rec, _ = runner.fixed(count, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
    res = outcome(traced_rec.fails, len(runner.items))
    metrics = {}
    for layer in tr.LAYERS:
        entries = [v for k, v in summary.items() if k.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(e[0] for e in entries)
        metrics[f"{layer}.self_s"] = sum(e[1] for e in entries)
    for name, stat in FUNCTION_METRICS.items():
        calls, _, durs = summary.get(name.rsplit(".", 1)[0], [0, 0.0, []])
        metrics[name] = calls / count if stat == "calls_per_op" else (
            1e6 * statistics.median(durs) if durs else 0.0)
    metrics["convergence.bad_rows"] = res["bad_rows"]
    env = runner.wl.cli_env(ROOT)
    metrics["cli.interpreter_s"] = probe([sys.executable, "-c", "pass"], env, PROBE_REPEATS)
    metrics["cli.import_s"] = probe([sys.executable, "-c", "import bosonic_telesim.cli"],
                                    env, PROBE_REPEATS)
    metrics["cli.command_s"] = statistics.median(
        probe([sys.executable, "-m", "bosonic_telesim.cli"] + it["argv"], env, 1)
        for it in runner.wl.pool("cli", 0))
    metrics["trace.overhead_ratio"] = sum(plain.normalised()) / sum(traced_rec.normalised())
    res["metrics"] = metrics
    res["traced_ops"] = count
    return res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    runner = Runner(args)
    result = {"setup_s": (runner.t_ready - args.start) * CAL_REF_S / runner.setup_cal_s}
    if not args.setup_only:
        runner.references()
        result.update(traced(runner, args.seconds) if args.trace
                      else untraced(runner, args.seconds))
        result["versions"] = versions()
        result["ranges"] = runner.w.ranges
        result["pool_size"] = len(runner.items)
        result["reference_rel_tol"] = runner.wl.ref.REL_TOL
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
