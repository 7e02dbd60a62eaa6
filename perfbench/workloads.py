"""Seeded inputs, operations and output checks of the four workloads.

Each workload draws a pool of op inputs from ``random.Random`` (plain floats
and strings, so the same seed gives the same inputs on any machine) in
blocks: every block holds each op kind in fixed proportion (and, in
``protocol``, one op per decade of mu and class), so the share of failing
ops does not drift much with the seed.  The timed
loop cycles through the pool; a run stops on a block boundary.

An op's output is checked against ``reference`` outside the timed region.
A failed check carries the known defect it belongs to, or None when it
matches none of them (see ``NOTES.md``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import mpmath as mp
import numpy as np

import reference as ref

# --- known defects of the library at the seed commit ----------------------------
# A failure is attributed to one of these only under the stated condition;
# anything else is an unexplained failure and makes the run incorrect.
CANCEL_CLASSES = ("A2", "C_Att", "C_Amp", "D")
# Predicted relative float64 error of a fid_env_C/D/A2 bound b of thermal
# variance omega: rounding of F^2 = 2r / (t1 - t2), with t1 ~ r (omega^2 + 1),
# is about eps (omega^2 + 3) / 2, and 1 - F^2 = b^2 / 4 turns it into
# eps (omega^2 + 3) / b^2 relative in b.  Measured errors stay within 2.4 times
# this on 96000 scan rows; a failure is blamed on the cancellation only where
# CANCEL_MARGIN times the prediction reaches the tolerance.
FLOAT64_EPS = 2.0 ** -52
CANCEL_MARGIN = 4.0
DEFECTS = {
    "bound-cancellation": "float64 cancellation of 1 - F^2 in the fid_env_C/fid_env_D/"
                          "fid_env_A2 bounds of class A2, C_Att, C_Amp or D, where "
                          "CANCEL_MARGIN * eps (omega^2 + 3) / b^2 >= 1e-5 for the true "
                          "bound b and omega = 2 nbar + 1 (from mu of a few hundred at large "
                          "nbar, about 1e5 near nbar = 0)",
    "eps-tp-zero": "corrected_key_bound reports eps_tp = 0 because the bound "
                   "cancelled to 0 (same condition)",
    "two-round-arithmetic-error": "two_round_demo raises ArithmeticError because "
                                  "the bound cancelled (same condition)",
    "two-round-unresolved": "two_round_demo raises ArithmeticError because float64 "
                            "gaussian_fidelity cannot resolve a trace distance below "
                            "~1e-7: true peeling total 2 delta below 1e-6, any class",
    "large-mu-phase-space": "quasi_choi/williamson reject the valid quasi-Choi state at "
                            "mu >= 1e5 (not positive definite, uncertainty violated or "
                            "not symplectic in float64)",
    "key-from-eps-tp": "corrected_key_bound value off by > 1e-5 only through its eps_tp: "
                       "it matches the reference formula at the library's own eps_tp, "
                       "and that eps_tp is within 1e-5 or fails by a known defect "
                       "(C(eps) amplifies eps_tp errors near eps_overall = 1)",
}
TWO_ROUND_UNRESOLVED = 1e-6
LARGE_MU = 1e5


def _cancels(item, bound):
    """True when float64 cancellation can move this channel's bound ``bound``
    (its reference value) by the tolerance."""
    if item["cls"] not in CANCEL_CLASSES:
        return False
    omega = 2.0 * item["nbar"] + 1.0
    b = float(bound)
    return CANCEL_MARGIN * FLOAT64_EPS * (omega * omega + 3.0) >= ref.REL_TOL * b * b


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _mat(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _tr(a):
    return [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]


def _frame(rng):
    """Random single-mode symplectic R(t1) diag(s, 1/s) R(t2), s in [1, 2]."""
    def rot(t):
        return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    s = _loguniform(rng, 1.0, 2.0)
    return _mat(_mat(rot(rng.uniform(0, math.pi)), [[s, 0.0], [0.0, 1.0 / s]]),
                rot(rng.uniform(0, math.pi)))


def _state(rng):
    """Random single-mode Gaussian state: thermal nu in [1, 3], squeezed and
    rotated by a random frame, mean in [-1, 1]^2."""
    f = _frame(rng)
    nu = rng.uniform(1.0, 3.0)
    cm = _mat(_mat(f, [[nu, 0.0], [0.0, nu]]), _tr(f))
    cm[1][0] = cm[0][1]
    return {"cm": cm, "mean": [rng.uniform(-1, 1), rng.uniform(-1, 1)]}


TAU_RANGE = {"C_Att": (0.05, 0.95), "C_Amp": (1.05, 5.0), "D": (-5.0, -0.05)}
NBAR_RANGE = (0.0, 5.0)
XI_PRIME_RANGE = (0.05, 2.0)
FRAME_R_RANGE = (0.5, 2.0)
A_RANGE = (0.5, 2.0)
C_RANGE = (-1.0, 1.0)


def _channel_fields(rng, cls):
    tau = rng.uniform(*TAU_RANGE[cls]) if cls in TAU_RANGE else None
    nbar = rng.uniform(*NBAR_RANGE)
    xi = rng.uniform(*XI_PRIME_RANGE) if cls == "B2" else 0.0
    return {"cls": cls, "tau": tau, "nbar": nbar if cls != "B2" else 0.0, "xi": xi}


def _canonical_tn(item):
    """Canonical (T, N) of a C_Att, C_Amp or B2 item as nested lists."""
    if item["cls"] == "B2":
        return [[1.0, 0.0], [0.0, 1.0]], [[item["xi"], 0.0], [0.0, item["xi"]]]
    tau = item["tau"]
    s, n = math.sqrt(tau), abs(1.0 - tau) * (2.0 * item["nbar"] + 1.0)
    return [[s, 0.0], [0.0, s]], [[n, 0.0], [0.0, n]]


def _channel_spec(item):
    spec = {"class": item["cls"]}
    if item["cls"] == "B2":
        spec["xi"] = item["xi"]
    else:
        spec.update(tau=item["tau"], nbar=item["nbar"])
    return spec


class Failure:
    """One failed check: which check, and the known defect it belongs to."""

    __slots__ = ("check", "defect", "convergence_row")

    def __init__(self, check, defect, convergence_row=False):
        self.check, self.defect, self.convergence_row = check, defect, convergence_row


# --- scan-fullrank ------------------------------------------------------------------

class ScanFullrank:
    """op = one 50-point convergence_scan over mu in [1.1, 1e10] (log grid) of a
    canonical full-rank-noise channel."""

    name = "scan-fullrank"
    classes = ("A1", "A2", "C_Att", "C_Amp", "D", "B2")
    block = 6
    pool_blocks = 16
    tail_percentile = 95.0  # p99 sits on the few slowest B2 ops and spreads 4x more
    cal_runs = 1  # calibration-kernel runs after each op
    trace_rate = 60.0  # nominal traced ops/s; fixes the traced op count
    grid = (1.1, 1e10, 50)
    ranges = {"classes": list(classes), "tau": TAU_RANGE, "nbar": NBAR_RANGE,
              "xi_prime": XI_PRIME_RANGE, "frame_r": FRAME_R_RANGE + ("log",),
              "a": A_RANGE, "c": C_RANGE, "grid_mu": grid + ("log",)}

    def generate(self, rng):
        items = []
        for _ in range(self.pool_blocks):
            classes = list(self.classes)
            rng.shuffle(classes)
            for cls in classes:
                item = _channel_fields(rng, cls)
                item.update(r=_loguniform(rng, *FRAME_R_RANGE),
                            a=rng.uniform(*A_RANGE), c=rng.uniform(*C_RANGE))
                items.append(item)
        return items

    def kind(self, item):
        return item["cls"]

    def prepare(self, bt, item):
        form = bt.form_from_fields(bt.CanonicalClass(item["cls"]), tau=item["tau"],
                                   nbar=item["nbar"], xi=item["xi"])
        return (bt.canonical_channel(form), np.geomspace(*self.grid),
                {"r": item["r"], "a": item["a"], "c": item["c"]})

    def run(self, bt, prepared):
        ch, grid, params = prepared
        return bt.convergence_scan(ch, grid, params)

    def reference(self, item):
        return [ref.upper_bound(item["cls"], item["tau"], item["nbar"], item["xi"],
                                float(mu), item["r"], item["a"], item["c"])
                for mu in np.geomspace(*self.grid)]

    def check(self, item, rows, refs):
        if len(rows) != len(refs):
            return [Failure("scan.rows", None)]
        return [Failure("scan.upper_bound", "bound-cancellation" if _cancels(item, r) else None,
                        True)
                for row, r in zip(rows, refs) if not ref.within(row.upper_bound, r)]


# --- witness -----------------------------------------------------------------------

class Witness:
    """op = one 30-point convergence_scan over mu_tilde in [1, 1e9] (log grid) of a
    rank-deficient channel, B1 and B2_Id drawn 3:1."""

    name = "witness"
    block = 4
    pool_blocks = 2
    tail_percentile = 75.0  # about 50 ops per run: p75 leaves 10 or more beyond
    cal_runs = 9
    trace_rate = 1.5
    grid = (1.0, 1e9, 30)
    ranges = {"classes": {"B1": 3, "B2_Id": 1}, "witness_mu": (1.5, 50.0, "log"),
              "a": A_RANGE, "c": C_RANGE, "grid_mu_tilde": grid + ("log",)}

    def generate(self, rng):
        items = []
        for _ in range(self.pool_blocks):
            classes = ["B1", "B1", "B1", "B2_Id"]
            rng.shuffle(classes)
            for cls in classes:
                items.append({"cls": cls, "mu": _loguniform(rng, 1.5, 50.0),
                              "a": rng.uniform(*A_RANGE), "c": rng.uniform(*C_RANGE)})
        return items

    def kind(self, item):
        return item["cls"]

    def prepare(self, bt, item):
        ch = bt.canonical_channel(bt.form_from_fields(bt.CanonicalClass(item["cls"])))
        params = {"mu": item["mu"]}
        if item["cls"] == "B1":
            params.update(a=item["a"], c=item["c"])
        return ch, np.geomspace(*self.grid), params

    run = ScanFullrank.run

    def reference(self, item):
        if item["cls"] == "B1":
            return [ref.b1_witness(item["mu"], float(mt), item["a"], item["c"])
                    for mt in np.geomspace(*self.grid)]
        return [ref.identity_witness(item["mu"], float(mt)) for mt in np.geomspace(*self.grid)]

    def check(self, item, rows, refs):
        if len(rows) != len(refs):
            return [Failure("scan.rows", None)]
        return [Failure("scan.witness_lower_bound", None, True)
                for row, r in zip(rows, refs) if not ref.within(row.witness_lower_bound, r)]


# --- protocol -------------------------------------------------------------------

class Protocol:
    """op = one adaptive-protocol task on a canonical C_Att, C_Amp or B2 channel:
    simulate_channel; quasi_choi + williamson; environmental_pair +
    gaussian_fidelity and dilation_of/apply_via_dilation against apply_channel
    (C classes); two_round_demo; corrected_key_bound; classify of a
    random-frame conjugate given as raw dense (T, N)."""

    name = "protocol"
    classes = ("C_Att", "C_Amp", "B2")
    decades = 8  # mu strata: one per decade of [10, 1e9]
    block = 24
    pool_blocks = 40  # 960 inputs: correct_share spreads 0.023 over seeds, 0.034 with 576
    tail_percentile = 95.0  # op times barely differ by input: p99 is mostly machine noise
    cal_runs = 1
    trace_rate = 60.0
    ranges = {"classes": list(classes), "mu": (10.0, 1e9, "log, one per decade per class"),
              "n": (10, 10000, "log"), "eps": (0.01, 0.5), "tau": TAU_RANGE,
              "nbar": NBAR_RANGE,
              "xi_prime": XI_PRIME_RANGE, "frame_r": FRAME_R_RANGE + ("log",),
              "conjugation_squeeze": (1.0, 2.0, "log"), "state_nu": (1.0, 3.0)}

    def generate(self, rng):
        items = []
        for _ in range(self.pool_blocks):
            cells = [(cls, k) for cls in self.classes for k in range(self.decades)]
            rng.shuffle(cells)
            for cls, k in cells:
                item = _channel_fields(rng, cls)
                t, n = _canonical_tn(item)
                s1, s2 = _frame(rng), _frame(rng)
                item.update(
                    mu=10.0 ** (1 + k + rng.random()),
                    n=int(round(_loguniform(rng, 10, 10000))),
                    eps=rng.uniform(0.01, 0.5),
                    r=_loguniform(rng, *FRAME_R_RANGE),
                    state=_state(rng),
                    raw_t=_mat(_mat(s2, t), s1),
                    raw_n=_mat(_mat(s2, n), _tr(s2)))
                item["raw_n"][1][0] = item["raw_n"][0][1]
                items.append(item)
        return items

    def kind(self, item):
        return item["cls"]

    def prepare(self, bt, item):
        form = bt.form_from_fields(bt.CanonicalClass(item["cls"]), tau=item["tau"],
                                   nbar=item["nbar"], xi=item["xi"])
        state = bt.GaussianState(np.array(item["state"]["mean"]),
                                 np.array(item["state"]["cm"]))
        raw = bt.GaussianChannel(np.array(item["raw_t"]), np.array(item["raw_n"]))
        return form, bt.canonical_channel(form), state, raw, item

    def run(self, bt, prepared):
        form, ch, state, raw, item = prepared
        mu = item["mu"]
        out, errors = {}, {}

        def step(name, fn):
            try:
                out[name] = fn()
            except Exception as exc:  # counted by the checker, never raised
                errors[name] = exc

        step("simulate", lambda: bt.simulate_channel(ch, mu))
        step("williamson", lambda: bt.williamson(
            bt.quasi_choi(out["simulate"].effective, mu).cm))
        if item["cls"] != "B2":
            step("env_fidelity", lambda: bt.gaussian_fidelity(
                *_pair(bt.environmental_pair(form, mu, squeeze_r=item["r"]))))
            step("dilation", lambda: bt.apply_via_dilation(bt.dilation_of(form), state))
            step("apply", lambda: bt.apply_channel(ch, state))
        step("two_round", lambda: bt.two_round_demo(ch, mu))
        step("key", lambda: bt.corrected_key_bound(ch, item["n"], item["eps"], mu))
        step("classify", lambda: bt.classify(raw))
        return out, errors

    def reference(self, item):
        r = ref.protocol(item["cls"], item["tau"], item["nbar"], item["xi"], item["mu"],
                         item["r"], item["state"]["cm"], item["state"]["mean"])
        r["key"] = ref.key_bound(item["cls"], item["tau"], item["nbar"], item["xi"],
                                 item["n"], item["eps"], item["mu"])
        return r

    def check(self, item, result, refs):
        out, errors = result
        cancels = _cancels(item, refs["per_use_delta"])
        fails = []
        for name, exc in errors.items():
            defect = None
            if (name == "williamson" and item["mu"] >= LARGE_MU
                    and type(exc).__name__ == "ValidationError"):
                defect = "large-mu-phase-space"
            elif name == "two_round" and isinstance(exc, ArithmeticError):
                if cancels:
                    defect = "two-round-arithmetic-error"
                elif 2 * refs["per_use_delta"] < TWO_ROUND_UNRESOLVED:
                    defect = "two-round-unresolved"
            fails.append(Failure(f"{name}.raised", defect))

        def expect(check, ok, defect=None, row=False):
            if not ok:
                fails.append(Failure(check, defect, row))

        if "simulate" in out:
            expect("simulate.effective_n", _close(out["simulate"].effective.n,
                                                  refs["effective_n"]))
        if "williamson" in out:
            expect("williamson.spectrum", all(
                ref.within(v, r) for v, r in zip(out["williamson"].spectrum, refs["williamson"])))
        if "env_fidelity" in out:
            expect("environmental_pair.fidelity", ref.within(out["env_fidelity"],
                                                             refs["env_fidelity"]))
        for name in ("dilation", "apply"):
            if name in out:
                expect(f"{name}.cm", _close(out[name].cm, refs["channel_cm"]))
                expect(f"{name}.mean", _close(out[name].mean, refs["channel_mean"]))
        bound_defect = "bound-cancellation" if cancels else None
        if "two_round" in out:
            rep = out["two_round"]
            expect("two_round.per_use_delta", ref.within(rep.per_use_delta, refs["per_use_delta"]),
                   bound_defect, True)
            expect("two_round.peel_total", ref.within(rep.peel_total, 2 * refs["per_use_delta"]),
                   bound_defect)
            expect("two_round.fidelity", ref.within(rep.fidelity, refs["two_round_fidelity"]))
        if "key" in out:
            rep = out["key"]
            eps_tp, value, unbounded = refs["key"]
            got = rep.inputs["eps_tp"]
            tp_ok = ref.within(got, eps_tp)
            tp_defect = ("eps-tp-zero" if got == 0.0 < eps_tp and cancels else bound_defect)
            expect("key.eps_tp", tp_ok, tp_defect, True)

            def inherited(ok_at_got):
                # an output that is right for the library's own eps_tp only carries
                # that eps_tp's error, which is within tolerance or a known defect
                return "key-from-eps-tp" if (tp_ok or tp_defect) and ok_at_got(
                    ref.key_value(item["cls"], item["tau"], item["nbar"], item["xi"],
                                  item["n"], item["eps"], got)) else None

            if rep.unbounded != unbounded:
                fails.append(Failure("key.unbounded",
                                     inherited(lambda r: r[1] == rep.unbounded)))
            elif not unbounded and not ref.within(rep.value, value):
                fails.append(Failure("key.value",
                                     inherited(lambda r: ref.within(rep.value, r[0]))))
        if "classify" in out:
            form = out["classify"]
            want_np = item["xi"] if item["cls"] == "B2" else item["nbar"]
            want_tau = 1.0 if item["cls"] == "B2" else item["tau"]
            expect("classify.conjugate",
                   form.tag.value == item["cls"]
                   and abs(form.tau - want_tau) <= ref.REL_TOL * max(abs(want_tau), 1.0)
                   and abs(form.noise_param - want_np) <= ref.REL_TOL * max(want_np, 1.0))
        return fails


def _pair(pair):
    return pair.rho_e, pair.rho_e_mu


def _close(got, want):
    """Array within REL_TOL of an mp matrix or vector, relative to its largest entry."""
    want = [x for row in want.tolist() for x in row]  # row-major entries
    got = np.asarray(got, dtype=float).reshape(-1)
    if len(got) != len(want) or not np.all(np.isfinite(got)):
        return False
    scale = max(abs(w) for w in want)
    return all(abs(mp.mpf(float(g)) - w) <= ref.REL_TOL * scale for g, w in zip(got, want))


# --- cli -----------------------------------------------------------------------

_NUMBER = re.compile(r"(?<![A-Za-z_])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NONFINITE = re.compile(r"\b(?:nan|NaN|inf|Infinity)\b")


class Cli:
    """op = one cold ``python -m bosonic_telesim.cli`` process, cycling through
    the seven commands with arguments from the protocol ranges; checked against
    the same call made in-process."""

    name = "cli"
    commands = ("classify", "apply", "simulate", "fidelity", "convergence", "peel",
                "capacity")
    block = 7
    pool_blocks = 1
    tail_percentile = 70.0  # 35 or more ops per run: p70 leaves 10 or more beyond
    cal_runs = 9
    trace_rate = 1.0
    ranges = dict(Protocol.ranges, commands=list(commands),
                  convergence_grid=(1.1, 1e10, 20, "log"))

    def __init__(self, root=None):
        self.root = root
        self.traced = False  # True: run perfbench/cli_traced.py, which records spans

    def generate(self, rng):
        items = []
        for _ in range(self.pool_blocks):
            for cmd in self.commands:
                item = _channel_fields(rng, rng.choice(Protocol.classes))
                mu = _loguniform(rng, 10.0, 1e9)
                spec = json.dumps(_channel_spec(item))
                if cmd == "classify":
                    t, n = _canonical_tn(item)
                    s1, s2 = _frame(rng), _frame(rng)
                    raw_n = _mat(_mat(s2, n), _tr(s2))
                    raw_n[1][0] = raw_n[0][1]
                    argv = ["--channel", json.dumps({"t": _mat(_mat(s2, t), s1), "n": raw_n})]
                elif cmd == "apply":
                    argv = ["--channel", spec, "--state", json.dumps(_state(rng))]
                elif cmd == "simulate":
                    argv = ["--channel", spec, "--mu", repr(mu)]
                elif cmd == "fidelity":
                    argv = ["--state1", json.dumps(_state(rng)),
                            "--state2", json.dumps(_state(rng))]
                elif cmd == "convergence":
                    argv = ["--config", json.dumps({
                        "channel": _channel_spec(item),
                        "grid": {"param": "mu", "start": 1.1, "stop": 1e10,
                                 "points": 20, "log": True}})]
                elif cmd == "peel":
                    argv = ["--n", str(int(round(_loguniform(rng, 10, 10000)))),
                            "--channel", spec, "--mu", repr(mu), "--topology", "uniform"]
                else:
                    argv = ["--channel", spec, "--n",
                            str(int(round(_loguniform(rng, 10, 10000)))),
                            "--eps", repr(rng.uniform(0.01, 0.5)), "--mu", repr(mu)]
                items.append({"cmd": cmd, "argv": [cmd] + argv})
        return items

    def kind(self, item):
        return item["cmd"]

    def prepare(self, bt, item):
        entry = ([os.path.join(self.root, "perfbench", "cli_traced.py")] if self.traced
                 else ["-m", "bosonic_telesim.cli"])
        return [sys.executable] + entry + item["argv"]

    def run(self, bt, cmdline):
        proc = subprocess.run(cmdline, env=cli_env(self.root), cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def reference(self, item):
        return in_process(item["argv"])

    def check(self, item, result, expected):
        code, stdout, _ = result
        want_code, want_stdout = expected
        ok = (code == want_code and not _NONFINITE.search(stdout)
              and [float(x) for x in _NUMBER.findall(stdout)]
              == [float(x) for x in _NUMBER.findall(want_stdout)])
        return [] if ok else [Failure(f"cli.{item['cmd']}", None)]


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def in_process(argv):
    """Exit code and stdout of ``bosonic_telesim.cli.main(argv)`` run here."""
    from bosonic_telesim import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (ScanFullrank, Witness, Protocol, Cli)}


def pool(name, seed):
    """The seeded op inputs of a workload; the same seed gives the same list."""
    return WORKLOADS[name]().generate(random.Random(f"{name}:{seed}"))
