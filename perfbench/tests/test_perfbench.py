"""Self-tests of the benchmark harness (not part of the library's suite).

    python -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import mpmath as mp
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bosonic_telesim as bt  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_checker_flags_zero_against_positive_reference():
    # thermal loss tau = 0.5, nbar = 0.5 at mu = 1e8: the seed returns 0.0
    r = ref.upper_bound("C_Att", 0.5, 0.5, 0.0, 1e8)
    assert mp.almosteq(r, mp.mpf("7.0296778e-9"), rel_eps=1e-7)
    assert not ref.within(0.0, r)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "x"])
def test_checker_flags_non_numbers(bad):
    assert not ref.within(bad, mp.mpf(1))


def test_checker_passes_the_reference_and_the_b2_remainder():
    r = ref.upper_bound("B2", None, 0.0, 0.5, 1e6, 1.3)
    assert ref.within(float(r), r)
    assert ref.within(float(r) * (1 - 1e-6), r)      # B2's systematic remainder
    assert not ref.within(float(r) * (1 - 1e-4), r)  # the cancellation regime
    assert not ref.within(float(r) * (1 + 1e-4), r)


def test_references_agree_with_the_library_where_float64_is_exact():
    ch = bt.canonical_channel(bt.form_from_fields(bt.CanonicalClass.C_Amp, tau=2.0, nbar=1.5))
    assert ref.within(bt.diamond_upper_bound(ch, 30.0, r=1.4),
                      ref.upper_bound("C_Amp", 2.0, 1.5, 0.0, 30.0, 1.4), 1e-10)
    assert ref.within(bt.b1_witness_bound(5.0, 1e3, 1.3, -0.4),
                      ref.b1_witness(5.0, 1e3, 1.3, -0.4), 1e-12)


def _scan_item(cls, nbar, tau=0.5):
    return {"cls": cls, "tau": tau, "nbar": nbar, "xi": 0.0, "r": 1.2, "a": 1.1, "c": 0.3}


@pytest.mark.parametrize("cls,tau", [("C_Att", 0.5), ("C_Amp", 2.0), ("D", -1.5), ("A2", None)])
def test_wrong_bound_at_small_mu_is_unexplained(cls, tau):
    w = wl.ScanFullrank()
    item = _scan_item(cls, 3.0, tau)
    rows, refs = w.run(bt, w.prepare(bt, item)), w.reference(item)
    assert all(f.defect == "bound-cancellation" for f in w.check(item, rows, refs))
    rows, refs = rows[:10], refs[:10]  # mu up to about 75, where float64 is exact
    assert not w.check(item, rows, refs)
    rows[5] = dataclasses.replace(rows[5], upper_bound=rows[5].upper_bound * (1 + 1e-3))
    (fail,) = w.check(item, rows, refs)
    assert fail.defect is None


def test_cancellation_is_blamed_only_where_float64_reaches_the_tolerance():
    item = _scan_item("C_Att", 2.0)
    assert not wl._cancels(item, ref.upper_bound("C_Att", 0.5, 2.0, 0.0, 10.0, 1.2))
    assert wl._cancels(item, ref.upper_bound("C_Att", 0.5, 2.0, 0.0, 1e6, 1.2))
    assert not wl._cancels(_scan_item("B2", 0.0), mp.mpf("1e-12"))


def test_wrong_key_value_is_unexplained():
    w = wl.Protocol()
    item = next(it for it in wl.pool(w.name, 1) if it["cls"] == "C_Att" and it["mu"] < 1e3)
    out, errors = w.run(bt, w.prepare(bt, item))
    refs = w.reference(item)
    assert not errors and not w.check(item, (out, errors), refs)
    key = out["key"]
    out["key"] = dataclasses.replace(key, value=key.value + 1e-3)
    (fail,) = w.check(item, (out, errors), refs)
    assert (fail.check, fail.defect) == ("key.value", None)
    # eps_tp off by more than the tolerance at small mu is unexplained too
    out["key"] = dataclasses.replace(key, inputs=dict(key.inputs,
                                                      eps_tp=key.inputs["eps_tp"] * 1.01))
    fails = w.check(item, (out, errors), refs)
    assert [(f.check, f.defect) for f in fails] == [("key.eps_tp", None)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert wl.pool(name, 7) == wl.pool(name, 7)
    assert wl.pool(name, 7) != wl.pool(name, 8)


def _failed_ops(name, seed):
    w = wl.WORKLOADS[name]()
    return [bool(w.check(it, w.run(bt, w.prepare(bt, it)), w.reference(it)))
            for it in wl.pool(name, seed)]


@pytest.mark.parametrize("name", ["scan-fullrank", "protocol"])
def test_same_seed_gives_identical_failed_share(name):
    first = _failed_ops(name, 3)
    assert first == _failed_ops(name, 3)
    assert 0 < sum(first) < len(first)  # the seed's known defects show


def test_failed_count_is_per_input_not_per_cycle():
    bad = [wl.Failure("bound", "bound-cancellation")]
    one_cycle = [bad, [], bad, []]
    assert worker.outcome(one_cycle, 4)["failed"] == 2
    for cycles in (2, 5):
        res = worker.outcome(one_cycle * cycles, 4)
        assert (res["attempted"], res["failed"]) == (4, 2)


def test_classify_runs_52_times_per_50_point_scan():
    w = wl.ScanFullrank()
    item = next(it for it in wl.pool(w.name, 1) if it["cls"] == "C_Att")
    prepared = w.prepare(bt, item)
    tracer = tr.Tracer().install()
    try:
        rows = w.run(bt, prepared)
    finally:
        tracer.uninstall()
    assert len(rows) == 50
    assert tracer.summary()["channels.classify"][0] == 52
    assert bt.convergence.classify is bt.channels.classify  # bindings restored
    assert not hasattr(bt.convergence.classify, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = tr.Tracer().install()
    try:
        ch = bt.canonical_channel(bt.form_from_fields(bt.CanonicalClass.C_Att, tau=0.5))
        bt.diamond_upper_bound(ch, 10.0)
    finally:
        tracer.uninstall()
    (top,) = [s for s in tracer.spans if s[0] == "convergence.diamond_upper_bound"]
    children = [s for s in tracer.spans if s[2] == "convergence.diamond_upper_bound"]
    assert {s[0] for s in children} >= {"channels.classify", "fidelity.fid_env_C"}
    assert top[4] == pytest.approx(top[3] - sum(s[3] for s in children), abs=1e-12)


def _run(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,trace", [(n, 0) for n in sorted(wl.WORKLOADS)]
                         + [("scan-fullrank", 1), ("cli", 1)])
def test_emitted_metrics_match_benchmark_json(name, trace):
    result = _run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert NAME.match(m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_names_workloads_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
