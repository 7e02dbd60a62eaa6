import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel, NoUniformBoundError,
                             ValidationError, apply_affine, apply_channel,
                             canonical_channel, diamond_upper_bound,
                             epsilon_tp_bound, form_from_fields, gaussian_fidelity,
                             fuchs_vdg, is_symplectic, peel_bound, simulate_channel,
                             tmsv_state, two_round_demo)
from bosonic_telesim.peeling import _two_mode_squeezer

I2 = np.eye(2)


def attenuator(tau=0.5, nbar=0.0):
    return canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=nbar))


# N = 0 is below the Holevo-Werner bound of T = I/2 (tau = 1/4)
UNPHYSICAL = GaussianChannel(0.5 * I2, np.zeros((2, 2)))
UNIT_RANK = GaussianChannel(I2, np.diag([0.0, 1.0]))
UNPHYSICAL_MSG = "channel noise matrix is unphysical: M + i 0.75 Omega has eigenvalue -0.75 < 0"
ROUNDS_MSG = "round count must be >= 1, got 0"
TOPOLOGY_MSG = "topology must be one of ('bounded_uniform', 'uniform', 'strong'), got 'weak'"
ENERGY_MSG = "bounded_uniform topology requires a finite energy bound"
UNIFORM_RANK_MSG = "uniform topology requires a full-rank noise matrix"
MU_MSG = "resource variance must be finite with mu >= 1, got 0.5"
PARAMS_MSG = "unknown params ['R']; expected a subset of ['a', 'c', 'energy_bound', 'r']"


class TestPeelBound:
    def test_three_rounds(self):
        bound = peel_bound(3, 0.1, "uniform")
        assert bound.total == pytest.approx(0.3)
        assert bound.per_use_delta == 0.1

    def test_two_round_chain(self):
        assert peel_bound(2, 0.7, "bounded_uniform").total == pytest.approx(1.4)

    def test_zero_error(self):
        for n in (1, 5, 100):
            assert peel_bound(n, 0.0, "strong").total == 0.0

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_linearity_exact(self, n, delta):
        assert peel_bound(n, delta, "uniform").total == n * peel_bound(
            1, delta, "uniform").total
        assert 0.0 <= peel_bound(n, delta, "uniform").total <= 2.0 * n

    def test_domains(self):
        with pytest.raises(DomainError):
            peel_bound(0, 0.1, "uniform")
        with pytest.raises(DomainError):
            peel_bound(2, 2.5, "uniform")
        with pytest.raises(DomainError):
            peel_bound(2, 0.1, "weak")

    @pytest.mark.parametrize("n, delta, topology, msg", [
        (2.5, 0.1, "weak", "round count must be an integer, got 2.5"),
        (True, 0.1, "weak", "round count must be an integer, got True"),
        (0, 0.1, "weak", ROUNDS_MSG),
        (3, 2.5, "weak", TOPOLOGY_MSG),
        (3, 2.5, "uniform", "per-use trace-distance error must lie in [0, 2], got 2.5"),
    ])
    def test_schedule_errors_are_the_protocol_ones(self, n, delta, topology, msg):
        # the round count, then the topology, with the messages of epsilon_tp_bound
        with pytest.raises(DomainError) as info:
            peel_bound(n, delta, topology)
        assert type(info.value) is DomainError and str(info.value) == msg


class TestEpsilonTpBound:
    def test_vanishes_with_resource(self):
        values = [epsilon_tp_bound(10, mu, attenuator(), "uniform") for mu in
                  (1e2, 1e4, 1e6)]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-2

    def test_linear_in_rounds(self):
        one = epsilon_tp_bound(1, 100.0, attenuator(), "uniform")
        assert epsilon_tp_bound(2, 100.0, attenuator(), "uniform") == pytest.approx(2 * one)

    def test_numpy_integer_rounds(self):
        assert epsilon_tp_bound(np.int64(3), 20.0, attenuator(), "strong") == epsilon_tp_bound(
            3, 20.0, attenuator(), "strong")

    def test_is_half_the_peel_total(self):
        mu = 50.0
        delta = diamond_upper_bound(attenuator(), mu)
        assert epsilon_tp_bound(4, mu, attenuator(), "uniform") == pytest.approx(
            4 * delta / 2.0)

    def test_identity_under_uniform_topology(self):
        with pytest.raises(NoUniformBoundError):
            epsilon_tp_bound(2, 10.0, GaussianChannel.identity(), "uniform")

    def test_bounded_uniform_records_energy(self):
        got = epsilon_tp_bound(2, 10.0, attenuator(), "bounded_uniform",
                               {"energy_bound": 5.0})
        assert got == pytest.approx(epsilon_tp_bound(2, 10.0, attenuator(), "uniform"))

    def test_bounded_uniform_requires_energy(self):
        with pytest.raises(DomainError):
            epsilon_tp_bound(2, 10.0, attenuator(), "bounded_uniform")

    def test_tolerance_reaches_topology_check_and_bound(self):
        # N = diag(0.1, 1e-11) has rank 1 under the default rank tolerance
        # and rank 2 under 1e-12
        ch = GaussianChannel(I2, np.diag([0.1, 1e-11]))
        with pytest.raises(NoUniformBoundError):
            epsilon_tp_bound(2, 10.0, ch, "uniform")
        tol = 1e-12
        got = epsilon_tp_bound(2, 10.0, ch, "uniform", tol=tol)
        assert got == 2 * diamond_upper_bound(ch, 10.0, tol=tol) / 2


# (n, mu, channel, topology, params) and the error epsilon_tp_bound raises;
# each input also fails every check after the one it is listed for, so the
# table pins the order: an unknown params key, round count, topology, energy
# bound, classification, the uniform rank criterion, mu, and the
# rank-deficient class of the bound
EPS_TP_ERRORS = [
    ((0.5, 0.5, UNPHYSICAL, "weak", {"R": 3.0}), DomainError, PARAMS_MSG),
    ((0.5, 0.5, UNPHYSICAL, "weak", {}), DomainError, "round count must be an integer, got 0.5"),
    ((0, 0.5, UNPHYSICAL, "weak", {}), DomainError, ROUNDS_MSG),
    ((3, 0.5, UNPHYSICAL, "weak", {}), DomainError, TOPOLOGY_MSG),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {}), DomainError, ENERGY_MSG),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {"energy_bound": "5"}), DomainError, ENERGY_MSG),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {"energy_bound": True}), DomainError, ENERGY_MSG),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {"energy_bound": math.nan}), DomainError,
     ENERGY_MSG),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {"energy_bound": -5.0}), DomainError,
     "energy bound must be >= 0, got -5.0"),
    ((3, 0.5, UNPHYSICAL, "bounded_uniform", {"energy_bound": 4.0}), ValidationError,
     UNPHYSICAL_MSG),
    ((3, 0.5, UNPHYSICAL, "uniform", {}), ValidationError, UNPHYSICAL_MSG),
    ((3, 0.5, UNPHYSICAL, "strong", {}), ValidationError, UNPHYSICAL_MSG),
    ((3, 0.5, GaussianChannel.identity(), "uniform", {}), NoUniformBoundError,
     UNIFORM_RANK_MSG),
    ((3, 0.5, UNIT_RANK, "strong", {}), DomainError, MU_MSG),
    ((3, 20.0, UNIT_RANK, "strong", {}), NoUniformBoundError,
     "class B1 has rank-deficient noise: no uniform bound exists"),
    ((3, 20.0, GaussianChannel.identity(), "bounded_uniform", {"energy_bound": 4.0}),
     NoUniformBoundError, "class B2_Id has rank-deficient noise: no uniform bound exists"),
]


class TestSingleClassification:
    @pytest.mark.parametrize("tol", [None, 1e-6])
    @pytest.mark.parametrize("args, exc, msg", EPS_TP_ERRORS)
    def test_errors_and_their_order(self, args, exc, msg, tol):
        with pytest.raises(exc) as info:
            epsilon_tp_bound(*args, tol=tol)
        assert type(info.value) is exc and str(info.value) == msg

    def test_tolerance_decides_physicality(self):
        # N = (1/2 - 1e-10) I is 1e-10 below the bound of tau = 1/2: inside the
        # default slack, outside a 1e-12 one
        ch = GaussianChannel(np.sqrt(0.5) * I2, (0.5 - 1e-10) * I2)
        assert epsilon_tp_bound(3, 20.0, ch, "strong") == pytest.approx(0.46866428, rel=1e-7)
        with pytest.raises(ValidationError, match="eigenvalue -9.99998972517e-11 < 0"):
            epsilon_tp_bound(3, 20.0, ch, "strong", tol=1e-12)

    @pytest.mark.parametrize("topology, params", [
        ("uniform", {}), ("strong", {}), ("bounded_uniform", {"energy_bound": 2.0})])
    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_one_classify_per_call(self, classify_calls, topology, params, tol):
        ch = GaussianChannel(I2, np.diag([0.1, 1e-11]))  # B2 under 1e-12 only
        if tol is None:
            with pytest.raises(NoUniformBoundError):
                epsilon_tp_bound(2, 10.0, ch, topology, params, tol=tol)
        else:
            epsilon_tp_bound(2, 10.0, ch, topology, params, tol=tol)
        assert len(classify_calls) == 1


# (fidelity, trace_upper_bound) as hex, or the ArithmeticError message, of
# TestTwoRoundDemo::test_rounding_chain_outcomes_are_pinned
TWO_ROUND_PINS = [
    ("0x1.ffffffe5b9d01p-1", "0x1.480da7e92d573p-13"),
    ("0x1.ffffffedb6fdep-1", "0x1.11abec8f86df9p-13"),
    ("0x1.fffffffffffeap-1", "0x1.2c2fc595456a7p-23"),
    ("0x1.fffffffffffebp-1", "0x1.2548eb9151e85p-23"),
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    'two-round trace bound 5.96046e-08 exceeds peeling total 1.87728e-09',
    ("0x1.ffd38b59d01b1p-1", "0x1.aaaf2f70c3eadp-5"),
    ("0x1.ffffedc06a699p-1", "0x1.11655afe28d7bp-9"),
    'two-round trace bound 1.90828e-07 exceeds peeling total 1.391e-07',
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    'two-round trace bound 2.73143e-07 exceeds peeling total 4.26966e-08',
    ("0x1.ffffe25347c04p-1", "0x1.5ca2f69d9729cp-9"),
    ("0x1.fffffff57f0fbp-1", "0x1.9ed6fe974d3fcp-14"),
    ("0x1.ffffffffffffap-1", "0x1.3988e1409212ep-24"),
    'two-round trace bound 2.98023e-08 exceeds peeling total 4.44332e-09',
    'two-round trace bound 5.96046e-08 exceeds peeling total 2.8713e-09',
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.fffffbd4abfdfp-1", "0x1.055c22764bb09p-10"),
    ("0x1.ffffffe6620ebp-1", "0x1.43ecac10c38b1p-13"),
    ("0x1.ffffffffffe8ep-1", "0x1.33c42213ee0c9p-21"),
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    'two-round trace bound 3.05383e-07 exceeds peeling total 7.60585e-08',
]


def _two_round_rebuilt(ch, mu, lo_cc_squeeze):
    """two_round_demo with the probe and the LOCC squeezer rebuilt for every
    run, as separate uncached objects."""
    delta = diamond_upper_bound(ch, mu)
    effective = simulate_channel(ch, mu).effective

    def run(channel):
        state = apply_channel(channel, tmsv_state(2.0), target_mode=1)
        state = apply_affine(state, _two_mode_squeezer.__wrapped__(lo_cc_squeeze))
        return apply_channel(channel, state, target_mode=1)

    f = gaussian_fidelity(run(ch), run(effective))
    trace_ub = fuchs_vdg(f).upper
    return (float(mu), delta, 2.0 * delta, f, trace_ub, trace_ub <= 2.0 * delta + 1e-12)


class TestTwoModeSqueezer:
    @pytest.mark.parametrize("s", [8.0, 10.0, 30.0, -8.0])
    def test_large_squeeze_is_symplectic(self, s):
        # the roundoff of S Omega S^T grows as eps cosh^2 s: 5e-10 at s = 8
        sq = _two_mode_squeezer(s)
        assert sq.s[0, 0] == np.cosh(s)
        assert is_symplectic(sq.s, 1e-15 * np.cosh(s) ** 2)

    def test_demo_runs_at_large_squeeze(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = two_round_demo(attenuator(), 100.0, lo_cc_squeeze=8.0)
        assert report.holds
        assert report.fidelity == pytest.approx(0.99751168, abs=1e-5)  # 60 digits

    @pytest.mark.parametrize("s", [800.0, 400.0, -800.0, math.nan, math.inf])
    def test_overflowing_or_nan_squeeze_rejected(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="two-mode squeezing"):
                _two_mode_squeezer(s)
            with pytest.raises(DomainError, match="two-mode squeezing"):
                two_round_demo(attenuator(), 100.0, lo_cc_squeeze=s)

    def test_cached_value_is_immutable(self):
        sq = _two_mode_squeezer(0.2)
        assert _two_mode_squeezer(0.2) is sq
        with pytest.raises(ValueError):
            sq.s[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sq.s = np.eye(4)


class TestTwoRoundDemo:
    @given(st.sampled_from(["C_Att", "C_Amp", "D", "B2"]), st.floats(0.05, 0.95),
           st.floats(0.0, 2.0), st.floats(1.5, 1e6), st.floats(-2.0, 2.0))
    @example("C_Att", 0.5, 0.0, 100.0, 8.0)
    @example("C_Amp", 0.5, 1.0, 1e3, 30.0)
    @settings(max_examples=60, deadline=None)
    def test_equals_rebuilt_probe_and_squeezer(self, cls, x, nbar, mu, squeeze):
        tag = CanonicalClass(cls)
        if tag is CanonicalClass.B2:
            form = form_from_fields(tag, xi=2.0 * x)
        else:
            tau = {"C_Att": x, "C_Amp": 1.0 + 4.0 * x, "D": -4.0 * x}[cls]
            form = form_from_fields(tag, tau=tau, nbar=nbar)
        ch = canonical_channel(form)
        want = _two_round_rebuilt(ch, mu, squeeze)
        if want[-1]:
            assert dataclasses.astuple(two_round_demo(ch, mu, lo_cc_squeeze=squeeze)) == want
        else:
            with pytest.raises(ArithmeticError):
                two_round_demo(ch, mu, lo_cc_squeeze=squeeze)


    def test_one_probe_object_across_calls(self, monkeypatch):
        from bosonic_telesim import peeling

        inputs = []

        def spy(channel, state, target_mode=0):
            inputs.append(state)
            return apply_channel(channel, state, target_mode)

        monkeypatch.setattr(peeling, "apply_channel", spy)
        for mu in (10.0, 1e3):
            two_round_demo(attenuator(0.5, 0.5), mu)
        probes = inputs[0::2]  # each run applies the channel to the probe, then again
        assert len(probes) == 4 and all(p is probes[0] for p in probes)
        assert probes[0].cm.tobytes() == tmsv_state(2.0).cm.tobytes()

    @pytest.mark.parametrize("mu,bits", [
        (10.0, ("0x1.caeffe7d4eafcp-5", "0x1.ffd1b2a24b01bp-1", "0x1.b374464da5c29p-5")),
        (1e3, ("0x1.2e98d75f05225p-11", "0x1.fffffebeaaa77p-1", "0x1.1ecff87b9ed5ap-11")),
        (1e5, ("0x1.8373b0bb42c40p-18", "0x1.fffffffff7c53p-1", "0x1.6f33417a5da51p-18")),
    ])
    def test_report_bits_kept_with_the_cached_probe(self, mu, bits):
        # (per_use_delta, fidelity, trace_upper_bound) as before the probe was
        # cached; each delta is the cancellation-free bound, 2.85e-14 above its
        # 60-digit value (rounded up), where the float64 1 - F^2 was 2.7e-14
        # high at mu = 10, 3.1e-9 low at 1e3 and 1.7e-5 high at 1e5
        report = two_round_demo(attenuator(0.5, 0.5), mu)
        delta, fidelity, trace = (float.fromhex(b) for b in bits)
        assert dataclasses.astuple(report) == (mu, delta, 2.0 * delta, fidelity, trace, True)

    def test_rounding_chain_outcomes_are_pinned(self):
        # Which inputs raise hangs on the last bits of the two-round fidelity:
        # numpy's matrix products (dgemm fuses multiply and add), det, solve
        # and eigvals.  Each outcome is pinned, on 24 seeded inputs over the
        # four full-rank classes with mu stratified over [10, 1e9], denser
        # near the top where the rounding decides; 6 of them raise.
        rng, edges, got = random.Random(37), (1.0, 3.0, 5.0, 7.0, 8.0, 8.5, 9.0), []
        for cls in ("C_Att", "C_Amp", "D", "B2"):
            for lo, hi in zip(edges, edges[1:]):
                mu = 10.0 ** (lo + (hi - lo) * rng.random())
                if cls == "B2":
                    fields = {"xi": rng.uniform(0.05, 2.0)}
                else:
                    tau = {"C_Att": rng.uniform(0.05, 0.95), "C_Amp": rng.uniform(1.1, 4.0),
                           "D": -rng.uniform(0.1, 3.0)}[cls]
                    fields = {"tau": tau, "nbar": rng.uniform(0.0, 2.0)}
                ch = canonical_channel(form_from_fields(CanonicalClass(cls), **fields))
                try:
                    report = two_round_demo(ch, mu)
                except ArithmeticError as exc:
                    got.append(str(exc))
                else:
                    got.append((report.fidelity.hex(), report.trace_upper_bound.hex()))
        assert got == TWO_ROUND_PINS

    def test_attenuator_demo_holds(self):
        report = two_round_demo(attenuator(), 1e3)
        assert report.holds
        assert report.trace_upper_bound <= report.peel_total
        assert report.peel_total == pytest.approx(2 * report.per_use_delta)

    def test_trivial_interaction(self):
        report = two_round_demo(attenuator(), 1e3, lo_cc_squeeze=0.0)
        assert report.holds

    def test_gap_closes_with_resource(self):
        gaps = [two_round_demo(attenuator(), mu).trace_upper_bound
                for mu in (1e2, 1e4, 1e6)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-2

    def test_rank_deficient_channel_rejected(self):
        with pytest.raises(NoUniformBoundError):
            two_round_demo(GaussianChannel.identity(), 100.0)

    def test_randomized_channels_and_interactions(self, rng):
        for _ in range(25):
            kind = rng.choice(["att", "amp", "conj", "add"])
            if kind == "att":
                ch = canonical_channel(form_from_fields(
                    CanonicalClass.C_Att, tau=rng.uniform(0.1, 0.9),
                    nbar=rng.uniform(0.0, 1.5)))
            elif kind == "amp":
                ch = canonical_channel(form_from_fields(
                    CanonicalClass.C_Amp, tau=rng.uniform(1.1, 3.0),
                    nbar=rng.uniform(0.0, 1.5)))
            elif kind == "conj":
                ch = canonical_channel(form_from_fields(
                    CanonicalClass.D, tau=-rng.uniform(0.1, 3.0),
                    nbar=rng.uniform(0.0, 1.5)))
            else:
                ch = canonical_channel(form_from_fields(
                    CanonicalClass.B2, xi=rng.uniform(0.05, 1.5)))
            report = two_round_demo(ch, rng.uniform(2.0, 1e4),
                                    lo_cc_squeeze=rng.uniform(0.0, 0.8))
            assert report.holds
