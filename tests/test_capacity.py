import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import phi_mp
from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel,
                             NoUniformBoundError, UnsupportedFormError,
                             ValidationError, c_epsilon, canonical_channel,
                             corrected_key_bound, diamond_upper_bound, epsilon_tp_bound,
                             form_from_fields, overall_error, peeling, phi_add, phi_amp,
                             phi_loss, strong_converse_bound)


class TestPhiLoss:
    def test_pure_loss_half(self):
        report = phi_loss(0.5, 0.0)
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert not report.threshold_active

    def test_threshold_at_equality(self):
        report = phi_loss(0.5, 1.0)  # nbar = tau/(1-tau) exactly
        assert report.value == 0.0
        assert report.threshold_active

    def test_high_transmissivity(self):
        assert phi_loss(0.9, 0.0).value == pytest.approx(-math.log2(0.1), abs=1e-4)

    def test_pure_loss_identity_on_grid(self):
        for tau in np.linspace(0.01, 0.99, 100):
            assert abs(phi_loss(tau, 0.0).value + math.log2(1.0 - tau)) <= 1e-12

    def test_lossless_unbounded(self):
        assert phi_loss(1.0, 0.0).unbounded

    def test_continuity_and_zero_past_threshold(self):
        tau = 0.6
        thr = tau / (1.0 - tau)
        assert phi_loss(tau, thr * (1.0 - 1e-9)).value == pytest.approx(0.0, abs=1e-7)
        assert phi_loss(tau, thr + 0.5).value == 0.0
        assert phi_loss(tau, thr + 0.5).threshold_active

    def test_domains(self):
        with pytest.raises(DomainError):
            phi_loss(1.5, 0.0)
        with pytest.raises(DomainError):
            phi_loss(0.5, -0.1)


class TestPhiAmp:
    def test_quantum_limited_gain_two(self):
        assert phi_amp(2.0, 0.0).value == pytest.approx(1.0, abs=1e-12)

    def test_threshold_at_equality(self):
        report = phi_amp(2.0, 1.0)
        assert report.value == 0.0
        assert report.threshold_active

    def test_gain_three_halves(self):
        assert phi_amp(1.5, 0.0).value == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_zero_past_threshold(self):
        assert phi_amp(3.0, 0.5 + 0.6).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_amp(1.0, 0.0)


class TestPhiAdd:
    def test_unit_noise_boundary(self):
        report = phi_add(1.0)
        assert report.value == 0.0
        assert report.threshold_active

    def test_half_noise(self):
        assert phi_add(0.5).value == pytest.approx(-0.5 / math.log(2.0) + 1.0, abs=1e-12)

    def test_past_threshold(self):
        report = phi_add(2.0)
        assert report.value == 0.0
        assert report.threshold_active

    def test_noiseless_unbounded(self):
        assert phi_add(0.0).unbounded

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_add(-0.1)


EPS = 2.0 ** -52
C_ROUND = 64  # the factor 1 + c (n + 2) eps of capacity._phi


def _gap(formula, *args):
    """The exact rational gap d to the threshold: t - nbar, or 1 - xi."""
    if formula == "additive":
        return 1 - Fraction(args[0])
    tau, nbar = (Fraction(x) for x in args)
    return (tau / (1 - tau) if formula == "loss" else 1 / (tau - 1)) - nbar


def _near(phi, formula, tau, rel):
    """The case (phi, (tau, nbar)) with nbar at relative distance rel below
    the threshold of tau (above it for rel < 0)."""
    return phi, (tau, float(_gap(formula, tau, 0.0) * (1 - Fraction(rel))))


_REL = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                 st.floats(-15.0, -1.0))
_NBAR = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 1e6),
                  st.builds(lambda e: 10.0 ** e, st.floats(-15.0, 6.0)))


_THRESHOLD_T = st.builds(lambda e: 10.0 ** e, st.floats(-15.0, 6.0))
PHI_CASES = st.one_of(
    st.builds(lambda t, rel: _near(phi_loss, "loss", t / (1.0 + t), rel), _THRESHOLD_T, _REL),
    st.builds(lambda t, rel: _near(phi_amp, "amplifier", 1.0 + 1.0 / t, rel), _THRESHOLD_T,
              _REL),
    st.tuples(st.just(phi_loss), st.tuples(
        st.one_of(st.just(1e-15), st.just(1.0 - 1e-15), st.floats(1e-15, 1.0 - 1e-15)),
        _NBAR)),
    st.tuples(st.just(phi_amp), st.tuples(
        st.builds(lambda e: 1.0 + 10.0 ** e, st.floats(-15.0, 3.0)), _NBAR)),
    st.tuples(st.just(phi_add), st.tuples(st.one_of(
        st.builds(lambda e: 10.0 ** e, st.floats(-300.0, 0.0)),
        st.builds(lambda e: 1.0 - 10.0 ** e, st.floats(-16.0, -1.0)),
        st.builds(lambda e: 1.0 + 10.0 ** e, st.floats(-15.0, -1.0))))))


class TestPhiDirection:
    """Phi is an upper bound: never below the 60-digit PLOB value, never
    negative, at most 2c (n + 2) eps above it, and zero with
    ``threshold_active`` exactly when the rational gap is <= 0."""

    @given(PHI_CASES)
    @example((phi_loss, (0.0005, 0.0005 / (1.0 - 0.0005))))
    @example((phi_loss, (1e-12, 0.0)))
    @example((phi_add, (1e-300,)))
    @example((phi_add, (1.0 - 2.0 ** -53,)))
    @settings(max_examples=400, deadline=None)
    def test_never_below_the_reference(self, case):
        phi, args = case
        report = phi(*args)
        want = phi_mp(report.formula, *args)
        n = args[1] if len(args) == 2 else 0.0
        assert report.threshold_active == (_gap(report.formula, *args) <= 0)
        assert report.value >= 0.0 and report.value >= want
        if want == 0:
            assert report.value == 0.0
        else:
            assert report.value <= want * (1 + 2 * C_ROUND * (n + 2) * EPS)

    def test_small_transmissivity(self):
        # log2(1 - tau) formed directly lost 2.2e-5 of the value here
        want = 1.4426950408896846e-12
        assert want <= phi_loss(1e-12, 0.0).value <= want * (1 + 2 * C_ROUND * 2 * EPS)

    @pytest.mark.parametrize("phi, args", [
        (phi_loss, (0.5, math.nan)), (phi_loss, (0.5, math.inf)), (phi_amp, (math.nan, 0.0)),
        (phi_amp, (math.inf, 0.0)), (phi_add, (math.nan,)), (phi_add, (math.inf,))])
    def test_non_finite_inputs_rejected(self, phi, args):
        with pytest.raises(DomainError):
            phi(*args)


class TestCEpsilon:
    def test_small_eps_limit(self):
        assert c_epsilon(1e-12) == pytest.approx(math.log2(6.0), abs=1e-9)

    def test_half(self):
        assert c_epsilon(0.5) == pytest.approx(math.log2(6.0) + 2.0 * math.log2(3.0),
                                               abs=1e-12)

    def test_third(self):
        assert c_epsilon(1.0 / 3.0) == pytest.approx(math.log2(6.0) + 2.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                c_epsilon(bad)


class TestOverallError:
    def test_no_simulation_error(self):
        assert overall_error(0.3, 0.0) == pytest.approx(0.3)

    def test_cap_at_one(self):
        assert overall_error(0.25, 0.25) == 1.0

    def test_small_errors(self):
        assert overall_error(0.01, 0.01) == pytest.approx(0.04)

    def test_domain(self):
        with pytest.raises(DomainError):
            overall_error(1.5, 0.0)

    def test_no_simulation_error_is_eps_exactly(self):
        # sqrt(eps) ** 2 fell below eps for 518 of these
        for eps in np.linspace(0.01, 0.5, 2000).tolist():
            assert overall_error(eps, 0.0) == eps, eps

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.2, 1e-300)
    @example(3 * 2.0 ** -1074, 2.0 ** -1074)  # a subnormal square: (sqrt(3) + 1)^2 2^-1074
    @example(0.25, 0.25)
    @settings(max_examples=300, deadline=None)
    def test_rounded_up_against_60_digits(self, eps, eps_tp):
        # never below the exact value, and at most 2c eps = 8 eps relative
        # above it (or 2^-1071 absolute, below float64's normal range)
        import mpmath as mp
        value = overall_error(eps, eps_tp)
        with mp.workdps(60):
            exact = (mp.mpf(eps) if eps_tp == 0.0 else
                     min(1, (mp.sqrt(eps) + mp.sqrt(eps_tp)) ** 2))
            assert exact <= value <= exact * (1 + 8 * 2.0 ** -52) + 2.0 ** -1071, (
                eps, eps_tp, value)


class TestStrongConverseBound:
    def test_pure_loss_arithmetic(self):
        got = strong_converse_bound(1.0, 0.0, 1000, 0.1)
        assert got == pytest.approx(1.0 + c_epsilon(0.1) / 1000.0, abs=1e-15)
        assert got == pytest.approx(1.00317, abs=1e-4)

    def test_large_n_limit(self):
        assert strong_converse_bound(2.0, 1.0, 10 ** 15, 0.1) == pytest.approx(
            2.0, abs=1e-6)

    def test_monotone_decreasing_in_n(self):
        values = [strong_converse_bound(1.0, 1.0, n, 0.1) for n in (10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_never_below_phi(self):
        for n in (1, 10, 10 ** 6):
            assert strong_converse_bound(0.7, 0.2, n, 0.3) >= 0.7

    def test_domains(self):
        cases = [
            ((1.0, 0.0, 0, 0.1), "channel uses must be >= 1, got 0"),
            ((1.0, -1.0, 10, 0.1), "variance parameter must be non-negative, got -1.0"),
            ((1.0, 0.0, 10, 1.0), "security parameter must lie in (0, 1), got 1.0"),
            ((1.0, 0.0, 2.5, 0.1), "channel uses must be an integer, got 2.5"),
            ((1.0, 0.0, True, 0.1), "channel uses must be an integer, got True"),
            ((1.0, 0.0, math.nan, 0.1), "channel uses must be an integer, got nan"),
            ((math.nan, 0.0, 10, 0.1), "key-capacity term must be finite, got nan"),
            ((math.inf, 0.0, 10, 0.1), "key-capacity term must be finite, got inf"),
            ((1.0, math.nan, 10, 0.1), "variance parameter must be finite, got nan"),
            ((1.0, math.inf, 10, 0.1), "variance parameter must be finite, got inf"),
            ((1.0, -math.inf, 10, 0.1), "variance parameter must be non-negative, got -inf"),
            ((1.0, 0.0, 10, math.nan), "security parameter must lie in (0, 1), got nan")]
        for args, msg in cases:
            with pytest.raises(DomainError) as info:
                strong_converse_bound(*args)
            assert str(info.value) == msg

    def test_numpy_integer_uses(self):
        assert strong_converse_bound(1.0, 0.0, np.int64(10), 0.1) == strong_converse_bound(
            1.0, 0.0, 10, 0.1)


def attenuator(tau=0.5, nbar=0.0):
    return canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=nbar))


_UNPHYSICAL = GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)))  # tau = 1/4, N = 0


def _unsupported(cls):
    return f"no key-capacity formula for class {cls}; supported: C_Att, C_Amp, B2"


# (channel, n, eps, mu, V) and the error corrected_key_bound raises; each
# input also fails every check after the one it is listed for, so the table
# pins the order: classification, class support, round count, the uniform rank
# criterion, mu, the security parameter, the variance parameter
KEY_ERRORS = [
    ((_UNPHYSICAL, 0, 1.5, 0.5, -1.0), ValidationError,
     "channel noise matrix is unphysical: M + i 0.75 Omega has eigenvalue -0.75 < 0"),
    ((GaussianChannel(np.eye(2), np.diag([0.0, 1.0])), 0, 1.5, 0.5, -1.0),
     UnsupportedFormError, _unsupported("B1")),
    ((GaussianChannel(np.zeros((2, 2)), 2.0 * np.eye(2)), 0, 1.5, 0.5, -1.0),
     UnsupportedFormError, _unsupported("A1")),
    ((canonical_channel(form_from_fields(CanonicalClass.D, tau=-0.5, nbar=0.5)),
      0, 1.5, 0.5, -1.0), UnsupportedFormError, _unsupported("D")),
    ((GaussianChannel.identity(), 0.5, 1.5, 0.5, -1.0), DomainError,
     "round count must be an integer, got 0.5"),
    ((GaussianChannel.identity(), 0, 1.5, 0.5, -1.0), DomainError,
     "round count must be >= 1, got 0"),
    ((GaussianChannel.identity(), 3, 1.5, 0.5, -1.0), NoUniformBoundError,
     "uniform topology requires a full-rank noise matrix"),
    ((attenuator(), 3, 1.5, 0.5, -1.0), DomainError,
     "resource variance must be finite with mu >= 1, got 0.5"),
    ((attenuator(), 3, 1.5, 20.0, -1.0), DomainError, "both error terms must lie in [0, 1]"),
    ((attenuator(), 3, 0.1, 20.0, -1.0), DomainError,
     "variance parameter must be non-negative, got -1.0"),
    ((attenuator(), 3, 0.1, 20.0, math.nan), DomainError,
     "variance parameter must be finite, got nan"),
    ((attenuator(), 3, 0.1, 20.0, math.inf), DomainError,
     "variance parameter must be finite, got inf"),
]


class TestCorrectedKeyBoundErrors:
    @pytest.mark.parametrize("tol", [None, 1e-6])
    @pytest.mark.parametrize("args, exc, msg", KEY_ERRORS)
    def test_errors_and_their_order(self, args, exc, msg, tol):
        with pytest.raises(exc) as info:
            corrected_key_bound(*args, tol=tol)
        assert type(info.value) is exc and str(info.value) == msg

    @pytest.mark.parametrize("ch, tol", [
        (attenuator(), None),
        (GaussianChannel(np.eye(2), np.diag([0.1, 1e-11])), 1e-12)])
    def test_one_classify_per_call(self, classify_calls, ch, tol):
        corrected_key_bound(ch, 10, 0.1, 100.0, tol=tol)
        assert len(classify_calls) == 1

    def test_one_classify_before_the_rank_error(self, classify_calls):
        with pytest.raises(NoUniformBoundError):
            corrected_key_bound(GaussianChannel.identity(), 10, 0.1, 100.0)
        assert len(classify_calls) == 1


class TestCorrectedKeyBound:
    def test_composition_oracle(self):
        n, eps, mu = 100, 0.1, 1e6
        report = corrected_key_bound(attenuator(), n, eps, mu)
        eps_tp = min(1.0, epsilon_tp_bound(n, mu, attenuator(), "uniform"))
        expected = strong_converse_bound(phi_loss(0.5, 0.0).value, 0.0, n,
                                         overall_error(eps, eps_tp))
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.inputs["phi"] == pytest.approx(1.0)
        assert report.inputs["eps_tp"] == pytest.approx(eps_tp)

    def test_tolerance_reaches_eps_tp(self):
        # sqrt(1 - 1e-7) I is the additive class B2 under a 1e-6 boundary;
        # eps_tp must come from that B2 bound, not the cancelled C_Att one
        tol = 1e-6
        ch = GaussianChannel(np.sqrt(1.0 - 1e-7) * np.eye(2), 0.1 * np.eye(2))
        report = corrected_key_bound(ch, 10, 0.1, 1e6, tol=tol)
        assert report.inputs["class"] == "B2"
        assert report.inputs["eps_tp"] == 10 * diamond_upper_bound(ch, 1e6, tol=tol) / 2
        assert report.inputs["eps_tp"] == pytest.approx(4.99997500012632e-05, rel=1e-12)

    def test_approaches_clean_bound(self):
        # the simulation penalty decays ~ n sqrt(xi) ~ n / sqrt(mu)
        n, eps = 100, 0.1
        clean = strong_converse_bound(1.0, 0.0, n, eps)
        excesses = [corrected_key_bound(attenuator(), n, eps, mu).value - clean
                    for mu in (1e6, 1e8, 1e10)]
        assert all(e > 0 for e in excesses)
        assert excesses == sorted(excesses, reverse=True)
        assert corrected_key_bound(attenuator(), n, eps, 1e11).value == pytest.approx(
            clean, abs=1e-3)

    def test_small_resource_inflates(self):
        n, eps = 100, 0.1
        large = corrected_key_bound(attenuator(), n, eps, 1e6).value
        small = corrected_key_bound(attenuator(), n, eps, 1.25).value
        assert small > large or corrected_key_bound(attenuator(), n, eps, 1.25).unbounded

    def test_saturated_error_reports_unbounded(self):
        report = corrected_key_bound(attenuator(), 10 ** 6, 0.5, 1.25)
        assert report.unbounded

    def test_amplifier_and_additive_supported(self):
        amp = canonical_channel(form_from_fields(CanonicalClass.C_Amp, tau=2.0, nbar=0.0))
        assert corrected_key_bound(amp, 100, 0.1, 1e8).inputs["phi"] == pytest.approx(1.0)
        add = canonical_channel(form_from_fields(CanonicalClass.B2, xi=0.5))
        assert corrected_key_bound(add, 100, 0.1, 1e8).inputs["phi"] == pytest.approx(
            phi_add(0.5).value)

    def test_identity_rejected_by_rank(self):
        with pytest.raises(NoUniformBoundError):
            corrected_key_bound(GaussianChannel.identity(), 10, 0.1, 100.0)

    def test_classes_without_formula(self):
        for tag, kwargs in ((CanonicalClass.A1, {"nbar": 0.5}),
                            (CanonicalClass.A2, {"nbar": 0.5}),
                            (CanonicalClass.D, {"tau": -1.0, "nbar": 0.5})):
            ch = canonical_channel(form_from_fields(tag, **kwargs))
            with pytest.raises(UnsupportedFormError):
                corrected_key_bound(ch, 10, 0.1, 100.0)

    @pytest.mark.parametrize("eps", [0.2, 0.06882941470735367])
    @pytest.mark.parametrize("mu", [1e6, 1e9])
    def test_never_below_clean_bound(self, eps, mu):
        # at mu = 1e9 the diamond bound cancels to eps_tp = 0.0, where
        # sqrt(eps) ** 2 gave eps_overall 0.19999999999999998, and for
        # 0.06882941470735367 an excess over the clean bound of -2.8e-17
        report = corrected_key_bound(attenuator(0.5, 0.5), 100, eps, mu)
        assert report.inputs["eps_overall"] >= eps
        assert report.inputs["excess_over_clean"] >= 0.0

    def test_zero_simulation_error_gives_the_clean_bound(self, monkeypatch):
        # the diamond bound of the one eps_TP core, peeling._eps_tp
        monkeypatch.setattr(peeling, "_diamond_bound", lambda *args: 0.0)
        report = corrected_key_bound(attenuator(0.5, 0.5), 100, 0.2, 1e6)
        assert report.inputs["eps_tp"] == 0.0 and report.inputs["eps_overall"] == 0.2
        assert report.value == report.inputs["clean_bound"]
        assert report.inputs["excess_over_clean"] == 0.0

    def test_variance_term_propagates(self):
        with_v = corrected_key_bound(attenuator(), 100, 0.1, 1e8, v=1.0)
        without = corrected_key_bound(attenuator(), 100, 0.1, 1e8, v=0.0)
        assert with_v.value > without.value
