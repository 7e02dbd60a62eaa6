import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel,
                             NoUniformBoundError, Tolerances, UnsupportedFormError,
                             ValidationError,
                             c_epsilon, canonical_channel, corrected_key_bound,
                             diamond_upper_bound, entropic_h, epsilon_tp_bound,
                             form_from_fields, overall_error, phi_add, phi_amp,
                             phi_loss, strong_converse_bound)


class TestEntropicH:
    def test_zero(self):
        assert entropic_h(0.0) == 0.0

    def test_unit(self):
        assert entropic_h(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_three(self):
        assert entropic_h(3.0) == pytest.approx(8.0 - 3.0 * math.log2(3.0), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            entropic_h(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_increasing(self, x, step):
        assert entropic_h(x + step) > entropic_h(x)


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
        with pytest.raises(DomainError):
            strong_converse_bound(1.0, 0.0, 0, 0.1)
        with pytest.raises(DomainError):
            strong_converse_bound(1.0, -1.0, 10, 0.1)
        with pytest.raises(DomainError):
            strong_converse_bound(1.0, 0.0, 10, 1.0)


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
    ((GaussianChannel.identity(), 0, 1.5, 0.5, -1.0), DomainError,
     "round count must be >= 1, got 0"),
    ((GaussianChannel.identity(), 3, 1.5, 0.5, -1.0), NoUniformBoundError,
     "uniform topology requires a full-rank noise matrix"),
    ((attenuator(), 3, 1.5, 0.5, -1.0), DomainError,
     "resource variance must be finite with mu >= 1, got 0.5"),
    ((attenuator(), 3, 1.5, 20.0, -1.0), DomainError, "both error terms must lie in [0, 1]"),
    ((attenuator(), 3, 0.1, 20.0, -1.0), DomainError,
     "variance parameter must be non-negative, got -1.0"),
]


class TestCorrectedKeyBoundErrors:
    @pytest.mark.parametrize("tol", [None, Tolerances.uniform(1e-6)])
    @pytest.mark.parametrize("args, exc, msg", KEY_ERRORS)
    def test_errors_and_their_order(self, args, exc, msg, tol):
        with pytest.raises(exc) as info:
            corrected_key_bound(*args, tol=tol)
        assert type(info.value) is exc and str(info.value) == msg

    @pytest.mark.parametrize("ch, tol", [
        (attenuator(), None),
        (GaussianChannel(np.eye(2), np.diag([0.1, 1e-11])), Tolerances.uniform(1e-12))])
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
        tol = Tolerances.uniform(1e-6)
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

    def test_variance_term_propagates(self):
        with_v = corrected_key_bound(attenuator(), 100, 0.1, 1e8, v=1.0)
        without = corrected_key_bound(attenuator(), 100, 0.1, 1e8, v=0.0)
        assert with_v.value > without.value
