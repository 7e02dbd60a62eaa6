import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_telesim import (AdaptiveProtocolSpec, CanonicalClass, DomainError,
                             GaussianChannel, NoUniformBoundError, Tolerances,
                             canonical_channel, diamond_upper_bound,
                             epsilon_tp_bound, form_from_fields, peel_bound,
                             two_round_demo)

I2 = np.eye(2)


def attenuator(tau=0.5, nbar=0.0):
    return canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=nbar))


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


class TestAdaptiveProtocolSpec:
    def test_uniform_requires_full_rank_noise(self):
        with pytest.raises(NoUniformBoundError):
            AdaptiveProtocolSpec(rounds=2, channel=GaussianChannel.identity(),
                                 topology="uniform")

    def test_bounded_uniform_requires_energy(self):
        with pytest.raises(DomainError):
            AdaptiveProtocolSpec(rounds=2, channel=attenuator(), topology="bounded_uniform")
        spec = AdaptiveProtocolSpec(rounds=2, channel=attenuator(),
                                    topology="bounded_uniform", energy_bound=10.0)
        assert spec.energy_bound == 10.0

    def test_strong_is_unrestricted(self):
        spec = AdaptiveProtocolSpec(rounds=3, channel=attenuator(), topology="strong")
        assert spec.rounds == 3


class TestEpsilonTpBound:
    def test_vanishes_with_resource(self):
        values = [epsilon_tp_bound(10, mu, attenuator(), "uniform") for mu in
                  (1e2, 1e4, 1e6)]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-2

    def test_linear_in_rounds(self):
        one = epsilon_tp_bound(1, 100.0, attenuator(), "uniform")
        assert epsilon_tp_bound(2, 100.0, attenuator(), "uniform") == pytest.approx(2 * one)

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
        tol = Tolerances.uniform(1e-12)
        got = epsilon_tp_bound(2, 10.0, ch, "uniform", tol=tol)
        assert got == 2 * diamond_upper_bound(ch, 10.0, tol=tol) / 2


class TestTwoRoundDemo:
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
