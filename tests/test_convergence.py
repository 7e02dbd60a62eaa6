import numpy as np
import pytest

from _helpers import conjugated_channel, loglog_slope, sample_form
from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel,
                             NoUniformBoundError, b1_gamma, b1_witness_bound,
                             bk_added_noise, canonical_channel, convergence_scan,
                             decide_uniform, diamond_upper_bound, fid_env_A2,
                             fid_env_C, form_from_fields,
                             nonuniform_witness)

I2 = np.eye(2)


def mu_for_xi(xi):
    """Invert xi(mu): mu = (y + 1/y)/2 with y = 2/xi."""
    y = 2.0 / xi
    return 0.5 * (y + 1.0 / y)


class TestDecideUniform:
    def test_attenuator_converges(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.3, nbar=1.0))
        verdict = decide_uniform(ch)
        assert verdict.uniform
        assert verdict.reason == "C_Att: rank(N)=2"

    def test_identity_does_not(self):
        verdict = decide_uniform(GaussianChannel.identity())
        assert not verdict.uniform
        assert "rank(N)=0" in verdict.reason

    def test_unit_rank_noise_does_not(self):
        verdict = decide_uniform(GaussianChannel(I2, np.diag([0.0, 1.0])))
        assert not verdict.uniform
        assert "B1" in verdict.reason

    def test_verdict_matches_numeric_rank(self, rng):
        for _ in range(60):
            form = sample_form(rng)
            ch = conjugated_channel(form, rng)
            expected = form.tag not in (CanonicalClass.B1, CanonicalClass.B2_Id)
            assert decide_uniform(ch).uniform is expected

    def test_ambiguous_classification_propagates(self):
        from bosonic_telesim import ClassificationAmbiguousError
        with pytest.raises(ClassificationAmbiguousError):
            decide_uniform(GaussianChannel(np.diag([1e-6, 1e-6]), 2.0 * I2))

    def test_bound_curve_sampling(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        verdict = decide_uniform(ch, mu_grid=[2.0, 10.0, 100.0])
        assert len(verdict.bound_curve) == 3
        values = [b for _, b in verdict.bound_curve]
        assert values == sorted(values, reverse=True)


class TestDiamondUpperBound:
    def test_attenuator_closed_form_composition(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.0))
        got = diamond_upper_bound(ch, 1.25)  # xi = 1, gamma = 1
        expected = 2.0 * np.sqrt(1.0 - fid_env_C(1.0, 1.0, 1.0) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_amplifier_and_conjugate_routes(self):
        mu, r = 4.0, 1.2
        xi = bk_added_noise(mu)
        amp = canonical_channel(form_from_fields(CanonicalClass.C_Amp, tau=2.0, nbar=0.5))
        expected = 2.0 * np.sqrt(1.0 - fid_env_C(xi * 2.0, 2.0, r) ** 2)
        assert diamond_upper_bound(amp, mu, r=r) == pytest.approx(expected, rel=1e-12)
        conj = canonical_channel(form_from_fields(CanonicalClass.D, tau=-1.0, nbar=0.5))
        kappa = -xi / 2.0  # xi tau / (1 - tau) at tau = -1
        expected = 2.0 * np.sqrt(1.0 - fid_env_C(-kappa, 2.0, r) ** 2)
        assert diamond_upper_bound(conj, mu, r=r) == pytest.approx(expected, rel=1e-12)

    def test_rank_one_transmission_route(self):
        mu, a, c = 3.0, 0.7, 1.1
        xi = bk_added_noise(mu)
        ch = canonical_channel(form_from_fields(CanonicalClass.A2, nbar=0.4))
        expected = 2.0 * np.sqrt(1.0 - fid_env_A2(xi, 1.8, a, c) ** 2)
        assert diamond_upper_bound(ch, mu, a=a, c=c) == pytest.approx(expected, rel=1e-12)

    def test_measure_and_prepare_is_exact(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.A1, nbar=1.0))
        assert diamond_upper_bound(ch, 1.5) == 0.0

    def test_additive_route_linear_in_noise(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.B2, xi=1.0))
        xis = np.geomspace(1e-4, 1e-2, 6)
        bounds = [diamond_upper_bound(ch, mu_for_xi(x)) for x in xis]
        assert loglog_slope(xis, bounds) == pytest.approx(1.0, abs=0.05)
        assert bounds[0] <= 1e-2

    def test_additive_route_matches_exact_form(self):
        # r = 1, xi' = 1: bound = 2 xi_bk / (2 + xi_bk)
        xi_bk = 1e-3
        ch = canonical_channel(form_from_fields(CanonicalClass.B2, xi=1.0))
        got = diamond_upper_bound(ch, mu_for_xi(xi_bk))
        assert got == pytest.approx(2.0 * xi_bk / (2.0 + xi_bk), rel=1e-12)

    def test_additive_route_sound_against_extended_precision(self, rng):
        # the exact tau -> 1 limit 2 sqrt(1 - 4 num/den) in 60 digits, with
        # xi(mu) exact; the float64 bound must match it and never fall below
        import mpmath as mp
        for _ in range(300):
            mu = float(np.exp(rng.uniform(np.log(1.1), np.log(1e12))))
            xi_prime, r = rng.uniform(0.05, 2.0), rng.uniform(0.5, 2.0)
            ch = canonical_channel(form_from_fields(CanonicalClass.B2, xi=xi_prime))
            got = diamond_upper_bound(ch, mu, r=r)
            with mp.workdps(60):
                m, xp, rr = mp.mpf(mu), mp.mpf(xi_prime), mp.mpf(r)
                xi = 2 / (m + mp.sqrt(m * m - 1))
                a = xi * xp * (1 + rr ** 4)
                num = rr * xp * mp.sqrt(a + rr ** 2 * (xi ** 2 + xp ** 2))
                den = 2 * a + rr ** 2 * (xi ** 2 + 4 * xp ** 2)
                exact = 2 * mp.sqrt(1 - 4 * num / den)
                assert got >= exact
                assert float((got - exact) / exact) <= 1e-12

    def test_rank_deficient_rejected(self):
        for ch in (GaussianChannel.identity(), GaussianChannel(I2, np.diag([0.0, 1.0]))):
            with pytest.raises(NoUniformBoundError):
                diamond_upper_bound(ch, 10.0)

    def test_decreasing_in_mu(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.0))
        grid = np.geomspace(1.1, 1e6, 25)
        bounds = [diamond_upper_bound(ch, mu) for mu in grid]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


class TestNonuniformWitness:
    def test_diverging_input_energy(self):
        assert nonuniform_witness(5.0, 1e6) >= 1.99

    def test_small_input_is_easy(self):
        assert nonuniform_witness(5.0, 1.0) <= 0.2

    def test_order_of_limits(self):
        # resource limit first: witness vanishes
        assert nonuniform_witness(1e9, 1e3) <= 1e-3
        # input limit first: witness saturates at 2
        assert nonuniform_witness(1e3, 1e9) >= 1.99

    def test_domain(self):
        with pytest.raises(DomainError):
            nonuniform_witness(0.5, 10.0)


class TestB1Witness:
    def test_approaches_two(self):
        assert b1_witness_bound(1.25, 1e8, 1.0, 0.0) >= 1.9

    def test_quartic_root_scaling(self):
        muts = np.geomspace(1e3, 1e7, 5)
        fs = [1.0 - b1_witness_bound(2.0, m, 1.0, 1.0) / 2.0 for m in muts]
        assert loglog_slope(muts, fs) == pytest.approx(-0.25, abs=0.03)

    def test_expansion_coefficient(self):
        mu, mut = 2.0, 1e6
        f = 1.0 - b1_witness_bound(mu, mut, 1.0, 1.0) / 2.0
        gamma = b1_gamma(1.0, 1.0, bk_added_noise(mu))
        assert f ** 4 * mut == pytest.approx(gamma, rel=1e-2)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            b1_witness_bound(0.5, 1e4)
        with pytest.raises(DomainError):
            b1_witness_bound(2.0, 0.5)

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError):
            b1_witness_bound(2.0, 1e4, 0.0, 0.0)


class TestConvergenceScan:
    def test_rank_two_scan_decreasing(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        rows = convergence_scan(ch, np.geomspace(1.1, 1e4, 12))
        bounds = [row.upper_bound for row in rows]
        assert all(b is not None for b in bounds)
        assert all(row.witness_lower_bound is None for row in rows)
        assert bounds == sorted(bounds, reverse=True)
        assert [row.xi for row in rows] == [bk_added_noise(row.mu) for row in rows]

    def test_identity_witness_scan(self):
        rows = convergence_scan(GaussianChannel.identity(),
                                np.geomspace(1.0, 1e6, 10), {"mu": 5.0})
        assert all(row.upper_bound is None for row in rows)
        witness = [row.witness_lower_bound for row in rows]
        assert witness == sorted(witness)
        assert witness[-1] >= 1.99
        assert all(row.mu == 5.0 for row in rows)

    def test_unit_rank_witness_scan(self):
        ch = GaussianChannel(I2, np.diag([0.0, 1.0]))
        rows = convergence_scan(ch, [1e2, 1e4], {"mu": 1.25, "a": 1.0, "c": 0.0})
        assert rows[0].witness_lower_bound < rows[1].witness_lower_bound

    def test_empty_grid(self):
        assert convergence_scan(GaussianChannel.identity(), [], {"mu": 2.0}) == []
