import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (b1_witness_mp, bk_added_noise_np, conjugated_channel,
                      env_bound_mp, loglog_slope, sample_form, scutaru_fidelity_sq_mp)
from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel,
                             NoUniformBoundError, ScanRow, b1_gamma, b1_witness_bound,
                             bk_added_noise, canonical_channel, channel_from_dict,
                             classify, convergence_scan, decide_uniform,
                             diamond_upper_bound, environmental_pair, fid_env_A2,
                             fid_env_C, form_from_fields, gaussian_fidelity,
                             nonuniform_witness)
from bosonic_telesim.convergence import _diamond_bound
from bosonic_telesim.fidelity import _b1_witness_infidelity
from bosonic_telesim.teleportation import _env_gamma

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

    def test_noise_without_a_positive_determinant_does_not(self):
        # N's eigenvalues below 0 inside the physicality slack are no noise:
        # B2 would claim uniform convergence with a bound of 2 at every mu
        ch = GaussianChannel(I2, np.diag([1.0, -5e-10]))
        verdict = decide_uniform(ch)
        assert not verdict.uniform
        assert verdict.reason == "B1: rank(N)=1"
        with pytest.raises(NoUniformBoundError):
            diamond_upper_bound(ch, 1e6)
        # both eigenvalues below 0 inside the slack: the identity, B2_Id
        ident = GaussianChannel(I2, -5e-10 * I2)
        verdict = decide_uniform(ident)
        assert not verdict.uniform
        assert verdict.reason == "B2_Id: rank(N)=0"
        with pytest.raises(NoUniformBoundError):
            diamond_upper_bound(ident, 1e6)

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

    def test_additive_bound_positive_beyond_mu_squared_overflow(self):
        # mu * mu overflows above mu ~ 1.34e154; xi(mu) = 1/mu must survive
        ch = canonical_channel(form_from_fields(CanonicalClass.B2, xi=1.0))
        assert diamond_upper_bound(ch, 1e155) > 0.0

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

    @given(mu=st.floats(min_value=1.1, max_value=1e150),
           mu_tilde=st.floats(min_value=1.0, max_value=1e300))
    @example(mu=1e12, mu_tilde=1.5)  # 2 (1 - F) with a float64 F is 8.9e-5 high
    @example(mu=1e15, mu_tilde=1.0)  # and 11% low
    @example(mu=1e150, mu_tilde=1.0)
    @example(mu=1.1, mu_tilde=1e300)
    @settings(max_examples=300, deadline=None)
    def test_matches_extended_precision_oracle(self, mu, mu_tilde):
        # 2 (1 - F), F = (1 + mu_tilde xi / 2)^(-1/2) with xi(mu) exact, at
        # enough digits that 1 - F keeps 200 of them: a lower bound, so never
        # above, and within 1e-12 relative
        got = nonuniform_witness(mu, mu_tilde)
        with mp.workdps(360):
            m = mp.mpf(mu)
            xi = 2 / (m + mp.sqrt(m * m - 1))
            exact = 2 * (1 - 1 / mp.sqrt(1 + mp.mpf(mu_tilde) * xi / 2))
            assert mp.mpf(got) <= exact
            assert float((exact - got) / exact) <= 1e-12


@pytest.mark.parametrize("mu_tilde", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("witness", [nonuniform_witness, b1_witness_bound])
def test_witness_rejects_non_finite_energy(witness, mu_tilde):
    with pytest.raises(DomainError):
        witness(5.0, mu_tilde)


@pytest.mark.parametrize("a, c", [
    (float("nan"), 1.0), (float("inf"), 0.0), (1.0, float("-inf")), (0.0, float("nan")),
    (1e-200, 0.5), (0.0, 1e-200), (1e200, 0.0), (1e150, 0.0), (1e-150, 0.0),
])
@pytest.mark.parametrize("mu_tilde", [1.0, 1e6, 1e300])
def test_witness_rejects_non_finite_or_overflowing_row(a, c, mu_tilde):
    # the completion S of the row (a, c) is non-finite or overflows float64
    with pytest.raises(DomainError):
        b1_witness_bound(5.0, mu_tilde, a, c)


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

    def test_matches_extended_precision_oracle(self, rng):
        # the generic mp.eig two-mode fidelity at 60 digits, with xi(mu)
        # exact: the closed form must agree to 1e-12 and, being a lower
        # bound, never exceed it
        points = [(1.0, 1.0), (1.0, 1e12), (1e12, 1.0), (1e12, 1e12)]
        points += [tuple(float(x) for x in np.exp(rng.uniform(0.0, np.log(1e12), 2)))
                   for _ in range(28)]
        for k, (mu, mu_tilde) in enumerate(points):
            if k % 4 == 0:
                a, c = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
            else:
                a, c = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
            got = b1_witness_bound(mu, mu_tilde, a, c)
            exact = b1_witness_mp(mu, mu_tilde, a, c, dps=60)
            assert mp.mpf(got) <= exact
            assert float((exact - got) / exact) <= 1e-12

    @pytest.mark.parametrize("mu, mu_tilde, a, c", [
        (2.176120975131546, 72.78953843983153, 1.3331628123203703, 0.568544950730951),
        (19.956228009787235, 1.0, 1.3503263101093383, -0.25405792513405534),
        (42.951143774117654, 35.62247890262442, 1.5026648477234472, -0.7134906559457876),
    ])
    def test_rows_moved_by_the_product_square(self, mu, mu_tilde, a, c):
        # (2p + xi)^2 as a product moved these rows by one ulp from the
        # former libm pow; both values stay under the 60-digit one
        got = b1_witness_bound(mu, mu_tilde, a, c)
        exact = b1_witness_mp(mu, mu_tilde, a, c, dps=60)
        assert mp.mpf(got) <= exact
        assert float((exact - got) / exact) <= 1e-12

    def test_kernel_squares_by_product(self):
        # a Python float ``**`` raised OverflowError for this row; the product
        # gives inf, which _witness_column rejects as a DomainError
        with np.errstate(all="ignore"):
            infidelity, f2 = _b1_witness_infidelity(np.array([1.0, 1e6]), 0.2, 1e150, 0.0)
        assert not (np.isfinite(infidelity).all() and np.isfinite(f2).all())

    def test_large_resource_at_unit_energy(self):
        # F = 1 - 3.4e-17, below float64's resolution of F near 1: the
        # witness keeps full relative accuracy only if 1 - F^2 is computed
        # without forming F; the reference is the 60-digit oracle value
        got = b1_witness_bound(1e8, 1.0, 1.3, -0.4)
        assert got == pytest.approx(6.8411773311036529e-17, rel=1e-13)

    @pytest.mark.parametrize("mu_tilde", [1e6, 1e9, 1e12])
    @pytest.mark.parametrize("mu,a,c", [(2.0, 1.0, 1.0), (1.25, 1.0, 0.0),
                                        (5.0, 1.3, -0.4)])
    def test_leading_coefficient_rate(self, mu, a, c, mu_tilde):
        # F^4 mu_tilde -> b1_gamma with an O(1/mu_tilde) relative correction
        xi = bk_added_noise(mu)
        _, f2 = _b1_witness_infidelity(mu_tilde, xi, a, c)
        ratio = f2 * f2 * mu_tilde / b1_gamma(a, c, xi)
        assert abs(ratio - 1.0) <= 10.0 / mu_tilde + 1e-12

    @given(mu=st.floats(min_value=1.0, max_value=1e12),
           mu_tilde=st.floats(min_value=1.0, max_value=1e300),
           factor=st.floats(min_value=1.0, max_value=1e6),
           a=st.sampled_from([0.0, 0.5, 1.0, 1.3, 2.0]),
           c=st.floats(min_value=-1.0, max_value=1.0).filter(lambda x: abs(x) >= 0.1))
    @settings(max_examples=300, deadline=None)
    def test_bounded_monotone_and_finite(self, mu, mu_tilde, factor, a, c):
        lo = b1_witness_bound(mu, mu_tilde, a, c)
        hi = b1_witness_bound(mu, min(mu_tilde * factor, 1e300), a, c)
        assert 0.0 <= lo <= 2.0 and 0.0 <= hi <= 2.0
        # each value lies within 2^-44 relative below the exact one, so the
        # exact monotonicity survives up to that much
        assert lo <= hi * (1.0 + 2.0 ** -44)


@st.composite
def witness_grids(draw):
    """Unsorted mu_tilde grids with duplicates, 1 and values up to 1e300, and
    sometimes NaN, inf or 0.5 at random positions."""
    grid = draw(st.lists(st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=1e300)),
                         max_size=12))
    if grid:
        grid = draw(st.permutations(grid + draw(st.lists(st.sampled_from(grid), max_size=4))))
    if draw(st.booleans()):
        for bad in draw(st.lists(st.sampled_from([math.nan, math.inf, 0.5]),
                                 min_size=1, max_size=2)):
            grid.insert(draw(st.integers(0, len(grid))), bad)
    return grid


def _grid_as(grid, container):
    """``grid`` as a list, a tuple, or a float64 or float32 array."""
    if container == "list":
        return list(grid)
    if container == "tuple":
        return tuple(grid)
    with np.errstate(over="ignore"):  # float32 holds 1e300 as inf
        return np.array(grid, dtype=np.float64 if container == "float64" else np.float32)


class TestWitnessColumn:
    """The witness column of a rank-deficient scan is one array pass; every
    row must equal the public scalar function at its point bit for bit, and
    a bad grid must raise what a row-by-row loop over that function raises.
    A 1-D float64 array converts in one step, every other grid row by row."""

    @given(grid=witness_grids(),
           container=st.sampled_from(["list", "tuple", "float64", "float32"]),
           mu=st.one_of(st.floats(min_value=1.0, max_value=1e12),
                        st.sampled_from([1.0, 1e300, 0.5])),
           a=st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
           c=st.floats(min_value=-3.0, max_value=3.0), unit_rank=st.booleans())
    # NaN and inf inside a float64 array: NaN must fail the array's check as
    # inf does, not reach the witness (Python's min and max would skip it)
    @example(grid=[1.0, math.nan], container="float64", mu=5.0, a=1.0, c=0.0,
             unit_rank=True)
    @example(grid=[1.0, math.nan], container="float64", mu=5.0, a=1.0, c=0.0,
             unit_rank=False)
    @example(grid=[2.0, math.inf, 3.0], container="float64", mu=5.0, a=1.0, c=0.0,
             unit_rank=True)
    @example(grid=[3.0, -math.inf], container="float64", mu=5.0, a=1.0, c=0.0,
             unit_rank=False)
    @example(grid=[1e300, 2.0], container="float32", mu=5.0, a=1.0, c=0.0,
             unit_rank=False)
    @settings(max_examples=400, deadline=None)
    def test_rows_match_scalar_functions(self, grid, container, mu, a, c, unit_rank):
        if unit_rank:
            ch, params = GaussianChannel(I2, np.diag([0.0, 1.0])), {"mu": mu, "a": a, "c": c}
            def witness(m):
                return b1_witness_bound(mu, m, a, c)
        else:
            ch, params = GaussianChannel.identity(), {"mu": mu}
            def witness(m):
                return nonuniform_witness(mu, m)
        grid = _grid_as(grid, container)
        try:
            expected = [(float(m).hex(), witness(m).hex()) for m in grid]
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                convergence_scan(ch, grid, params)
            assert str(info.value) == str(exc)
            return
        rows = convergence_scan(ch, grid, params)
        assert [(r.mu_tilde.hex(), r.witness_lower_bound.hex()) for r in rows] == expected
        assert all((r.mu, r.xi, r.upper_bound) == (mu, bk_added_noise(mu), None)
                   for r in rows)

    @pytest.mark.parametrize("grid, error", [
        (["x", math.nan], ValueError),  # row 0 fails first: its conversion
        ([math.nan, "x"], DomainError),  # row 0 fails first: mu_tilde
        ([2.0, None], TypeError),
        ([2.0, 10 ** 400], OverflowError),
        (5.0, TypeError),  # not iterable
        (("x", math.nan), ValueError),
        ((math.nan, "x"), DomainError),
        ((2.0, None), TypeError),
        (np.array(5.0), TypeError),  # a 0-d array is not iterable
        (np.ones((2, 2)), TypeError),  # a row of a 2-D array is no float
        (np.array([2, 0]), DomainError),  # int array: 0 < 1
        (np.array([2.0, 0.5], dtype=np.float32), DomainError),
        (np.array([2.0, math.nan]), DomainError),
        (np.array([math.inf, 2.0]), DomainError),
    ])
    def test_first_bad_row_decides_the_error(self, grid, error):
        with pytest.raises(error):
            convergence_scan(GaussianChannel.identity(), grid, {"mu": 5.0})

    def test_other_arrays_convert_row_by_row(self):
        ch, params = GaussianChannel(I2, np.diag([0.0, 1.0])), {"mu": 5.0, "a": 1.3, "c": -0.4}
        dense = np.geomspace(1.0, 1e9, 7)
        for grid, floats in [
                (np.array([1, 10, 10 ** 9]), [1.0, 10.0, 1e9]),
                (dense[::2], dense[::2].tolist()),  # strided view
                (dense.astype(">f8"), dense.tolist())]:  # non-native byte order
            rows = convergence_scan(ch, grid, params)
            assert rows == convergence_scan(ch, floats, params)
            assert [type(r.mu_tilde) for r in rows] == [float] * len(floats)
            assert [r.mu_tilde for r in rows] == floats

    def test_row_checks_follow_a_valid_first_row(self):
        ch = GaussianChannel(I2, np.diag([0.0, 1.0]))
        with pytest.raises(DomainError, match="resource variance"):
            convergence_scan(ch, [2.0, 0.5], {"mu": 0.5})
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            convergence_scan(ch, [2.0, 0.5], {"mu": 5.0, "a": 0.0, "c": 0.0})
        with pytest.raises(DomainError, match="mu_tilde must be finite"):
            convergence_scan(ch, [0.5, 2.0], {"mu": 0.5, "a": 0.0, "c": 0.0})


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

    @pytest.mark.parametrize("unit_rank", [False, True])
    def test_one_added_noise_per_witness_scan(self, unit_rank, monkeypatch):
        from bosonic_telesim import convergence

        calls = []
        monkeypatch.setattr(convergence, "bk_added_noise",
                            lambda mu: calls.append(mu) or bk_added_noise(mu))
        ch = GaussianChannel(I2, np.diag([0.0, 1.0])) if unit_rank else GaussianChannel.identity()
        rows = convergence_scan(ch, np.geomspace(1.0, 1e9, 30), {"mu": 5.0})
        assert calls == [5.0]
        assert all(row.xi is rows[0].xi == bk_added_noise(5.0) for row in rows)

    def test_empty_grid(self):
        assert convergence_scan(GaussianChannel.identity(), [], {"mu": 2.0}) == []
        # with no row, neither mu nor the row (a, c) is checked
        ch = GaussianChannel(I2, np.diag([0.0, 1.0]))
        assert convergence_scan(ch, [], {"mu": 0.5, "a": 0.0, "c": 0.0}) == []
        assert convergence_scan(GaussianChannel.identity(), np.array([]), {"mu": 0.5}) == []


# mu on both sides of 2^27, where bk_added_noise switches to 1 / mu
_MU = st.one_of(st.floats(1.0, 2.0 ** 27), st.floats(2.0 ** 27, 1e300),
                st.sampled_from([1.0, 2.0 ** 27 - 1.0, 2.0 ** 27, 2.0 ** 27 + 2.0]))
_FRAME_R = st.floats(0.5, 2.0).flatmap(lambda r: st.sampled_from([r, 1.0 / r]))
_ENV_TAU = {CanonicalClass.C_Att: (0.002, 0.998), CanonicalClass.C_Amp: (1.002, 5.0),
            CanonicalClass.D: (-5.0, -0.002), CanonicalClass.A2: None}


@st.composite
def env_forms(draw):
    """Canonical forms of the classes with an environmental pair (C_Att,
    C_Amp, D and A2): nbar in [0, 5] (omega from 1 to 11) or up to 1e100, and
    |1 - tau| >= 0.002, so gamma = xi |tau| / |1 - tau| reaches 1e3 at mu = 1."""
    tag = draw(st.sampled_from(list(_ENV_TAU)))
    tau = None if _ENV_TAU[tag] is None else draw(st.floats(*_ENV_TAU[tag]))
    nbar = draw(st.one_of(st.floats(0.0, 5.0), st.floats(5.0, 1e100)))
    return form_from_fields(tag, tau=tau, nbar=nbar)


class TestPlainFloatRows:
    """The full-rank scan's per-row math runs on Python floats with ``math``:
    the added noise is its numpy-scalar oracle in ``_helpers`` bit for bit, as
    IEEE square roots are correctly rounded in both, and the environmental
    fidelities are ``gaussian_fidelity`` of ``environmental_pair``'s states,
    from the one one-mode kernel."""

    @given(_MU)
    @settings(max_examples=500, deadline=None)
    def test_added_noise_is_the_numpy_value_as_a_float(self, mu):
        got = bk_added_noise(mu)
        assert type(got) is float
        assert got.hex() == float(bk_added_noise_np(mu)).hex()
        assert type(bk_added_noise(np.float64(mu))) is float

    @given(form=env_forms(), mu=_MU, r=st.one_of(_FRAME_R, st.floats(1e-3, 1e3)),
           a=st.floats(-3.0, 3.0), c=st.floats(-3.0, 3.0))
    @settings(max_examples=1000, deadline=None)
    def test_environmental_fidelity_is_gaussian_fidelity_of_the_pair(self, form, mu, r, a, c):
        pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
        want = gaussian_fidelity(pair.rho_e, pair.rho_e_mu)
        xi, omega = bk_added_noise(mu), 2.0 * form.noise_param + 1.0
        got = (fid_env_A2(xi, omega, a, c) if form.tag is CanonicalClass.A2
               else fid_env_C(_env_gamma(xi, form.tau), omega, r))
        assert got.hex() == want.hex()
        bound = _diamond_bound(form, mu, r, a, c)
        assert type(bound) is float
        assert bound == 2.0 * math.sqrt(max(1.0 - want * want, 0.0))

    # gamma (A2: xi (a^2 + c^2)) from 1e-14 to 1e3, omega = 1 or 1 + [1e-6, 1e6]
    _WEIGHT = st.floats(-14.0, 3.0).map(lambda e: 10.0 ** e)
    _OMEGA = st.one_of(st.just(1.0), st.floats(-6.0, 6.0).map(lambda e: 1.0 + 10.0 ** e))

    @given(weight=_WEIGHT, omega=_OMEGA, r=st.floats(0.5, 2.0), a=st.floats(-3.0, 3.0),
           c=st.floats(-3.0, 3.0), rank_one=st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_fidelity_squared_matches_extended_precision(self, weight, omega, r, a, c,
                                                         rank_one):
        # Scutaru's form in 60 digits of the CM entries the kernel is given
        if rank_one:
            xi = weight / max(a * a + c * c, 1e-3)
            f = fid_env_A2(xi, omega, a, c)
            p, q = xi * (a * a + c * c) + omega, omega
        else:
            f = fid_env_C(weight, omega, r)
            inv = 1.0 / r
            p, q = omega + weight * (r * r), omega + weight * (inv * inv)
        want = scutaru_fidelity_sq_mp([[omega, 0.0], [0.0, omega]], [[p, 0.0], [0.0, q]])
        assert abs(f * f - want) <= 1e-13 * want

    @pytest.mark.parametrize("cls, tau", [("C_Att", 0.5), ("C_Amp", 2.0), ("D", -1.0),
                                          ("A2", None)])
    @pytest.mark.parametrize("nbar", [1e8, 1e100])
    @pytest.mark.parametrize("mu", [1.1, 10.0, 1e4, 1e9])
    def test_large_thermal_variance_gives_a_finite_bound(self, cls, tau, nbar, mu):
        # omega^2 of 4e16 and 4e200: the kernel scales its products, so the
        # bound is finite with no warning (1 - F^2 still cancels, see below)
        spec = {"class": cls, "nbar": nbar} if tau is None else {"class": cls, "tau": tau,
                                                                 "nbar": nbar}
        form = classify(channel_from_dict(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                value = _diamond_bound(form, mu, 1.0, 1.0, 0.0)
        assert type(value) is float and 0.0 <= value <= 2.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: 1 - F^2 cancels to 0 at "
                                           "large thermal variance")
    def test_large_thermal_variance_bound_is_sound(self):
        form = form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=1e8)
        want = env_bound_mp(form, 1.1)
        assert abs(float(want) - 6.4e-9) <= 0.1e-9
        assert _diamond_bound(form, 1.1, 1.0, 1.0, 0.0) >= want

    def test_gamma_beyond_float64_range_raises_overflow_error(self):
        # gamma = xi (|tau| / |1 - tau|) is about xi at tau = 1e308: the
        # quotient first, so xi |tau| does not overflow
        form = classify(channel_from_dict({"class": "C_Amp", "tau": 1e308, "nbar": 0.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu in (1.001, 1.01):
                got = _diamond_bound(form, mu, 1.0, 1.0, 0.0)
                assert got == pytest.approx(float(env_bound_mp(form, mu)), rel=1e-15)
            assert _diamond_bound(form, 1.001, 1.0, 1.0, 0.0) == 1.3983167797745308
            for xi, tau in ((math.inf, 0.5), (1.0, math.inf), (1e308, 0.75)):
                with pytest.raises(OverflowError, match="gamma"):
                    _env_gamma(xi, tau)

    def test_large_thermal_variance_exits_0_from_the_cli(self, capsys):
        from bosonic_telesim.cli import main

        for nbar in (1e8, 1e100):
            config = {"channel": {"class": "C_Att", "tau": 0.5, "nbar": nbar},
                      "grid": {"param": "mu", "start": 10.0, "stop": 1e4, "points": 2,
                               "log": True}}
            assert main(["convergence", "--config", json.dumps(config)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            rows = captured.out.strip().splitlines()[1:]
            assert len(rows) == 2
            assert all(0.0 <= float(row.split(",")[3]) <= 2.0 for row in rows)


class TestScanRow:
    ROW = dict(mu=10.0, mu_tilde=None, xi=0.1, upper_bound=0.3, witness_lower_bound=None)

    def test_frozen(self):
        row = ScanRow(**self.ROW)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.upper_bound = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.mu
        assert row == ScanRow(**self.ROW)

    def test_positional_and_keyword_rows_agree(self):
        row = ScanRow(*self.ROW.values())
        assert row == ScanRow(**self.ROW)
        assert hash(row) == hash(ScanRow(**self.ROW))
        assert dataclasses.astuple(row) == tuple(self.ROW.values())
        assert row != ScanRow(**dict(self.ROW, xi=0.2))
        with pytest.raises(TypeError):
            ScanRow(10.0, None, 0.1, 0.3)

    def test_replace(self):
        row = dataclasses.replace(ScanRow(**self.ROW), upper_bound=0.5)
        assert row == ScanRow(**dict(self.ROW, upper_bound=0.5))

    @pytest.mark.parametrize("channel, grid, params", [
        (canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5)),
         [1.25, 10.0], None),
        (GaussianChannel(I2, np.diag([0.0, 1.0])), np.geomspace(1.0, 1e9, 3),
         {"mu": 5.0, "a": 1.3, "c": -0.4}),
        (GaussianChannel.identity(), (1.0, 1e6), {"mu": 5.0}),
    ])
    def test_scan_rows_are_constructed_rows(self, channel, grid, params):
        rows = convergence_scan(channel, grid, params)
        assert len(rows) == len(grid)
        for row in rows:
            fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(ScanRow)}
            twin = ScanRow(**fields)
            assert type(row) is ScanRow
            assert row == twin and hash(row) == hash(twin) and repr(row) == repr(twin)
            assert list(vars(row).items()) == list(vars(twin).items())
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.mu = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del row.xi
            assert dataclasses.replace(row, xi=0.5) == ScanRow(**dict(fields, xi=0.5))
            assert dataclasses.replace(row) == row

    @pytest.mark.parametrize("bad, error, match", [
        (0.5, DomainError, "resource variance"),
        (math.nan, DomainError, "resource variance"),
        ("x", ValueError, "could not convert"),
        (None, TypeError, None),
    ])
    def test_bad_full_rank_row_after_good_ones(self, bad, error, match, classify_calls):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
        with pytest.raises(error, match=match):
            convergence_scan(ch, [1.25, 10.0, bad, 2.0])
        # the scan's two calls, then one per row: the two rows before the bad one
        assert len(classify_calls) == 4

    def test_scan_rows_repr_with_plain_floats(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
        rows = convergence_scan(ch, [1.25, 2.0 ** 27 + 2.0])
        assert [type(row.xi) for row in rows] == [float, float]
        assert repr(rows[0]) == (f"ScanRow(mu=1.25, mu_tilde=None, xi={rows[0].xi!r}, "
                                 f"upper_bound={rows[0].upper_bound!r}, "
                                 "witness_lower_bound=None)")
        assert "np.float64" not in repr(rows)
