import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import (b1_witness_infidelity_np, b1_witness_mp, b2_bound_mp, bk_added_noise_np,
                      conjugated_channel, env_bound_mp, identity_witness_np, loglog_slope,
                      sample_form, scutaru_fidelity_sq_mp)
from bosonic_telesim import (CanonicalClass, DomainError, GaussianChannel,
                             NoUniformBoundError, ScanRow, ScanTable, b1_gamma, b1_witness_bound,
                             bk_added_noise, canonical_channel, channel_from_dict,
                             classify, convergence_scan, decide_uniform,
                             diamond_upper_bound, environmental_pair, fid_env_A2,
                             fid_env_C, fid_output_identity, form_from_fields,
                             gaussian_fidelity, nonuniform_witness)
from bosonic_telesim.convergence import _B1_ROUND_DOWN, _diamond_bound
from bosonic_telesim.fidelity import _b1_witness_infidelity, _env_root_infidelity
from bosonic_telesim.teleportation import _env_gamma, _frame_row

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

    def test_bool_resource_rejected(self):
        # True was taken as mu = 1, giving the witness 1.397
        with pytest.raises(DomainError, match="must be a real number"):
            nonuniform_witness(True, 10.0)

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
        pairs = _b1_witness_infidelity([1.0, 1e6], 0.2, 1e150, 0.0)
        assert not all(math.isfinite(x) for pair in pairs for x in pair)

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
        [(_, f2)] = _b1_witness_infidelity([mu_tilde], xi, a, c)
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
    """The witness column of a rank-deficient scan is one kernel pass over the
    grid's floats, each entry a real number by ``_floats._real``; every row
    must equal the public scalar function at its point bit for bit, and the
    numpy-array kernels of ``_helpers`` too, and a bad grid, row (a, c) or mu
    must raise the error that function raises for the row, then mu, then the
    first bad mu_tilde, an empty grid included; an overflowing row is found
    where the witnesses are evaluated."""

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
    # an overflowing row is found after the column's NaN, and after its row
    # and mu checks where the grid is empty
    @example(grid=[2.0, math.nan], container="list", mu=5.0, a=0.0, c=1e-200,
             unit_rank=True)
    @example(grid=[], container="list", mu=0.5, a=0.0, c=0.0, unit_rank=True)
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
            # the row (a, c), mu, then the first bad mu_tilde, for any grid (an
            # empty one too); then the witnesses, where a row may overflow
            if unit_rank:
                _frame_row(a, c)
            bk_added_noise(mu)
            for m in [m for m in grid if not 1.0 <= m < math.inf][:1]:
                witness(m)
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

    @pytest.mark.parametrize("grid, match, calls", [
        # an entry that is no real number (by _floats._real) fails before the
        # channel is classified, and before a bad real one that precedes it
        (["x", math.nan], "grid entry must be a real number, got 'x'", 0),
        ([math.nan, "x"], "grid entry must be a real number, got 'x'", 0),
        ([2.0, 10 ** 400], "grid entry must lie within float64 range", 0),
        (("x", math.nan), "grid entry must be a real number, got 'x'", 0),
        ([2.0, None], "grid entry must be a real number, got None", 0),
        ((math.nan, "1.5"), "grid entry must be a real number, got '1.5'", 0),
        ([2.0, True], "grid entry must be a real number, got True", 0),
        # nested entries and scalars are not one-dimensional
        ([[2.0], [3.0, 4.0]], r"grid entry must be a real number, got \[2.0\]", 0),
        (np.ones((2, 2)), r"grid entry must be a real number, got \[1.0, 1.0\]", 0),
        (5.0, "grid must be a one-dimensional list, .* got float", 0),
        pytest.param(10 ** 5000, "grid must be a one-dimensional list, .* got int", 0,
                     id="int-1e5000"),
        (np.array(5.0), "grid must be a one-dimensional list, .* got ndarray", 0),
        ("25", "grid must be a one-dimensional list, .* got str", 0),
        # the first bad real entry is named, after the one classification
        (np.array([2, 0]), "got 0.0", 1),  # int array: 0 < 1
        (np.array([2.0, 0.5, 0.25], dtype=np.float32), "got 0.5", 1),
        (np.array([2.0, math.nan, 0.5]), "got nan", 1),
        (np.array([math.inf, 2.0]), "got inf", 1),
    ])
    def test_first_bad_row_decides_the_error(self, grid, match, calls, classify_calls):
        with pytest.raises(DomainError, match=match):
            convergence_scan(GaussianChannel.identity(), grid, {"mu": 5.0})
        assert len(classify_calls) == calls

    @pytest.mark.parametrize("grid, match", [
        # a complex entry is no real number (a float cast would drop its imaginary
        # part); the first is named, as np.complex128(...) under numpy 2
        (np.array([2 + 5j, 10 + 0j]), r"must be a real number, got \(2\+5j\)"),
        (np.array([2.0, 10.0], dtype=complex), r"must be a real number, got \(2\+0j\)"),
        ([np.complex128(2 + 5j), 10.0], r"must be a real number, got .*2\+5j"),
        ([2 + 5j, 10.0], r"must be a real number, got \(2\+5j\)"),
    ])
    def test_complex_grid_rejected(self, grid, match, classify_calls):
        for ch, params in ((GaussianChannel.identity(), {"mu": 5.0}),
                           (canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5)),
                            None)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=match):
                    convergence_scan(ch, grid, params)
        assert classify_calls == []  # checked before the channel is classified

    def test_other_arrays_convert_to_the_same_rows(self):
        ch, params = GaussianChannel(I2, np.diag([0.0, 1.0])), {"mu": 5.0, "a": 1.3, "c": -0.4}
        dense = np.geomspace(1.0, 1e9, 7)
        for grid, floats in [
                (np.array([1, 10, 10 ** 9]), [1.0, 10.0, 1e9]),
                (dense[::2], dense[::2].tolist()),  # strided view
                (dense.astype(">f8"), dense.tolist()),  # non-native byte order
                (range(1, 4), [1.0, 2.0, 3.0])]:
            rows = convergence_scan(ch, grid, params)
            assert rows == convergence_scan(ch, floats, params)
            assert [type(r.mu_tilde) for r in rows] == [float] * len(floats)
            assert [r.mu_tilde for r in rows] == floats

    def test_row_then_mu_then_column(self):
        ch = GaussianChannel(I2, np.diag([0.0, 1.0]))
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            convergence_scan(ch, [0.5, 2.0], {"mu": 0.5, "a": 0.0, "c": 0.0})
        with pytest.raises(DomainError, match="resource variance"):
            convergence_scan(ch, [0.5, 2.0], {"mu": 0.5})
        with pytest.raises(DomainError, match="mu_tilde must be finite and >= 1, got 0.5"):
            convergence_scan(ch, [2.0, 0.5, math.nan], {"mu": 5.0})

    @given(grid=st.lists(st.one_of(st.sampled_from([1.0, 1e300]),
                                   st.floats(0.0, 300.0).map(lambda e: 10.0 ** e)),
                         max_size=12),
           bad=st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf, 0.5])),
           mu=st.one_of(st.floats(min_value=1.0, max_value=1e12),
                        st.sampled_from([1.0, 2.0 ** 27, 1e300])),
           row=st.one_of(st.tuples(st.just(0.0), st.floats(0.1, 3.0)),
                         st.tuples(st.floats(-3.0, -0.1), st.just(0.0)),
                         st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                         st.just((1e200, 0.0))).filter(lambda ac: ac != (0.0, 0.0)),
           k=st.integers(0, 12), unit_rank=st.booleans(), array=st.booleans())
    @example(grid=[1.0, 1e300], bad=None, mu=5.0, row=(1e200, 0.0), k=0, unit_rank=True,
             array=False)
    @example(grid=[1.0, 1e300], bad=math.nan, mu=5.0, row=(0.0, 1.0), k=1, unit_rank=True,
             array=True)
    @settings(max_examples=400, deadline=None)
    def test_rows_match_the_numpy_kernels(self, grid, bad, mu, row, k, unit_rank, array):
        # the column kernels on plain floats against their numpy-array forms,
        # by .hex(); a bad entry at position k is named, an overflowing row
        # (1e200, 0) raises, each with the message of the numpy column
        if bad is not None:
            grid = grid[:k] + [bad] + grid[k:]
        (a, c), xi = row, bk_added_noise(mu)
        m = np.array(grid, dtype=float)
        with np.errstate(all="ignore"):
            if unit_rank:
                infidelity, f2 = b1_witness_infidelity_np(m, xi, a, c)
                want = np.minimum(2.0 * infidelity / (1.0 + np.sqrt(f2)) * _B1_ROUND_DOWN, 2.0)
                overflows = not np.isfinite(infidelity - f2).all()
            else:
                want, overflows = identity_witness_np(m, xi), False
        if unit_rank:
            ch, params = GaussianChannel(I2, np.diag([0.0, 1.0])), {"mu": mu, "a": a, "c": c}
        else:
            ch, params = GaussianChannel.identity(), {"mu": mu}
        given = m if array else grid
        if bad is not None:
            with pytest.raises(DomainError, match=f">= 1, got {bad}$"):
                convergence_scan(ch, given, params)
        elif overflows:
            with pytest.raises(DomainError, match=r"its completion S overflows float64"):
                convergence_scan(ch, given, params)
        else:
            rows = convergence_scan(ch, given, params)
            assert [r.witness_lower_bound.hex() for r in rows] == [x.hex() for x in want.tolist()]
            assert [r.mu_tilde.hex() for r in rows] == [x.hex() for x in grid]


@pytest.mark.parametrize("bad", ["5", True, None])
@pytest.mark.parametrize("call", [
    lambda x: fid_output_identity(x, 5.0),
    lambda x: nonuniform_witness(5.0, x),
    lambda x: b1_witness_bound(5.0, x, 1.3, -0.4),
    lambda x: convergence_scan(GaussianChannel.identity(), [2.0, x], {"mu": 5.0}),
    lambda x: convergence_scan(GaussianChannel(I2, np.diag([0.0, 1.0])), (2.0, x),
                               {"mu": 5.0}),
], ids=["fid_output_identity", "nonuniform_witness", "b1_witness_bound", "scan-B2_Id",
        "scan-B1"])
def test_non_real_mu_tilde_rejected(call, bad):
    # numpy's cast took "5" as 5.0 and True as 1.0 (the mu_tilde = 1 witness 0.0940),
    # and float() did in fid_output_identity
    with pytest.raises(DomainError, match=r"must be a real number, got " + repr(bad)):
        call(bad)


@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400, 10 ** 5000],
                         ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("call, what", [
    (lambda x: bk_added_noise(x), "resource variance"),
    (lambda x: diamond_upper_bound(
        canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5)), 2.0, r=x),
     "squeezing parameter"),
    (lambda x: convergence_scan(GaussianChannel.identity(), [2.0], {"mu": x}),
     "witness param 'mu'"),
    (lambda x: convergence_scan(GaussianChannel.identity(), [2.0, x], {"mu": 5.0}),
     "grid entry"),
    (lambda x: nonuniform_witness(5.0, x), "mu_tilde"),
    (lambda x: fid_output_identity(x, 5.0), "mu_tilde"),
], ids=["bk_added_noise", "diamond_upper_bound-r", "witness-mu", "grid", "nonuniform_witness",
        "fid_output_identity"])
def test_int_beyond_float64_range_rejected(call, what, huge):
    # float() of such an int raised a bare OverflowError; 10**5000 has no
    # repr under the default digit limit, so the message names the input only
    with pytest.raises(DomainError, match=f"^{what} must lie within float64 range"):
        call(huge)


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
        assert len(convergence_scan(GaussianChannel.identity(), [], {"mu": 2.0})) == 0
        ch = GaussianChannel(I2, np.diag([0.0, 1.0]))
        assert len(convergence_scan(ch, np.array([]), {"mu": 2.0, "a": 0.0, "c": 1.0})) == 0
        # with no row, mu and the row (a, c) are checked all the same
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            convergence_scan(ch, [], {"mu": 0.5, "a": 0.0, "c": 0.0})
        with pytest.raises(DomainError, match="resource variance"):
            convergence_scan(GaussianChannel.identity(), np.array([]), {"mu": 0.5})

    @pytest.mark.parametrize("params, match", [
        ({"typo": 1.0}, r"unknown params \['typo'\]; expected a subset of \['a', 'c', 'mu', 'r'\]"),
        ({"mu": 5.0, "MU": 5.0}, r"unknown params \['MU'\]"),
        ({"energy_bound": 1.0}, r"unknown params \['energy_bound'\]"),
        ({1: 2.0, "x": 3.0}, r"unknown params \[1, 'x'\]"),
        ([("mu", 5.0)], "params must be a mapping, got list"),
        ("mu", "params must be a mapping, got str"),
        # a value the scan does not read is checked all the same
        ({"mu": True}, "witness param 'mu' must be a real number"),
        ({"r": "x"}, "witness param 'r' must be a real number"),
        ({"a": None}, "witness param 'a' must be a real number"),
    ])
    @pytest.mark.parametrize("channel", [
        canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5)),
        GaussianChannel(I2, np.diag([0.0, 1.0])), GaussianChannel.identity()])
    def test_bad_witness_params(self, channel, params, match, classify_calls):
        with pytest.raises(DomainError, match=match):
            convergence_scan(channel, [2.0, 10.0], params)
        assert classify_calls == []  # checked before the channel is classified


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


# mu near 1: uniform in [1, 1.1], or 1 + 10^[-15, -1], where mu * mu - 1 cancels
_NEAR_ONE_MU = st.one_of(st.floats(1.0, 1.1),
                         st.floats(-15.0, -1.0).map(lambda e: 1.0 + 10.0 ** e),
                         st.sampled_from([1.0, 1.000000011]))
# mu log-uniform in [1.1, 1e150] or near 1, with the 2^27 switch of
# bk_added_noise; row entries 0 or of magnitude 1e-3 to 3
_DIRECTION_MU = st.one_of(st.floats(math.log10(1.1), 150.0).map(lambda e: 10.0 ** e),
                          _NEAR_ONE_MU, st.sampled_from([1.1, 2.0 ** 27, 1e150]))
_DIRECTION_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
_DIRECTION_ROW = st.tuples(_DIRECTION_ENTRY, _DIRECTION_ENTRY).filter(lambda ac: ac != (0.0, 0.0))


class TestBoundDirection:
    """The A2, C_Att, C_Amp and D bounds of :func:`diamond_upper_bound` are
    upper bounds: never below the 60-digit ``2 sqrt(1 - F^2)`` of their
    environmental pair and at most 1e-12 relative above it, for mu in
    [1, 1e150], nbar in [0, 5] or up to 1e100, and frames r and (a, c).
    A float64 ``1 - F^2`` gave 0.0 from mu = 1e8 at nbar = 0.5, and at
    nbar = 1e8 from mu = 1.1.  The B2 bound is held the same way against its
    exact tau -> 1 limit for mu in [1, 1e300]: its ``xi^2`` underflowed
    from mu of about 1e154, and it read 5.6e-6 low at mu = 1e160 and 0.0
    from mu = 1e200.  Near mu = 1, xi from ``mu * mu - 1`` put bounds up to
    1.4e-13 relative below 60 digits (C_Att (0.5, 0.5) at mu = 1.000000011
    read 1.87e-13 low)."""

    @given(mu=st.one_of(st.floats(math.log10(1.1), 300.0).map(lambda e: 10.0 ** e),
                        st.floats(150.0, 300.0).map(lambda e: 10.0 ** e), _NEAR_ONE_MU),
           xi_prime=st.floats(0.05, 2.0), r=_FRAME_R)
    @example(mu=1.000000011, xi_prime=0.5, r=1.0)
    @example(mu=1e160, xi_prime=0.5, r=1.0)
    @example(mu=1e200, xi_prime=0.5, r=1.0)
    @example(mu=1e300, xi_prime=0.5, r=1.0)
    @example(mu=2.0 ** 27, xi_prime=2.0, r=0.5)
    @settings(max_examples=300, deadline=None)
    def test_b2_never_below_the_reference(self, mu, xi_prime, r):
        ch = canonical_channel(form_from_fields(CanonicalClass.B2, xi=xi_prime))
        got = diamond_upper_bound(ch, mu, r=r)
        # 1 - F^2 is about xi^2: the reference cancels that many digits
        want = b2_bound_mp(classify(ch).noise_param, mu, r, dps=60 + int(2 * math.log10(mu)))
        assert type(got) is float and 0.0 < got < math.inf
        assert want <= got <= want * (1 + 1e-12)

    @given(form=env_forms(), mu=_DIRECTION_MU, r=_FRAME_R, row=_DIRECTION_ROW)
    @example(form=form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=1e8), mu=1.1, r=1.0,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5), mu=1.000000011,
             r=1.0, row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.A2, nbar=0.0), mu=1.000000011, r=1.0,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5), mu=1e8, r=1.0,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5), mu=1e10, r=1.0,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.C_Amp, tau=2.0, nbar=0.0), mu=1e9, r=0.5,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.D, tau=-5.0, nbar=1e100), mu=1e150, r=2.0,
             row=(1.0, 0.0))
    @example(form=form_from_fields(CanonicalClass.A2, nbar=1e100), mu=1e150, r=1.0,
             row=(1e-3, -3.0))
    @settings(max_examples=400, deadline=None)
    def test_never_below_the_reference(self, form, mu, r, row):
        ch = canonical_channel(form)
        form, (a, c) = classify(ch), row
        got = diamond_upper_bound(ch, mu, r=r, a=a, c=c)
        # 1 - F^2 is about (xi / omega)^2: the reference cancels that many digits
        lost = 2.0 * math.log10(mu) + 4.0 * math.log10(2.0 * form.noise_param + 1.0)
        want = env_bound_mp(form, mu, r, a, c, dps=60 + int(lost))
        assert type(got) is float and 0.0 < got < math.inf
        assert want <= got <= want * (1 + 1e-12)


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
        assume(a != 0.0 or c != 0.0)  # the row (0, 0) is no input frame
        pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
        want = gaussian_fidelity(pair.rho_e, pair.rho_e_mu)
        xi, omega = bk_added_noise(mu), 2.0 * form.noise_param + 1.0
        if form.tag is CanonicalClass.A2:
            got, weight, ks = fid_env_A2(xi, omega, a, c), xi, (a * a + c * c, 0.0)
        else:
            gamma, inv = _env_gamma([xi], form.tau)[0], 1.0 / r
            got, weight, ks = fid_env_C(gamma, omega, r), gamma, (r * r, inv * inv)
        assert got.hex() == want.hex()
        bound = _diamond_bound(form, mu, r, a, c)
        assert type(bound) is float
        # the bound reads the variances the pair adds, weight * ks, through
        # the cancellation-free column kernel at one point (TestBoundDirection
        # holds it to 60 digits)
        assert bound == 2.0 * _env_root_infidelity([weight], *ks, form.noise_param)[0]
        if (omega - 1.0) / 2.0 == form.noise_param:  # the pair's omega is exact
            # its 1 - F^2, rounded up by 2^-44 at most, is that of the
            # pair's fidelity to the roundoff of F^2
            assert abs(bound * bound / 4.0 - (1.0 - want * want)) <= 2.0 ** -43

    # gamma (A2: xi (a^2 + c^2)) from 1e-14 to 1e3, omega = 1 or 1 + [1e-6, 1e6]
    _WEIGHT = st.floats(-14.0, 3.0).map(lambda e: 10.0 ** e)
    _OMEGA = st.one_of(st.just(1.0), st.floats(-6.0, 6.0).map(lambda e: 1.0 + 10.0 ** e))

    @given(weight=_WEIGHT, omega=_OMEGA, r=st.floats(0.5, 2.0), a=st.floats(-3.0, 3.0),
           c=st.floats(-3.0, 3.0), rank_one=st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_fidelity_squared_matches_extended_precision(self, weight, omega, r, a, c,
                                                         rank_one):
        # Scutaru's form in 60 digits of the CM entries the kernel is given
        assume(a != 0.0 or c != 0.0)  # the row (0, 0) is no input frame
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
        # bound is finite with no warning (and sound, see below)
        spec = {"class": cls, "nbar": nbar} if tau is None else {"class": cls, "tau": tau,
                                                                 "nbar": nbar}
        form = classify(channel_from_dict(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                value = _diamond_bound(form, mu, 1.0, 1.0, 0.0)
        assert type(value) is float and 0.0 <= value <= 2.0

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
                got, want = _diamond_bound(form, mu, 1.0, 1.0, 0.0), env_bound_mp(form, mu)
                # rounded up by 2^-45 relative: never below, at most 2^-44 above
                assert want <= got <= want * (1 + 2.0 ** -44)
            # 1.3983167797745706 while xi formed mu * mu - 1, each 2.85e-14 above
            assert _diamond_bound(form, 1.001, 1.0, 1.0, 0.0) == 1.3983167797745704
            # the first gamma of a column that is not finite raises; in a
            # scan, after every mu is checked
            for xis, tau in (([1.0, math.inf, 2.0], 0.5), ([1.0, 2.0], math.inf),
                             ([0.5, 1e308], 0.75)):
                with pytest.raises(OverflowError, match=f"not finite at tau = {tau:g}"):
                    _env_gamma(xis, tau)
            with pytest.raises(DomainError, match="resource variance"):
                convergence_scan(canonical_channel(form), [2.0, 0.5])

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


# _MU, mu log-uniform in [1, 1e300] or near 1, and the floats next to 2^27,
# where bk_added_noise switches to 1 / mu
_SCAN_MU = st.one_of(_MU, st.floats(0.0, 300.0).map(lambda e: 10.0 ** e), _NEAR_ONE_MU,
                     st.sampled_from([math.nextafter(2.0 ** 27, 0.0),
                                      math.nextafter(2.0 ** 27, math.inf)]))
_BAD_MU = st.sampled_from([math.nextafter(1.0, 0.0), 0.5, -1.0, math.nan, math.inf, -math.inf])


@st.composite
def full_rank_forms(draw):
    """Canonical forms of every full-rank class: env_forms, and A1 and B2."""
    tag = draw(st.sampled_from([CanonicalClass.A1, CanonicalClass.B2, None]))
    if tag is CanonicalClass.A1:
        return form_from_fields(tag, nbar=draw(st.floats(0.0, 5.0)))
    if tag is CanonicalClass.B2:
        return form_from_fields(tag, xi=draw(st.floats(0.05, 2.0)))
    return draw(env_forms())


class TestScanParity:
    """A full-rank ``convergence_scan`` evaluates its xi and bound columns in
    one pass each; every row is the one-point :func:`bk_added_noise` and
    :func:`diamond_upper_bound` at its mu, bit for bit, and a bad mu at any
    position raises what the one-point call raises."""

    @given(form=full_rank_forms(), mus=st.lists(_SCAN_MU, max_size=12), r=_FRAME_R,
           row=_DIRECTION_ROW)
    @example(form=form_from_fields(CanonicalClass.C_Amp, tau=1e308, nbar=0.0),
             mus=[1.0, 1.001, 2.0 ** 27, 1e300], r=1.0, row=(1.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_rows_are_the_one_point_values(self, form, mus, r, row):
        ch = canonical_channel(form)
        (a, c), params = row, {"r": r, "a": row[0], "c": row[1]}
        rows = convergence_scan(ch, mus, params)
        assert [x.mu for x in rows] == mus
        assert [x.xi.hex() for x in rows] == [bk_added_noise(mu).hex() for mu in mus]
        assert ([x.upper_bound.hex() for x in rows]
                == [diamond_upper_bound(ch, mu, r=r, a=a, c=c).hex() for mu in mus])

    @given(form=full_rank_forms(), mus=st.lists(_SCAN_MU, max_size=8), bad=_BAD_MU,
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_mu_raises_the_one_point_error(self, form, mus, bad, data):
        # the first bad mu raises, not a later one
        k = data.draw(st.integers(0, len(mus)))
        with pytest.raises(DomainError) as want:
            bk_added_noise(bad)
        with pytest.raises(DomainError) as got:
            convergence_scan(canonical_channel(form), mus[:k] + [bad] + mus[k:] + [0.25])
        assert str(got.value) == str(want.value)


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

    @pytest.mark.parametrize("bad, match, calls", [
        # the scan's one call, made before any row
        (0.5, "resource variance", 1),
        (math.nan, "resource variance", 1),
        # an entry that is no real number fails before the channel is classified
        (None, "grid entry must be a real number, got None", 0),
        ("x", "grid entry must be a real number, got 'x'", 0),
    ])
    def test_bad_full_rank_row_after_good_ones(self, bad, match, calls, classify_calls):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
        with pytest.raises(DomainError, match=match):
            convergence_scan(ch, [1.25, 10.0, bad, 2.0])
        assert len(classify_calls) == calls

    def test_scan_rows_repr_with_plain_floats(self):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
        rows = convergence_scan(ch, [1.25, 2.0 ** 27 + 2.0])
        assert [type(row.xi) for row in rows] == [float, float]
        assert repr(rows[0]) == (f"ScanRow(mu=1.25, mu_tilde=None, xi={rows[0].xi!r}, "
                                 f"upper_bound={rows[0].upper_bound!r}, "
                                 "witness_lower_bound=None)")
        assert "np.float64" not in repr(rows)


_ATT = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
_UNIT_RANK = GaussianChannel(I2, np.diag([0.0, 1.0]))
_TABLE_SCANS = [
    (_ATT, np.geomspace(1.1, 1e10, 7), {"r": 1.2}),
    (_ATT, [1.25], None),
    (_UNIT_RANK, np.geomspace(1.0, 1e9, 5), {"mu": 5.0, "a": 1.3, "c": -0.4}),
    (GaussianChannel.identity(), (1.0, 30.0, 1e6), {"mu": 2.5}),
]


def _one_point_rows(channel, grid, params):
    """The rows of a scan as ``ScanRow``s built from the one-point functions,
    to which each row is bit-identical (``TestScanParity``)."""
    params = params or {}
    if classify(channel).tag.rank_n == 2:
        return [ScanRow(mu, None, bk_added_noise(mu),
                        diamond_upper_bound(channel, mu, r=params.get("r", 1.0)), None)
                for mu in map(float, grid)]
    mu = params["mu"]
    if "a" in params:
        witness = [b1_witness_bound(mu, m, params["a"], params["c"]) for m in map(float, grid)]
    else:
        witness = [nonuniform_witness(mu, m) for m in map(float, grid)]
    return [ScanRow(mu, m, bk_added_noise(mu), None, w) for m, w in zip(map(float, grid), witness)]


def _hex(row):
    return tuple(None if x is None else x.hex() for x in dataclasses.astuple(row))


class TestScanTable:
    """``convergence_scan`` returns a frozen :class:`ScanTable` of tuple
    columns, a sequence whose rows are built on access."""

    @pytest.mark.parametrize("channel, grid, params", _TABLE_SCANS)
    def test_columns_are_tuples_of_floats_or_none(self, channel, grid, params):
        table = convergence_scan(channel, grid, params)
        assert type(table) is ScanTable
        columns = [getattr(table, f.name) for f in dataclasses.fields(ScanTable)]
        assert [f.name for f in dataclasses.fields(ScanTable)] == [
            f.name for f in dataclasses.fields(ScanRow)]
        for column in columns:
            assert type(column) is tuple and len(column) == len(grid) == len(table)
            kinds = {type(x) for x in column}
            assert kinds in ({float}, {type(None)})
        full_rank = classify(channel).tag.rank_n == 2
        assert (table.upper_bound[0] is None) is not full_rank
        assert (table.mu_tilde[0] is None) is full_rank
        assert (table.witness_lower_bound[0] is None) is full_rank

    @pytest.mark.parametrize("channel, grid, params", _TABLE_SCANS)
    def test_rows_on_access_equal_the_one_point_rows(self, channel, grid, params):
        table = convergence_scan(channel, grid, params)
        want = [_hex(row) for row in _one_point_rows(channel, grid, params)]
        rows = list(table)
        assert all(type(row) is ScanRow for row in rows)
        assert [_hex(row) for row in rows] == want
        assert [_hex(row) for row in table] == want
        for k in range(len(table)):
            assert type(table[k]) is ScanRow and type(table[k - len(table)]) is ScanRow
            assert _hex(table[k]) == _hex(table[k - len(table)]) == want[k]
            assert list(vars(table[k]).items()) == list(vars(rows[k]).items())
        for part in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2),
                     slice(5, 9)):
            got = table[part]
            assert type(got) is list and all(type(row) is ScanRow for row in got)
            assert [_hex(row) for row in got] == want[part]
        assert table[-1] == rows[-1] and table[-1] in table
        with pytest.raises(IndexError):
            table[len(table)]
        with pytest.raises(IndexError):
            table[-len(table) - 1]

    def test_frozen(self):
        table = convergence_scan(*_TABLE_SCANS[0])
        for f in dataclasses.fields(ScanTable):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, f.name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del table.mu
        # the caller's grid list is copied, not shared
        grid = [1.25, 10.0]
        table = convergence_scan(_ATT, grid)
        grid[0] = 3.0
        assert table.mu == (1.25, 10.0)

    @pytest.mark.parametrize("channel, grid, params", _TABLE_SCANS)
    def test_equal_scans_give_equal_tables(self, channel, grid, params):
        one, two = convergence_scan(channel, grid, params), convergence_scan(channel, grid, params)
        assert one is not two and one == two and hash(one) == hash(two)
        assert one != convergence_scan(channel, list(grid)[:-1], params)
        assert one != list(one)

    def test_empty_grid(self):
        for table in (convergence_scan(_ATT, []), convergence_scan(_UNIT_RANK, np.array([]),
                                                                     {"mu": 2.0})):
            assert len(table) == 0 and list(table) == [] and table[:] == []
            assert dataclasses.astuple(table) == ((),) * 5
