import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import (fidelity_mp, loglog_slope, random_state, random_symplectic,
                      symplectic_invariants_mp)
from bosonic_telesim import (CanonicalClass, DomainError, GaussianState,
                             InvalidDimensionError, SingularCoefficientError,
                             UnresolvableError, ValidationError, apply_affine, apply_channel, b1_gamma,
                             bk_added_noise, bk_channel, environmental_pair,
                             fid_b2_asymptotic, fid_env_A2, fid_env_C,
                             fid_output_identity, form_from_fields, fuchs_vdg,
                             gaussian_fidelity, partial_trace, tensor_states,
                             thermal_state, tmsv_state)
from bosonic_telesim.teleportation import _env_gamma

I2 = np.eye(2)
EPS = np.finfo(float).eps


def fock_vacuum_thermal_fidelity(nbar, cutoff=200):
    """Independent oracle: F(|0>, thermal) = sqrt(<0|rho|0>) from the Fock
    distribution p_n = nbar^n / (nbar + 1)^(n+1), explicitly normalized on a
    truncated ladder."""
    n = np.arange(cutoff)
    p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    p = p / p.sum()
    return float(np.sqrt(p[0]))


# (nbar1, nbar2, z, theta) pairs of the two-mode Fock-oracle test
FOCK_POINTS = [
    ((0.3, 0.2, 0.25, 0.6), (0.1, 0.4, 0.15, 1.1)),
    ((0.2, 0.0, 0.3, 0.4), (0.35, 0.15, 0.1, 0.9)),
    ((0.0, 0.0, 0.2, 0.3), (0.25, 0.1, 0.25, 0.5)),
]


def fock_point_cm(nbar1, nbar2, z, theta):
    """CM of thermal inputs through a two-mode squeezer z and a beam splitter
    theta, the phase-space twin of the Fock-basis state of the oracle test."""
    z2 = np.diag([1.0, -1.0])
    v0 = np.zeros((4, 4))
    v0[:2, :2] = (2 * nbar1 + 1) * I2
    v0[2:, 2:] = (2 * nbar2 + 1) * I2
    s_tms = np.block([[np.cosh(z) * I2, np.sinh(z) * z2],
                      [np.sinh(z) * z2, np.cosh(z) * I2]])
    s_bs = np.block([[np.cos(theta) * I2, np.sin(theta) * I2],
                     [-np.sin(theta) * I2, np.cos(theta) * I2]])
    s = s_bs @ s_tms
    return s @ v0 @ s.T


def _unchecked_state(cm):
    """A GaussianState holding ``cm`` without its construction checks."""
    state = object.__new__(GaussianState)
    object.__setattr__(state, "_mean", (0.0,) * len(cm))
    object.__setattr__(state, "_cm", tuple(np.asarray(cm, dtype=float).ravel().tolist()))
    return state


class TestGaussianFidelity:
    def test_purity_short_circuit(self, monkeypatch):
        # ``s1.is_pure() or s2.is_pure()``: s1 is decided first, and once s1 is
        # pure s2's spectrum is not read.  An unchecked CM that is not positive
        # semidefinite is read too: the kernel clamps its det V = -1e-3 at 0,
        # so nu = (sqrt(0.999), 0), pure (the spectral pass raised here)
        from bosonic_telesim import symplectic

        pure, not_psd = tmsv_state(2.0), _unchecked_state(np.diag([-1e-3, 1.0, 1.0, 1.0]))
        calls, real = [], symplectic._nus
        monkeypatch.setattr(symplectic, "_nus", lambda x: calls.append(x) or real(x))
        assert not_psd.is_pure()
        overlap = np.linalg.det((pure.cm + not_psd.cm) / 2.0) ** -0.25
        for pair in ((pure, not_psd), (not_psd, pure)):
            calls.clear()
            assert gaussian_fidelity(*pair) == pytest.approx(overlap, rel=1e-12)
            assert calls == [pair[0]._cm]

    def test_identical_states(self, rng):
        # exactly 1: the formulas gave 1 - 2.7e-15 for TMSV(5) (overlap route)
        # and 1 - 1.2e-4 for TMSV(3e6) (general route); a TMSV at mu >= 1e8
        # (det((V1 + V2) / 2) = 0 in float64) and CMs beyond float64 range raised
        for state in (GaussianState.vacuum(), thermal_state(2.5),
                      tmsv_state(3.0), tmsv_state(5.0), tmsv_state(3e6), tmsv_state(1e12),
                      random_state(2, rng, displace=1.0),
                      GaussianState(np.zeros(4), 1e200 * np.eye(4)),
                      GaussianState(np.zeros(4), 1.7e308 * np.eye(4))):
            assert gaussian_fidelity(state, state) == 1.0

    def test_vacuum_vs_thermal_fock_oracle(self):
        oracle = fock_vacuum_thermal_fidelity(1.0)
        assert oracle == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        f = gaussian_fidelity(GaussianState.vacuum(), thermal_state(3.0))
        assert f == pytest.approx(oracle, abs=1e-12)

    def test_two_thermal_states(self):
        w1, w2 = 3.0, 5.0
        expected = 2.0 / (np.sqrt((w1 + 1) * (w2 + 1)) - np.sqrt((w1 - 1) * (w2 - 1)))
        f = gaussian_fidelity(thermal_state(w1), thermal_state(w2))
        assert f == pytest.approx(expected, rel=1e-12)

    def test_pure_overlap_squeezed_vacuum(self):
        r = 2.0
        sq = GaussianState(np.zeros(2), np.diag([r * r, 1.0 / (r * r)]))
        expected = np.sqrt(2.0 / (r + 1.0 / r))  # 1/sqrt(cosh s) with r = e^s
        assert gaussian_fidelity(GaussianState.vacuum(), sq) == pytest.approx(
            expected, rel=1e-12)

    def test_displaced_vacuum(self):
        shifted = GaussianState([1.0, 0.0], I2)
        assert gaussian_fidelity(GaussianState.vacuum(), shifted) == pytest.approx(
            np.exp(-1.0 / 8.0), rel=1e-12)

    @pytest.mark.parametrize("mean", [[9.5e15, 0.0, 1.7e308, 8.0], [1e200, -1e200]])
    def test_far_apart_means_give_zero(self, rng, mean):
        # delta^T (V1 + V2)^-1 delta overflows float64 (it gave NaN in about
        # half of these pairs); the Gaussian factor underflows to 0 instead
        modes = len(mean) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                far = GaussianState(mean, random_state(modes, rng).cm)
                near = random_state(modes, rng)
                assert gaussian_fidelity(far, near) == 0.0
                assert gaussian_fidelity(near, far) == 0.0

    @pytest.mark.parametrize("scale1, scale2", [
        (1e100, 3e100),  # det((V1 + V2) / 2) = 4e400 (was NaN; true F = 0.866)
        (1.0, 1e200),  # 6.25e798 (was a silent 0.0; true F = 2e-200)
        (1e200, 2e200),  # 5e800 (1e200 twice was LinAlgError: infs or NaNs)
        (1.7e308, 1.6e308),  # V1 + V2 itself overflows
    ])
    def test_two_modes_beyond_float64_range_raise_overflow_error(self, scale1, scale2):
        s1 = GaussianState(np.zeros(4), scale1 * np.eye(4))
        s2 = GaussianState(np.zeros(4), scale2 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((s1, s2), (s2, s1)):
                with pytest.raises(OverflowError, match="beyond float64 range"):
                    gaussian_fidelity(*pair)
                with np.errstate(all="raise"):
                    with pytest.raises(OverflowError):
                        gaussian_fidelity(*pair)

    def test_two_mode_auxiliary_matrix_beyond_float64_range(self):
        # det((V1 + V2) / 2) = 2.5e301 is finite, but V2 Omega V1 overflows
        # (it warned "overflow encountered in matmul" and returned NaN)
        s, c = 1e-5, math.sqrt(1.0 - 1e-10)
        rot = np.array([[c, -s], [s, c]])
        sq = rot @ np.diag([1e160, 1e140]) @ rot.T
        sq = 0.5 * (sq + sq.T)
        z = np.zeros((2, 2))
        s1 = GaussianState(np.zeros(4), np.block([[2.0 * sq, z], [z, 2.0 * I2]]))
        s2 = GaussianState(np.zeros(4), np.block([[3.0 * sq, z], [z, 2.0 * I2]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="auxiliary matrix"):
                gaussian_fidelity(s1, s2)

    def test_two_mode_indefinite_sum_raises_on_the_general_route(self):
        # both states mixed, each accepted within the physicality slack of its
        # scale, and V1 + V2 indefinite: the general route warned "invalid value
        # encountered in scalar power" and returned NaN
        bad = GaussianState(np.zeros(2), [[0.0, 1e20], [1e20, 1e30]])
        s1 = tensor_states(bad, thermal_state(1e30))
        s2 = tensor_states(GaussianState.vacuum(), thermal_state(2.0))
        assert not (s1.is_pure() or s2.is_pure())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((s1, s2), (s2, s1)):
                with pytest.raises(UnresolvableError,
                                   match=r"^det\(\(V1 \+ V2\) / 2\) = -6.25e\+98 is not positive$"):
                    gaussian_fidelity(*pair)

    def test_two_mode_singular_solve_raises_unresolvable_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        s1, s2 = (GaussianState(np.zeros(4), np.diag(d)) for d in ([3.0] * 4, [2.0] * 4))
        with pytest.raises(UnresolvableError, match="singular in float64: Singular matrix"):
            gaussian_fidelity(s1, s2)

    @pytest.mark.parametrize("mean", [[math.inf, 0.0], [math.nan, 0.0],
                                      [0.0, 1.0, -math.inf, 0.0]])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValidationError, match="mean is not finite"):
            GaussianState(mean, np.eye(len(mean)))
        # the CM's own error keeps coming first
        with pytest.raises(ValidationError, match="unphysical"):
            GaussianState(mean, 0.5 * np.eye(len(mean)))

    def test_opposite_means_near_float64_range(self):
        # m2 - m1 overflows float64 (a numpy subtraction warns and ends in NaN)
        far, other = GaussianState([1e308, 0.0], I2), GaussianState([-1e308, 0.0], I2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                assert gaussian_fidelity(far, other) == 0.0
                assert gaussian_fidelity(other, far) == 0.0
                assert gaussian_fidelity(far, far) == 1.0

    def test_mean_factor_rounds_the_exact_form_once(self, rng):
        # exp(-Q / 4) of the correctly rounded Q = delta^T (V1 + V2)^-1 delta of
        # the floats, for one and two modes, bit for bit; Q here is solved
        # exactly in rationals by Gauss-Jordan elimination
        from bosonic_telesim.fidelity import _mean_factor

        def exact_form(s1, s2):
            n = len(s1._mean)
            delta = [Fraction(y) - Fraction(x) for x, y in zip(s1._mean, s2._mean)]
            a = [[Fraction(s1._cm[i * n + j]) + Fraction(s2._cm[i * n + j]) for j in range(n)]
                 + [delta[i]] for i in range(n)]
            for k in range(n):
                a[k] = [x / a[k][k] for x in a[k]]  # V1 + V2 is positive definite
                for i in range(n):
                    if i != k:
                        a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
            return sum(d * row[n] for d, row in zip(delta, a))

        for k in range(400):
            n = 1 + k % 2
            s1 = random_state(n, rng, displace=10.0 ** rng.uniform(-3, 3))
            s2 = random_state(n, rng, displace=10.0 ** rng.uniform(-3, 3))
            want = math.exp(-0.25 * float(exact_form(s1, s2)))
            assert _mean_factor(s1._mean, s2._mean, s1._cm, s2._cm) == want

    def test_mean_factor_pivots_and_rejects_a_singular_sum(self):
        # outside the fidelity's domain: V1 + V2 = [[0, 1], [1, 0]] (+ I) needs a
        # row swap, and a singular V1 + V2 raises
        from bosonic_telesim.fidelity import _mean_factor

        swap = (0.0, 0.5, 0.5, 0.0)
        assert _mean_factor((0.0, 0.0), (1.0, 1.0), swap, swap) == math.exp(-0.5)
        swap2 = (0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5)
        assert _mean_factor((0.0,) * 4, (1.0, 1.0, 1.0, 0.0), swap2, swap2) == math.exp(-0.75)
        for n in (2, 4):
            singular = tuple(float(i == j == 0) for i in range(n) for j in range(n))
            with pytest.raises(UnresolvableError, match=r"= 0 is not positive"):
                _mean_factor((0.0,) * n, (1.0,) * n, singular, singular)

    def test_two_mode_mean_factor_within_1e_13_of_60_digits(self):
        # numpy's solve of (V1 + V2) was up to 4.4e-12 off on these pairs
        import mpmath as mp

        from bosonic_telesim.fidelity import _mean_factor

        rng, worst = np.random.default_rng(11), 0.0
        for _ in range(300):
            s1, s2 = (random_state(2, rng, 3.0, 50.0, displace=1.0) for _ in range(2))
            with mp.workdps(60):
                vsum = mp.matrix(s1.cm.tolist()) + mp.matrix(s2.cm.tolist())
                delta = mp.matrix([mp.mpf(y) - x for x, y in zip(s1._mean, s2._mean)])
                want = mp.exp(-(delta.T * mp.lu_solve(vsum, delta))[0] / 4)
            got = _mean_factor(s1._mean, s2._mean, s1._cm, s2._cm)
            worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-13

    @pytest.mark.parametrize("p1,p2", FOCK_POINTS)
    def test_fock_points_match_the_checked_cm_route(self, p1, p2, monkeypatch):
        # the purity pass takes the states' CMs as constructed; handing it the
        # CMs as raw arrays, checked again, must give the same bits
        from bosonic_telesim import symplectic

        states = [GaussianState(np.zeros(4), fock_point_cm(*p)) for p in (p1, p2)]
        states += [GaussianState.vacuum(), thermal_state(3.0)]
        pairs = [(states[0], states[1]), (states[1], states[0]), (states[2], states[3])]
        got = [gaussian_fidelity(*pair).hex() for pair in pairs]
        pure = [s.is_pure() for s in states]

        real = symplectic._nus
        monkeypatch.setattr(symplectic, "_nus", lambda x: real(
            symplectic._checked(list(x), math.isqrt(len(x)), None, 0.0)))
        assert got == [gaussian_fidelity(*pair).hex() for pair in pairs]
        assert pure == [s.is_pure() for s in states]
        assert pure[2:] == [True, False]

    def test_symmetry(self, rng):
        for _ in range(25):
            s1 = random_state(2, rng, displace=1.0)
            s2 = random_state(2, rng, displace=1.0)
            assert gaussian_fidelity(s1, s2) == pytest.approx(
                gaussian_fidelity(s2, s1), rel=1e-10)

    def test_range_and_discrimination(self, rng):
        for _ in range(50):
            s1 = random_state(1, rng, displace=1.0)
            s2 = random_state(1, rng, displace=1.0)
            f = gaussian_fidelity(s1, s2)
            assert 0.0 <= f <= 1.0
            assert f < 1.0 - 1e-6  # random pairs essentially never coincide

    def test_mode_count_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            gaussian_fidelity(GaussianState.vacuum(1), GaussianState.vacuum(2))

    def test_multiplicative_over_tensor_products(self, rng):
        for _ in range(25):
            a1, b1 = random_state(1, rng, displace=1.0), random_state(1, rng, displace=1.0)
            a2, b2 = random_state(1, rng, displace=1.0), random_state(1, rng, displace=1.0)
            joint = gaussian_fidelity(tensor_states(a1, a2), tensor_states(b1, b2))
            split = gaussian_fidelity(a1, b1) * gaussian_fidelity(a2, b2)
            assert joint == pytest.approx(split, rel=1e-9)

    def test_invariant_under_joint_unitaries(self, rng):
        for _ in range(25):
            s1 = random_state(2, rng, displace=1.0)
            s2 = random_state(2, rng, displace=1.0)
            f0 = gaussian_fidelity(s1, s2)
            s = random_symplectic(2, rng)
            d = rng.normal(size=4)
            f1 = gaussian_fidelity(apply_affine(s1, s, d), apply_affine(s2, s, d))
            assert f1 == pytest.approx(f0, rel=1e-9)

    def test_monotone_under_partial_trace(self, rng):
        for _ in range(25):
            s1 = random_state(2, rng, displace=1.0)
            s2 = random_state(2, rng, displace=1.0)
            f_joint = gaussian_fidelity(s1, s2)
            for keep in (0, 1):
                f_red = gaussian_fidelity(partial_trace(s1, keep), partial_trace(s2, keep))
                assert f_red >= f_joint - 1e-10

    def test_extended_precision_agrees_with_float(self, rng):
        for _ in range(10):
            v1 = random_state(2, rng).cm
            v2 = random_state(2, rng).cm
            f64 = gaussian_fidelity(GaussianState(np.zeros(4), v1),
                                    GaussianState(np.zeros(4), v2))
            fmp = float(fidelity_mp(v1, v2, dps=40))
            assert f64 == pytest.approx(fmp, rel=1e-10)

    @pytest.mark.parametrize("p1,p2", FOCK_POINTS)
    def test_two_mode_mixed_against_fock_oracle(self, p1, p2):
        """Fully independent oracle: build the states in a truncated Fock
        basis (thermal inputs through a two-mode squeezer and beam splitter)
        and evaluate Tr sqrt(sqrt(rho) sigma sqrt(rho)) by matrix algebra.
        Agreement is truncation-limited at ~1e-7 for these occupations."""
        from scipy.linalg import expm

        cut = 18
        a = np.diag(np.sqrt(np.arange(1.0, cut)), 1)
        eye = np.eye(cut)
        a1, a2 = np.kron(a, eye), np.kron(eye, a)

        def thermal_rho(nbar):
            p = (nbar / (1.0 + nbar)) ** np.arange(cut) / (1.0 + nbar)
            return np.diag(p / p.sum())

        def fock_state(nbar1, nbar2, z, theta):
            rho = np.kron(thermal_rho(nbar1), thermal_rho(nbar2))
            u = expm(theta * (a1.T @ a2 - a1 @ a2.T)) @ expm(
                z * (a1.T @ a2.T - a1 @ a2))
            return u @ rho @ u.T

        def fock_fidelity(rho, sigma):
            vals, vecs = np.linalg.eigh(rho)
            sq = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
            lam = np.clip(np.linalg.eigvalsh(sq @ sigma @ sq), 0.0, None)
            return float(np.sum(np.sqrt(lam)))

        oracle = fock_fidelity(fock_state(*p1), fock_state(*p2))
        got = gaussian_fidelity(GaussianState(np.zeros(4), fock_point_cm(*p1)),
                                GaussianState(np.zeros(4), fock_point_cm(*p2)))
        assert got == pytest.approx(oracle, abs=1e-6)


class TestOneModeClosedForm:
    """One mode is ``F^2 = 2 (sqrt(Delta + Lambda) + sqrt(Lambda)) / Delta``."""

    # the eigenvalue route before the closed form was off by 8.0e-15, 3.1e-11,
    # 2.6e-5 and 9.3e-3 here
    @pytest.mark.parametrize("squeeze,bound", [(2.0, 1e-15), (10.0, 1e-13),
                                               (100.0, 1e-10), (1000.0, 1e-8)])
    def test_matches_extended_precision_oracle(self, squeeze, bound):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(400):
            v1 = random_state(1, rng, 3.0, squeeze).cm
            v2 = random_state(1, rng, 3.0, squeeze).cm
            want = fidelity_mp(v1, v2, dps=60)
            got = gaussian_fidelity(GaussianState(np.zeros(2), v1),
                                    GaussianState(np.zeros(2), v2))
            worst = max(worst, float(abs(got - want) / want))
        assert worst <= bound

    def test_self_fidelity_and_exact_symmetry(self, rng):
        eps = np.finfo(float).eps
        for k in range(2000):
            squeeze = (2.0, 10.0, 100.0, 1000.0)[k % 4]
            s1 = random_state(1, rng, 3.0, squeeze, displace=1.0)
            s2 = random_state(1, rng, 3.0, squeeze, displace=1.0)
            assert gaussian_fidelity(s1, s1) >= 1.0 - 4.0 * eps
            assert gaussian_fidelity(s1, s2) == gaussian_fidelity(s2, s1)

    def test_thermal_pairs_and_the_overlap_limit(self):
        # Lambda = 0 for a pure state: F^2 = 2 / sqrt(Delta), the overlap
        sq = GaussianState(np.zeros(2), np.diag([4.0, 0.25]))
        assert gaussian_fidelity(sq, thermal_state(3.0)) == pytest.approx(
            (np.linalg.det((sq.cm + 3.0 * I2) / 2.0)) ** -0.25, rel=1e-15)
        for w1, w2 in ((1.0, 1.0), (3.0, 5.0), (1.0 + 1e-12, 7.0)):
            want = 2.0 / (math.sqrt((w1 + 1) * (w2 + 1)) - math.sqrt((w1 - 1) * (w2 - 1)))
            assert gaussian_fidelity(thermal_state(w1), thermal_state(w2)) == pytest.approx(
                min(want, 1.0), rel=4e-16)

    @pytest.mark.parametrize("cm1,cm2", [
        (I2, 1e200 * I2),
        (1.5 * I2, 1e300 * I2),
        (1e100 * I2, 3e100 * I2),  # Lambda = 9e400 alone leaves float64 range
        (1e200 * I2, 3e200 * I2),
        ((1.0 + 1e-6) * I2, 1e200 * I2),
        (np.array([[1e160, 3e159], [3e159, 2e160]]), np.array([[5e159, -1e159], [-1e159, 1e160]])),
    ])
    def test_products_beyond_float64_range_are_scaled(self, cm1, cm2):
        want = float(fidelity_mp(cm1, cm2, dps=60))
        s1, s2 = GaussianState(np.zeros(2), cm1), GaussianState(np.zeros(2), cm2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = gaussian_fidelity(s1, s2)
        assert got == pytest.approx(want, rel=1e-14)
        assert gaussian_fidelity(s2, s1) == got

    @pytest.mark.parametrize("cm,value", [
        ([[0.0, 5e153], [5e153, 1e166]], "-6.25e+306"),
        ([[0.0, 1e160], [1e160, 1e175]], "-inf"),  # det(V1 + V2) / 4 is -2.5e319
    ])
    def test_non_positive_det_raises_linalg_error(self, cm, value):
        # accepted within the physicality slack of their scale, but V1 + V2
        # is indefinite: no fidelity exists
        state = GaussianState(np.zeros(2), cm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((GaussianState.vacuum(), state), (state, GaussianState.vacuum())):
                with pytest.raises(UnresolvableError) as err:
                    gaussian_fidelity(*pair)
                assert str(err.value) == f"det((V1 + V2) / 2) = {value} is not positive"

    def test_sum_beyond_float64_range(self):
        # V1 + V2 overflowed: 'overflow encountered in add', then LinAlgError
        s1, s2 = GaussianState(np.zeros(2), 1e308 * I2), GaussianState(np.zeros(2), 1.5e308 * I2)
        want = fidelity_mp(s1.cm, s2.cm, dps=60)
        assert abs(float(want) - 2.0 * math.sqrt(1.5) / 2.5) <= 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                for pair in ((s1, s2), (s2, s1)):
                    assert abs(gaussian_fidelity(*pair) - want) <= 1e-15

    def test_halved_sum_is_bit_identical(self, rng):
        # the unhalved route, wherever V1 + V2 is finite: states from unit scale
        # to products far beyond float64 range
        from bosonic_telesim.fidelity import _one_mode_fidelity, _scaled_det

        def unhalved(p1, r1, q1, p2, r2, q2):
            x, e = _scaled_det(p1 + p2, r1 + r2, q1 + q2, 0.0)
            x1, e1 = _scaled_det(p1, r1, q1, 1.0)
            x2, e2 = _scaled_det(p2, r2, q2, 1.0)
            u = math.ldexp(math.sqrt(max(x1, 0.0)) * math.sqrt(max(x2, 0.0)), e1 + e2 - e)
            return math.sqrt(math.ldexp(2.0 * (math.hypot(math.sqrt(x), u) + u) / x, -e))

        for k in range(2000):
            scale = 10.0 ** rng.uniform(0.0, 300.0) if k % 2 else 1.0
            v1 = random_state(1, rng, 3.0, (2.0, 100.0)[k % 4 // 2]).cm * scale
            v2 = random_state(1, rng, 3.0, 2.0).cm * scale
            (p1, r1), (_, q1) = v1.tolist()
            (p2, r2), (_, q2) = v2.tolist()
            args = (p1, r1, q1, p2, r2, q2)
            assert _one_mode_fidelity(*args) == unhalved(*args)

    def test_no_spectral_pass(self, monkeypatch):
        from bosonic_telesim import fidelity, symplectic

        def refuse(*args, **kwargs):
            raise AssertionError("spectral pass on one mode")

        monkeypatch.setattr(symplectic, "_nus", refuse)
        monkeypatch.setattr(fidelity, "_spectral_w", refuse)
        assert gaussian_fidelity(GaussianState.vacuum(), thermal_state(3.0)) == pytest.approx(
            math.sqrt(0.5), rel=1e-15)


@st.composite
def _framed_one_mode_states(draw):
    """Two one-mode states: thermal nu in [1, 3], squeezed by a factor up to
    50 and rotated, with mean entries of 0, of order 1 or of magnitude up to
    1e308; in one pair in four the second mean is the first one moved by a
    relative 1e-6 at most, so that m2 - m1 cancels."""
    entry = st.one_of(st.just(0.0), st.floats(-10.0, 10.0),
                      st.builds(lambda sign, x: sign * 10.0 ** x,
                                st.sampled_from([1.0, -1.0]), st.floats(-3.0, 308.0)))
    states = []
    for _ in range(2):
        theta, squeeze = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(1.0, 50.0))
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        frame = rot @ np.diag([squeeze, 1.0 / squeeze])
        cm = draw(st.floats(1.0, 3.0)) * frame @ frame.T
        states.append(GaussianState([draw(entry), draw(entry)], 0.5 * (cm + cm.T)))
    if draw(st.integers(0, 3)) == 0:
        shift = 1.0 + draw(st.floats(-1e-6, 1e-6))
        states[1] = GaussianState([x * shift for x in states[0].mean.tolist()], states[1].cm)
    return states


class TestOneModeMeanFactor:
    """The one-mode Gaussian factor ``exp(-delta^T (V1 + V2)^-1 delta / 4)``
    on plain floats, from its exact quadratic form."""

    @staticmethod
    def _mp(s1, s2):
        import mpmath as mp
        with mp.workdps(60):
            d0, d1 = (mp.mpf(y) - x for x, y in zip(s1.mean.tolist(), s2.mean.tolist()))
            (p, r), (_, q) = s1.cm.tolist()
            (p2, r2), (_, q2) = s2.cm.tolist()
            p, r, q = mp.mpf(p) + p2, mp.mpf(r) + r2, mp.mpf(q) + q2
            return mp.exp(-(q * d0 * d0 - 2 * r * d0 * d1 + p * d1 * d1) / (p * q - r * r) / 4)

    @given(_framed_one_mode_states())
    # the pairs of test_opposite_means_near_float64_range: m2 - m1 overflows and
    # the factor underflows to 0; equal states have the factor 1
    @example([GaussianState([1e308, 0.0], I2), GaussianState([-1e308, 0.0], I2)])
    @example([GaussianState([-1e308, 0.0], I2), GaussianState([1e308, 0.0], I2)])
    @example([GaussianState([1e308, 0.0], I2), GaussianState([1e308, 0.0], I2)])
    @example([GaussianState([100.0, 0.0], I2), GaussianState.vacuum()])  # exp(-2500)
    @example([GaussianState([76.9, 0.0], I2), GaussianState.vacuum()])  # a subnormal factor
    @settings(max_examples=1000, deadline=None)
    def test_within_1e_12_of_60_digits(self, states):
        # 1e-12 relative, or a subnormal spacing where the factor underflows
        from bosonic_telesim.fidelity import _mean_factor

        s1, s2 = states
        got = _mean_factor(s1._mean, s2._mean, s1._cm, s2._cm)
        want = self._mp(s1, s2)
        assert abs(got - want) <= 1e-12 * want + 2.0 ** -1074
        assert _mean_factor(s2._mean, s1._mean, s2._cm, s1._cm) == got

    def test_is_the_fidelity_factor(self, rng):
        # gaussian_fidelity of one mode is the closed form times this factor
        from bosonic_telesim.fidelity import _mean_factor, _one_mode_fidelity

        for _ in range(200):
            s1, s2 = (random_state(1, rng, displace=1.0) for _ in range(2))
            (p1, r1, _, q1), (p2, r2, _, q2) = s1._cm, s2._cm
            want = _one_mode_fidelity(p1, r1, q1, p2, r2, q2) * _mean_factor(
                s1._mean, s2._mean, s1._cm, s2._cm)
            assert gaussian_fidelity(s1, s2) == min(want, 1.0)


def _near_pure_state(rng, sign):
    """Two-mode state with ``nu_1 = nu_2 = 1 + 1e-9 (1 + sign 2^-20)`` in a
    random frame: within roundoff of the purity test's threshold."""
    nu = 1.0 + 1e-9 * (1.0 + sign * 2.0 ** -20)
    s = random_symplectic(2, rng)
    cm = s @ (nu * np.eye(4)) @ s.T
    return GaussianState(np.zeros(4), 0.5 * (cm + cm.T))


def _pure_mp(state, tol=1e-9):
    """``is_pure`` of the 80-digit spectrum of the state's floats: True or
    False, or None within 4 eps of the threshold ``1 + tol``."""
    nu, threshold = symplectic_invariants_mp(state.cm)[0], 1.0 + tol
    if abs(nu - threshold) <= 4.0 * EPS * threshold:
        return None
    return bool(nu <= threshold)


class TestTwoModePurityRouting:
    """``is_pure`` decides two-mode purity on plain floats from exact
    invariants of the CM (``_floats._nus``), with no spectral pass: outside
    4 eps of the threshold the decision is that of the 80-digit spectrum of
    the same floats, and the fidelity is the float of the route that decision
    picks, bit for bit."""

    @staticmethod
    def _oracle_route(monkeypatch, s1, s2):
        with monkeypatch.context() as m:
            m.setattr(GaussianState, "is_pure", lambda state, tol=1e-9: _pure_mp(state, tol))
            return gaussian_fidelity(s1, s2)

    def _check(self, monkeypatch, pairs) -> int:
        """The number of pairs whose two decisions the oracle makes."""
        decided = 0
        for s1, s2 in pairs:
            want = [_pure_mp(s) for s in (s1, s2)]
            assert [s.is_pure() for s, w in zip((s1, s2), want) if w is not None] == \
                [w for w in want if w is not None]
            if None in want:
                continue
            decided += 1
            for pair in ((s1, s2), (s2, s1)):
                assert gaussian_fidelity(*pair).hex() == \
                    self._oracle_route(monkeypatch, *pair).hex()
        return decided

    def test_random_mixed(self, rng, monkeypatch):
        pairs = [(random_state(2, rng, 3.0, 3.0, displace=1.0),
                  random_state(2, rng, 3.0, 3.0, displace=1.0)) for _ in range(200)]
        assert self._check(monkeypatch, pairs) == len(pairs)
        assert not any(s.is_pure() for pair in pairs for s in pair)

    def test_pure(self, rng, monkeypatch):
        pures = (tmsv_state(2.0), GaussianState.vacuum(2),
                 tensor_states(GaussianState.vacuum(), GaussianState.vacuum()))
        assert all(s.is_pure() for s in pures)
        pairs = [(p, random_state(2, rng, displace=1.0)) for p in pures] + \
            [(p, q) for p in pures for q in pures]
        assert self._check(monkeypatch, pairs) == len(pairs)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_pure(self, rng, monkeypatch, sign):
        # nu within about 4 eps of the threshold before the CM is rounded: the
        # oracle decides about half of them
        states = [_near_pure_state(rng, sign) for _ in range(50)]
        pairs = [(s, random_state(2, rng)) for s in states] + list(zip(states[::2], states[1::2]))
        assert self._check(monkeypatch, pairs) >= 20

    @pytest.mark.parametrize("factor", [2.0 ** 8, 2.0 ** 21])
    def test_large_entries(self, rng, monkeypatch, factor):
        def large():
            return GaussianState(np.zeros(4), factor * random_state(2, rng, 3.0, 3.0).cm)

        pairs = [(large(), large()) for _ in range(50)]
        assert min(float(np.max(np.abs(s.cm))) for pair in pairs for s in pair) > 2.0 ** 7
        pairs += [(tmsv_state(factor), s) for s, _ in pairs]
        assert self._check(monkeypatch, pairs) == len(pairs)

    @staticmethod
    def _spectral_calls(monkeypatch):
        """Every ``eigh`` and ``eigvalsh`` call from here on, as a list."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, **k:
                                calls.append(real) or real(*a, **k))
        return calls

    def test_spectral_passes_per_route(self, monkeypatch):
        # one purity decision per two-mode state, stopping at the first pure
        # one, and no spectral pass on any route; each float is pinned, so no
        # route may move it
        from bosonic_telesim import symplectic

        mixed = GaussianState(np.zeros(4), np.diag([3.0, 3.0, 2.0, 2.0]))
        other = tensor_states(thermal_state(1.5), GaussianState(np.zeros(2), np.diag([4.0, 0.5])))
        pure = tmsv_state(2.0)
        big1, big2 = (GaussianState(np.zeros(4), 2.0 ** 21 * np.diag(d))
                      for d in ([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]))
        routes = [
            ((GaussianState.vacuum(), thermal_state(3.0)), 0, "0x1.6a09e667f3bcdp-1"),
            ((mixed, other), 2, "0x1.a6af0db60416ap-1"),  # both mixed
            ((pure, mixed), 1, "0x1.f0b6848d2af1cp-2"),  # pure first
            ((mixed, pure), 2, "0x1.f0b6848d2af1cp-2"),  # mixed, then pure
            ((big1, big2), 2, "0x1.ddc4636e95752p-1"),  # max|V| > 2^20
        ]
        spectral = self._spectral_calls(monkeypatch)
        decisions, real = [], symplectic._nus
        monkeypatch.setattr(symplectic, "_nus", lambda x: decisions.append(x) or real(x))
        for pair, count, want in routes:
            decisions.clear()
            assert gaussian_fidelity(*pair).hex() == want
            assert len(decisions) == count
        assert spectral == []

    def test_is_pure_takes_no_spectral_pass_at_any_tol(self, monkeypatch):
        mixed = GaussianState(np.zeros(4), np.diag([3.0, 3.0, 2.0, 2.0]))
        spectral = self._spectral_calls(monkeypatch)
        assert not mixed.is_pure() and not mixed.is_pure(1e-12)
        assert mixed.is_pure(2.5)  # nu_max = 3
        assert not mixed.is_pure(1.5)
        assert spectral == []


class TestFuchsVdg:
    def test_endpoints(self):
        top = fuchs_vdg(1.0)
        assert (top.lower, top.upper) == (0.0, 0.0)
        bottom = fuchs_vdg(0.0)
        assert (bottom.lower, bottom.upper) == (2.0, 2.0)

    def test_interior_point(self):
        pair = fuchs_vdg(0.6)
        assert pair.lower == pytest.approx(0.8)
        assert pair.upper == pytest.approx(1.6)

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                fuchs_vdg(bad)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_ordering(self, f):
        pair = fuchs_vdg(f)
        assert 0.0 <= pair.lower <= pair.upper <= 2.0
        assert pair.lower == pytest.approx(2.0 * (1.0 - f), abs=1e-12)


class TestOutputIdentityFidelity:
    def test_matches_general_fidelity(self, rng):
        for _ in range(30):
            mu = rng.uniform(1.0, 50.0)
            mu_tilde = rng.uniform(1.0, 10.0)
            ideal = tmsv_state(mu_tilde)
            out = apply_channel(bk_channel(mu), ideal, target_mode=1)
            assert gaussian_fidelity(out, ideal) == pytest.approx(
                fid_output_identity(mu_tilde, mu), abs=1e-9)

    def test_product_vacuum_input_reduces_to_single_mode(self):
        mu = 3.0
        xi = bk_added_noise(mu)
        single = gaussian_fidelity(GaussianState.vacuum(),
                                   thermal_state(1.0 + xi))
        assert fid_output_identity(1.0, mu) == pytest.approx(single, rel=1e-12)

    def test_diverging_input_slope(self):
        mus = np.geomspace(1e2, 1e6, 9)
        fs = [fid_output_identity(m, 5.0) for m in mus]
        assert loglog_slope(mus, fs) == pytest.approx(-0.5, abs=0.05)

    def test_diverging_resource_slope(self):
        mus = np.geomspace(1e2, 1e6, 9)
        gaps = [1.0 - fid_output_identity(5.0, m) for m in mus]
        assert loglog_slope(mus, gaps) == pytest.approx(-1.0, abs=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            fid_output_identity(0.5, 2.0)

    @pytest.mark.parametrize("mu_tilde", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_energy_rejected(self, mu_tilde):
        with pytest.raises(DomainError):
            fid_output_identity(mu_tilde, 2.0)


def _env_fidelities(form, mu, r=1.0, a=1.0, c=0.0):
    """The closed form of ``form``'s class and ``gaussian_fidelity`` of its
    environmental pair at resource mu and frame r (C, D) or (a, c) (A2)."""
    pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
    xi, omega = bk_added_noise(mu), 2.0 * form.noise_param + 1.0
    closed = (fid_env_A2(xi, omega, a, c) if form.tag is CanonicalClass.A2
              else fid_env_C(_env_gamma([xi], form.tau)[0], omega, r))
    return closed, gaussian_fidelity(pair.rho_e, pair.rho_e_mu)


class TestEnvClosedForms:
    def test_attenuator_collapses_at_zero(self):
        for omega, r in [(1.0, 1.0), (3.0, 0.7), (7.0, 2.0)]:
            assert fid_env_C(0.0, omega, r) == pytest.approx(1.0, abs=1e-12)

    def test_attenuator_infidelity_vanishes_quadratically(self):
        # the Bures metric is second order in any smooth state perturbation,
        # so 1 - F ~ gamma^2 (sharper than the loose O(gamma) statement)
        gammas = np.geomspace(1e-6, 1e-3, 8)
        gaps = [1.0 - fid_env_C(g, 2.0, 1.3) for g in gammas]
        assert loglog_slope(gammas, gaps) == pytest.approx(2.0, abs=0.05)

    def test_attenuator_against_general(self, rng):
        for _ in range(60):
            form = form_from_fields(CanonicalClass.C_Att, tau=rng.uniform(0.05, 0.95),
                                    nbar=rng.uniform(0.0, 2.5))
            closed, general = _env_fidelities(form, rng.uniform(1.0, 10.0),
                                              rng.uniform(0.5, 2.0))
            assert closed == general

    def test_attenuator_domains(self):
        with pytest.raises(DomainError):
            fid_env_C(-0.1, 2.0, 1.0)
        with pytest.raises(DomainError):
            fid_env_C(0.5, 0.9, 1.0)
        with pytest.raises(DomainError):
            fid_env_C(0.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            fid_env_A2(-0.5, 2.0, 1.0, 0.0)
        for args in ((math.nan, 2.0, 1.0), (0.5, math.nan, 1.0), (0.5, 2.0, math.nan)):
            with pytest.raises(DomainError, match="nan"):
                fid_env_C(*args)
        for args in ((math.nan, 2.0), (0.5, math.nan)):
            with pytest.raises(DomainError, match="nan"):
                fid_env_A2(*args, 1.0, 0.0)

    def test_entries_beyond_float64_range_raise_overflow_error(self):
        # r^2, 1/r^2 or xi (a^2 + c^2) beyond float64 range, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((0.5, 2.0, 1e155), (0.5, 2.0, 1e-160), (0.0, 2.0, 1e200)):
                with pytest.raises(OverflowError, match="float64 range"):
                    fid_env_C(*args)
            with pytest.raises(OverflowError, match="float64 range"):
                fid_env_A2(1.0, 2.0, 1e200, 0.0)
        # a large thermal variance is in range: the kernel scales its products
        assert 0.0 < fid_env_C(1e300, 1e300, 1.0) < 1.0

    def test_unit_noise_point(self):
        # gamma = omega = r = 1: thermal vacuum against 2I
        assert fid_env_C(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    # the amplifier-conjugate class D enters fid_env_C with gamma = -kappa,
    # kappa = xi tau / (1 - tau) <= 0
    def test_conjugate_class_against_general(self, rng):
        for _ in range(60):
            form = form_from_fields(CanonicalClass.D, tau=-rng.uniform(0.05, 4.0),
                                    nbar=rng.uniform(0.0, 2.5))
            closed, general = _env_fidelities(form, rng.uniform(1.0, 10.0),
                                              rng.uniform(0.5, 2.0))
            assert closed == general

    def test_conjugate_at_zero(self):
        assert fid_env_C(0.0, 4.0, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_spot_value(self):
        # tau = -1 at mu = 1.25 (xi = 1): gamma = 0.5, so V2 = 3 I + 0.5 diag(4, 1/4)
        form = form_from_fields(CanonicalClass.D, tau=-1.0, nbar=1.0)
        closed, general = _env_fidelities(form, 1.25, 2.0)
        assert closed == general == fid_env_C(0.5, 3.0, 2.0)
        assert general == gaussian_fidelity(
            thermal_state(3.0), GaussianState(np.zeros(2), np.diag([5.0, 3.125])))

    def test_rank_one_transmission_against_general(self, rng):
        for _ in range(60):
            form = form_from_fields(CanonicalClass.A2, nbar=rng.uniform(0.0, 2.5))
            closed, general = _env_fidelities(form, rng.uniform(1.0, 10.0),
                                              a=rng.normal(), c=rng.normal())
            assert closed == general

    def test_rank_one_transmission_at_zero(self):
        assert fid_env_A2(0.0, 5.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_depends_on_row_norm_only_at_unit_omega(self):
        f1 = fid_env_A2(0.7, 1.0, 1.0, 2.0)
        f2 = fid_env_A2(0.7, 1.0, np.sqrt(5.0), 0.0)
        assert f1 == pytest.approx(f2, rel=1e-12)


class TestB1Gamma:
    def test_row_one_only_values(self):
        # 2 (s + xi) / (xi (s + xi/2)^2) at s = 1, xi = 1 and s = 2, xi = 1
        assert b1_gamma(1.0, 0.0, 1.0) == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert b1_gamma(1.0, 1.0, 1.0) == pytest.approx(0.96, rel=1e-12)

    def test_matches_witness_expansion(self):
        from bosonic_telesim import b1_witness_bound
        xi = 1.0  # mu = 1.25
        mu_tilde = 1e6
        f = 1.0 - b1_witness_bound(1.25, mu_tilde, 1.0, 0.0) / 2.0
        assert f ** 4 * mu_tilde == pytest.approx(b1_gamma(1.0, 0.0, xi), rel=1e-2)

    def test_singular_at_zero_noise(self):
        with pytest.raises(SingularCoefficientError):
            b1_gamma(1.0, 0.0, 0.0)
        with pytest.raises(SingularCoefficientError):  # xi = 0 is checked before the row
            b1_gamma(math.nan, 0.0, 0.0)

    def test_rejects_zero_row(self):
        with pytest.raises(DomainError):
            b1_gamma(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("a, c, xi", [(1.0, 0.0, math.nan), (math.nan, 0.0, 0.5),
                                          (1.0, math.inf, 0.5), (1.0, 0.0, math.inf)])
    def test_rejects_non_finite_arguments(self, a, c, xi):
        # a non-finite argument is a DomainError, never a nan coefficient
        with pytest.raises(DomainError):
            b1_gamma(a, c, xi)

    @staticmethod
    def _check_against_40_digits(a, c, xi):
        # within 2 ulp of 40 digits, or of the smallest subnormal below float64's
        # normal range; a gamma beyond float64 range raises OverflowError
        import mpmath as mp
        with mp.workdps(40):
            s = mp.mpf(a) ** 2 + mp.mpf(c) ** 2
            ref = 2 * (s + xi) / (xi * (s + mp.mpf(xi) / 2) ** 2)
            if ref > (1 - 2.0 ** -50) * sys.float_info.max:
                try:
                    value = b1_gamma(a, c, xi)
                except OverflowError:
                    return
                assert ref < sys.float_info.max, (a, c, xi, value)
            else:
                value = b1_gamma(a, c, xi)
            assert abs(value - ref) <= max(2.0 ** -51 * ref, 2.0 ** -1074), (a, c, xi, value)

    # a^2 + c^2 beyond float64 range (4e-200 raised OverflowError in pow, 4e-310 was nan),
    # 1e200 whose gamma 4e-400 rounds to 0, a subnormal xi or row, and rows in range
    @pytest.mark.parametrize("a, c, xi", [
        (1e100, 0.0, 0.5), (1e155, 0.0, 0.5), (1e200, 0.0, 0.5), (1e200, -1e200, 1e300),
        (1e-170, 1e-170, 1.0), (1e-320, 0.0, 1e-300), (3.0, 1e-200, 1e-300), (1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0), (1.3, -0.4, 0.2)])
    def test_in_range_at_any_scale(self, a, c, xi):
        self._check_against_40_digits(a, c, xi)

    @pytest.mark.parametrize("a, c, xi", [(1.0, 0.0, 1e-310), (1e-170, 0.0, 1e-170)])
    def test_beyond_float64_range_overflows(self, a, c, xi):
        # gamma = 2e310 (was inf) and 8e340 (was ZeroDivisionError)
        with pytest.raises(OverflowError):
            b1_gamma(a, c, xi)

    # (a, c, xi) = (1, 1e-9, 2.154434690031884) and
    # (1e-9, 0.03162277660168379, 0.9999999999999994) were 2.8 and 4.15 ulp
    # off, beyond 2^-51 relative, when gamma took about six float roundings
    @given(st.floats(-320.0, 308.0), st.floats(-320.0, 308.0), st.booleans(),
           st.floats(-320.0, 308.0))
    @example(0.0, -9.0, False, 1.0 / 3.0)
    @example(-9.0, -1.5, False, -2.4108186663832183e-16)
    @settings(max_examples=300, deadline=None)
    def test_matches_40_digits(self, log_a, log_c, negative, log_xi):
        a, c, xi = 10.0 ** log_a, 10.0 ** log_c, 10.0 ** log_xi
        assume(xi > 0.0 and (a, c) != (0.0, 0.0))
        self._check_against_40_digits(-a if negative else a, c, xi)


class TestB2Asymptotic:
    def test_limit_to_one(self):
        # infidelity is quadratic in xi (Bures metric), the resulting
        # trace-norm bound 2 sqrt(1 - F^2) is linear
        xis = np.geomspace(1e-6, 1e-3, 8)
        gaps = [1.0 - fid_b2_asymptotic(x, 1.0, 1.0) for x in xis]
        assert loglog_slope(xis, gaps) == pytest.approx(2.0, abs=0.05)
        bounds = [2.0 * np.sqrt(1.0 - fid_b2_asymptotic(x, 1.0, 1.0) ** 2) for x in xis]
        assert loglog_slope(xis, bounds) == pytest.approx(1.0, abs=0.05)
        assert fid_b2_asymptotic(1e-9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_exact_at_unit_parameters(self):
        # r = 1, xi' = 1 collapses to 2 sqrt(1 + xi) / (2 + xi)
        for xi in (1e-4, 0.1, 1.0):
            expected = 2.0 * np.sqrt(1.0 + xi) / (2.0 + xi)
            assert fid_b2_asymptotic(xi, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_consistent_with_transparency_limit(self, rng):
        # finite-tau side: the beam-splitter dilation at tau = 1 - e has the
        # environments V1 = omega I, V2 = omega I + gamma diag(r^2, r^-2) with
        # omega = xi'/e and gamma = xi (1 - e)/e.  Their fidelity comes from
        # the single-mode formula F^2 = 2 / (sqrt(D + L) - sqrt(L)),
        # D = det(V1 + V2), L = (det V1 - 1)(det V2 - 1), in 40 digits: at
        # omega ~ 1e6 float64 would lose ~4 digits to cancellation
        import mpmath as mp
        for _ in range(20):
            xi = rng.uniform(0.01, 1.5)
            xi_prime = rng.uniform(0.05, 2.0)
            r = rng.uniform(0.6, 1.8)
            with mp.workdps(40):
                e = mp.mpf(1) / 10 ** 6
                omega = mp.mpf(xi_prime) / e
                gamma = mp.mpf(xi) * (1 - e) / e
                v2 = (omega + gamma * mp.mpf(r) ** 2, omega + gamma / mp.mpf(r) ** 2)
                d = (omega + v2[0]) * (omega + v2[1])
                lam = (omega ** 2 - 1) * (v2[0] * v2[1] - 1)
                f_tau = float(mp.sqrt(2 / (mp.sqrt(d + lam) - mp.sqrt(lam))))
            # the remainder of the tau -> 1 limit is O(e)
            assert fid_b2_asymptotic(xi, xi_prime, r) == pytest.approx(f_tau, abs=1e-5)

    def test_frame_symmetry_and_extreme_squeezing(self):
        # swapping q and p maps r to 1/r; far from r = 1 the environments
        # become orthogonal and F -> 0 without overflow
        for r in (0.3, 1.7, 40.0):
            assert fid_b2_asymptotic(0.2, 0.7, r) == pytest.approx(
                fid_b2_asymptotic(0.2, 0.7, 1.0 / r), rel=1e-12)
        for r in (1e-200, 1e40, 1e200):
            assert 0.0 <= fid_b2_asymptotic(0.2, 0.7, r) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            fid_b2_asymptotic(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            fid_b2_asymptotic(0.1, -1.0, 1.0)
        # non-finite noise is a DomainError, never a nan fidelity
        for xi, xi_prime in [(math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan),
                             (0.5, math.inf)]:
            with pytest.raises(DomainError):
                fid_b2_asymptotic(xi, xi_prime, 1.0)
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                fid_b2_asymptotic(0.5, 0.5, r)
