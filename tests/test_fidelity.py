import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import fidelity_mp, loglog_slope, random_state, random_symplectic
from bosonic_telesim import (DomainError, GaussianState, InvalidDimensionError,
                             SingularCoefficientError, ValidationError, apply_affine,
                             apply_channel, b1_gamma, bk_added_noise, bk_channel,
                             fid_b2_asymptotic, fid_env_A2, fid_env_C,
                             fid_output_identity, fuchs_vdg, gaussian_fidelity,
                             partial_trace, tensor_states, thermal_state, tmsv_state)

I2 = np.eye(2)


def fock_vacuum_thermal_fidelity(nbar, cutoff=200):
    """Independent oracle: F(|0>, thermal) = sqrt(<0|rho|0>) from the Fock
    distribution p_n = nbar^n / (nbar + 1)^(n+1), explicitly normalized on a
    truncated ladder."""
    n = np.arange(cutoff)
    p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    p = p / p.sum()
    return float(np.sqrt(p[0]))


def _unchecked_state(cm):
    """A GaussianState holding ``cm`` without its construction checks."""
    state = object.__new__(GaussianState)
    object.__setattr__(state, "mean", np.zeros(len(cm)))
    object.__setattr__(state, "cm", np.asarray(cm, dtype=float))
    return state


class TestGaussianFidelity:
    def test_purity_short_circuit(self):
        # ``s1.is_pure() or s2.is_pure()``: s1's error first, and once s1 is
        # pure nothing about s2's spectrum may raise
        pure, not_psd = tmsv_state(2.0), _unchecked_state(np.diag([-1e-3, 5.0, 5.0, 5.0]))
        with pytest.raises(ValidationError, match="positive semidefinite"):
            not_psd.is_pure()
        with pytest.raises(ValidationError, match="positive semidefinite"):
            gaussian_fidelity(not_psd, pure)
        overlap = np.linalg.det((pure.cm + not_psd.cm) / 2.0) ** -0.25
        assert gaussian_fidelity(pure, not_psd) == pytest.approx(overlap, rel=1e-12)

    def test_identical_states(self, rng):
        for state in (GaussianState.vacuum(), thermal_state(2.5),
                      tmsv_state(3.0), random_state(2, rng, displace=1.0)):
            assert gaussian_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("p1,p2", [
        ((0.3, 0.2, 0.25, 0.6), (0.1, 0.4, 0.15, 1.1)),
        ((0.2, 0.0, 0.3, 0.4), (0.35, 0.15, 0.1, 0.9)),
        ((0.0, 0.0, 0.2, 0.3), (0.25, 0.1, 0.25, 0.5)),
    ])
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

        def cm(nbar1, nbar2, z, theta):
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

        def fock_fidelity(rho, sigma):
            vals, vecs = np.linalg.eigh(rho)
            sq = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
            lam = np.clip(np.linalg.eigvalsh(sq @ sigma @ sq), 0.0, None)
            return float(np.sum(np.sqrt(lam)))

        oracle = fock_fidelity(fock_state(*p1), fock_state(*p2))
        got = gaussian_fidelity(GaussianState(np.zeros(4), cm(*p1)),
                                GaussianState(np.zeros(4), cm(*p2)))
        assert got == pytest.approx(oracle, abs=1e-6)


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


def _env_state(cm):
    return GaussianState(np.zeros(2), cm)


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
            gamma = rng.uniform(0.0, 3.0)
            omega = rng.uniform(1.0, 6.0)
            r = rng.uniform(0.5, 2.0)
            w = omega * I2 + gamma * np.diag([r * r, r ** -2])
            assert fid_env_C(gamma, omega, r) == pytest.approx(
                gaussian_fidelity(thermal_state(omega), _env_state(w)), abs=1e-9)

    def test_attenuator_domains(self):
        with pytest.raises(DomainError):
            fid_env_C(-0.1, 2.0, 1.0)
        with pytest.raises(DomainError):
            fid_env_C(0.5, 0.9, 1.0)
        with pytest.raises(DomainError):
            fid_env_C(0.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            fid_env_A2(-0.5, 2.0, 1.0, 0.0)

    def test_unit_noise_point(self):
        # gamma = omega = r = 1: thermal vacuum against 2I
        assert fid_env_C(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    # the amplifier-conjugate class D enters fid_env_C with gamma = -kappa,
    # kappa = xi tau / (1 - tau) <= 0
    def test_conjugate_class_against_general(self, rng):
        for _ in range(60):
            kappa = -rng.uniform(0.0, 3.0)
            omega = rng.uniform(1.0, 6.0)
            r = rng.uniform(0.5, 2.0)
            w = omega * I2 - kappa * np.diag([r * r, r ** -2])
            assert fid_env_C(-kappa, omega, r) == pytest.approx(
                gaussian_fidelity(thermal_state(omega), _env_state(w)), abs=1e-9)

    def test_conjugate_at_zero(self):
        assert fid_env_C(0.0, 4.0, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_spot_value(self):
        w = 3.0 * I2 + 0.5 * np.diag([4.0, 0.25])
        assert fid_env_C(0.5, 3.0, 2.0) == pytest.approx(
            gaussian_fidelity(thermal_state(3.0), _env_state(w)), abs=1e-9)

    def test_rank_one_transmission_against_general(self, rng):
        for _ in range(60):
            xi = rng.uniform(0.0, 2.0)
            omega = rng.uniform(1.0, 6.0)
            a, c = rng.normal(), rng.normal()
            w = np.diag([xi * (a * a + c * c) + omega, omega])
            assert fid_env_A2(xi, omega, a, c) == pytest.approx(
                gaussian_fidelity(thermal_state(omega), _env_state(w)), abs=1e-9)

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

    def test_rejects_zero_row(self):
        with pytest.raises(DomainError):
            b1_gamma(0.0, 0.0, 1.0)


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
