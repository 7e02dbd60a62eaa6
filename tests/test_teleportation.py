import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_state
from bosonic_telesim import (BKParameters, CanonicalClass, DomainError, GaussianChannel,
                             UnsupportedFormError, ValidationError, apply_channel,
                             apply_via_dilation, bk_added_noise, bk_channel,
                             canonical_channel, canonical_matrices, classify,
                             dilation_of, environmental_pair, form_from_fields,
                             quasi_choi, simulate_channel, symplectic_eigenvalues,
                             tmsv_state)

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


class TestAddedNoise:
    def test_unit_resource(self):
        assert bk_added_noise(1.0) == 2.0

    def test_exact_rational_point(self):
        # sqrt(1.25^2 - 1) = 0.75, so xi = 2(1.25 - 0.75) = 1
        assert bk_added_noise(1.25) == pytest.approx(1.0, abs=1e-15)

    def test_large_resource_asymptote(self):
        xi = bk_added_noise(1e6)
        assert abs(xi - 1e-6) / 1e-6 <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            bk_added_noise(0.99)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, mu):
        with pytest.raises(DomainError):
            bk_added_noise(mu)

    @given(st.floats(min_value=1.0, max_value=1e8))
    @settings(max_examples=200, deadline=None)
    def test_range(self, mu):
        xi = bk_added_noise(mu)
        assert 0.0 < xi <= 2.0

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, mu, step):
        assert bk_added_noise(mu + step) < bk_added_noise(mu)

    def test_no_overflow_at_huge_resource(self):
        assert bk_added_noise(1e155) == 1e-155

    def test_reciprocal_branch_bit_identical(self, rng):
        # below the overflow, 2 / (mu + sqrt((mu - 1)(mu + 1))) and the 1/mu
        # branch taken from mu = 2^27 must give the same bits
        mus = np.exp(rng.uniform(0.0, np.log(1e150), 20000))
        mus = np.concatenate([mus, 2.0 ** 27 + np.arange(-3.0, 4.0)])
        for mu in mus:
            assert bk_added_noise(mu) == 2.0 / (mu + np.sqrt((mu - 1.0) * (mu + 1.0)))

    def test_xi_mu_product_limit(self):
        mu = 1e4
        assert abs(bk_added_noise(mu) * mu - 1.0) <= 1e-6

    def test_params_dataclass(self):
        params = BKParameters(1.25)
        assert params.xi == pytest.approx(1.0)

    @pytest.mark.parametrize("mu", ["x", "10", True, 1j, None])
    def test_non_real_rejected(self, mu):
        # float() took them: "10" simulated at mu = 10, True at mu = 1, and
        # "x" raised a bare ValueError
        with pytest.raises(DomainError, match="must be a real number"):
            bk_added_noise(mu)
        with pytest.raises(DomainError, match="must be a real number"):
            simulate_channel(GaussianChannel.identity(), mu)

    def test_params_store_a_float(self):
        # simulate_channel(ch, "10") stored the string "10" as params.mu
        for mu in (np.float64(1.25), 5, np.int64(5)):
            params = BKParameters(mu)
            assert type(params.mu) is float and params.mu == mu
            assert params.xi == bk_added_noise(float(mu))
        assert simulate_channel(GaussianChannel.identity(), 5).params.mu == 5.0


class TestBkChannel:
    def test_is_additive_class(self):
        form = classify(bk_channel(1.25))
        assert form.tag is CanonicalClass.B2
        assert form.noise_param == pytest.approx(1.0)

    def test_classify_at_mu_two(self):
        assert classify(bk_channel(2.0)).tag is CanonicalClass.B2

    def test_pointwise_identity_limit(self, rng):
        state = random_state(1, rng, displace=1.0)
        out = apply_channel(bk_channel(1e8), state)
        assert np.max(np.abs(out.cm - state.cm)) <= 1e-7
        assert np.array_equal(out.mean, state.mean)


class TestSimulateChannel:
    def test_identity_base(self):
        sim = simulate_channel(GaussianChannel.identity(), 1.25)
        form = classify(sim.effective)
        assert form.tag is CanonicalClass.B2
        assert form.noise_param == pytest.approx(1.0)

    def test_unit_rank_base_gains_rank(self):
        base = GaussianChannel(I2, np.diag([0.0, 1.0]))
        xi = bk_added_noise(2.0)
        sim = simulate_channel(base, 2.0)
        assert np.allclose(sim.effective.n, np.diag([xi, 1.0 + xi]))
        assert classify(sim.effective).tag is CanonicalClass.B2  # rank jumped to 2

    def test_attenuator_base(self):
        tau, nbar, mu = 0.5, 0.3, 3.0
        base = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=nbar))
        sim = simulate_channel(base, mu)
        xi = bk_added_noise(mu)
        expected = ((1.0 - tau) * (2.0 * nbar + 1.0) + xi * tau) * I2
        assert np.max(np.abs(sim.effective.n - expected)) <= 1e-12

    def test_invalid_base_rejected(self):
        from bosonic_telesim import ValidationError
        bad = GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            simulate_channel(bad, 2.0)
        with pytest.raises(ValidationError):
            quasi_choi(bad, 2.0)

    def test_large_gain_and_noise(self):
        # the composition self-check scales with max|N + xi T T^T| (about 1e5)
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        base = GaussianChannel(np.sqrt(1e5) * rot, (1e5 - 1.0) * I2)
        sim = simulate_channel(base, 1.1)
        expected = base.n + sim.params.xi * base.t @ base.t.T
        assert np.max(np.abs(sim.effective.n - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_noise_beyond_float_range_rejected(self):
        # xi T T^T overflows for a T entry of 1e155 (det T = 1): a typed
        # error, not inf carried on with a RuntimeWarning
        base = GaussianChannel(np.diag([1e155, 1e-155]), I2)
        with pytest.raises(ValidationError, match="not finite"):
            simulate_channel(base, 2.0)

    def test_noise_shift_is_exact(self, rng):
        from _helpers import conjugated_channel, sample_form
        for _ in range(100):
            base = conjugated_channel(sample_form(rng), rng)
            mu = rng.uniform(1.0, 100.0)
            sim = simulate_channel(base, mu)
            shift = sim.effective.n - base.n
            assert np.max(np.abs(shift - sim.params.xi * base.t @ base.t.T)) <= 1e-12
            assert np.array_equal(sim.effective.t, base.t)
            assert np.array_equal(sim.effective.d, base.d)

    def test_full_rank_noise_stays_full_rank(self, rng):
        from _helpers import conjugated_channel, sample_form
        count = 0
        while count < 30:
            form = sample_form(rng)
            if form.tag in (CanonicalClass.B1, CanonicalClass.B2_Id):
                continue
            count += 1
            base = conjugated_channel(form, rng)
            eff = simulate_channel(base, 5.0).effective
            assert np.linalg.matrix_rank(eff.n, tol=1e-12) == 2


class TestQuasiChoi:
    def test_identity_channel(self):
        state = quasi_choi(GaussianChannel.identity(), 2.0)
        assert np.array_equal(state.cm, tmsv_state(2.0).cm)

    def test_pure_loss_blocks(self):
        tau, mu = 0.3, 2.0
        state = quasi_choi(
            canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau)), mu)
        assert np.allclose(state.cm[2:, 2:], (tau * mu + 1.0 - tau) * I2)
        assert np.allclose(state.cm[:2, 2:], np.sqrt(tau * (mu * mu - 1.0)) * Z2)

    def test_measure_and_prepare_breaks_entanglement(self):
        state = quasi_choi(
            canonical_channel(form_from_fields(CanonicalClass.A1, nbar=0.5)), 5.0)
        assert np.allclose(state.cm[:2, 2:], np.zeros((2, 2)))


class TestEnvironmentalPair:
    def test_large_resource_collapses_to_thermal(self):
        form = form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=1.0)
        pair = environmental_pair(form, mu=1e9)
        assert np.max(np.abs(pair.rho_e_mu.cm - pair.rho_e.cm)) <= 1e-8

    def test_attenuator_arithmetic(self):
        form = form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.0)
        pair = environmental_pair(form, mu=1.25)  # xi = 1, gamma = 1
        assert np.allclose(pair.rho_e_mu.cm, 2.0 * I2)
        assert symplectic_eigenvalues(pair.rho_e_mu.cm) == pytest.approx([2.0])

    def test_rank_one_transmission_arithmetic(self):
        form = form_from_fields(CanonicalClass.A2, nbar=0.0)
        # mu = (y + 1/y)/2 with y = 2/xi gives xi = 0.5 exactly
        pair = environmental_pair(form, mu=(4.0 + 0.25) / 2.0, a=1.0, c=0.0)
        assert np.allclose(pair.rho_e_mu.cm, np.diag([1.5, 1.0]))
        nu = symplectic_eigenvalues(pair.rho_e_mu.cm)[0]
        assert nu == pytest.approx(np.sqrt(1.5))

    def test_spectral_lower_bounds(self, rng):
        from bosonic_telesim import bk_added_noise as xi_of
        for _ in range(50):
            mu = rng.uniform(1.01, 50.0)
            r = rng.uniform(0.5, 2.0)
            tau_att = rng.uniform(0.05, 0.95)
            nbar = rng.uniform(0.0, 2.0)
            omega = 2.0 * nbar + 1.0
            form = form_from_fields(CanonicalClass.C_Att, tau=tau_att, nbar=nbar)
            pair = environmental_pair(form, mu, squeeze_r=r)
            nu = symplectic_eigenvalues(pair.rho_e_mu.cm)[0]
            gamma = xi_of(mu) * tau_att / (1.0 - tau_att)
            assert nu >= omega + gamma - 1e-9
            tau_d = -rng.uniform(0.05, 4.0)
            form = form_from_fields(CanonicalClass.D, tau=tau_d, nbar=nbar)
            pair = environmental_pair(form, mu, squeeze_r=r)
            nu = symplectic_eigenvalues(pair.rho_e_mu.cm)[0]
            kappa = xi_of(mu) * tau_d / (1.0 - tau_d)
            assert nu >= omega - kappa - 1e-9

    @pytest.mark.parametrize("r", [1e200, 1e-200, math.inf])
    @pytest.mark.parametrize("tau,mu", [(0.5, 10.0), (1e-300, 1e300)])  # gamma > 0, gamma = 0
    def test_squeeze_beyond_float64_range_rejected(self, r, tau, mu):
        form = form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="covariance matrix is not finite"):
                environmental_pair(form, mu, squeeze_r=r)

    @pytest.mark.parametrize("tau,mu", [(0.5, 10.0), (1e-300, 1e300)])
    def test_nan_squeeze_is_no_input_frame(self, tau, mu):
        # rejected by the frame check, as fid_env_C rejects it, before any CM is formed
        form = form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=0.5)
        with pytest.raises(DomainError, match="squeezing parameter must be positive"):
            environmental_pair(form, mu, squeeze_r=math.nan)

    def test_unsupported_classes(self):
        for tag in (CanonicalClass.A1, CanonicalClass.B1, CanonicalClass.B2_Id):
            with pytest.raises(UnsupportedFormError):
                environmental_pair(form_from_fields(tag), mu=2.0)

    @pytest.mark.parametrize("tag,params", [
        (CanonicalClass.C_Att, {"tau": 0.4, "nbar": 0.6}),
        (CanonicalClass.C_Amp, {"tau": 1.8, "nbar": 0.3}),
        (CanonicalClass.D, {"tau": -0.7, "nbar": 0.5}),
        (CanonicalClass.A2, {"nbar": 0.8}),
    ], ids=lambda x: x if isinstance(x, str) else getattr(x, "value", ""))
    def test_shared_dilation_reproduces_simulated_map(self, tag, params, rng):
        """Swapping the environment of the original dilation for rho_e_mu must
        reproduce the simulated channel conjugated by the input-frame unitary."""
        mu, r, a, c = 7.0, 1.3, 0.8, 0.6
        form = form_from_fields(tag, **params)
        xi = bk_added_noise(mu)
        if tag is CanonicalClass.A2:
            d_, b_ = 0.3, (1.0 + c * 0.3) / a  # det = ab - cd = 1
            s_a = np.array([[a, c], [d_, b_]])
        else:
            s_a = np.diag([r, 1.0 / r])
        t_c, n_c = canonical_matrices(form)
        effective = GaussianChannel(t_c, n_c + xi * t_c @ s_a @ s_a.T @ t_c.T)
        pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
        dil = dataclasses.replace(dilation_of(form), env=pair.rho_e_mu)
        for _ in range(25):
            state = random_state(1, rng, displace=1.0)
            via = apply_via_dilation(dil, state)
            direct = apply_channel(effective, state)
            assert np.max(np.abs(via.cm - direct.cm)) <= 1e-9
            assert np.max(np.abs(via.mean - direct.mean)) <= 1e-9
