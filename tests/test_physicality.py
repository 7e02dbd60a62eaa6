"""The Hermitian physicality criteria at large resource and in random frames.

States are physical iff ``V + i Omega >= 0`` and channels iff
``N + i (1 - det T) Omega >= 0``; both are decided on the scale
``max(1, max|M|)``, so valid inputs far from unit scale construct while
inputs a relative 1e-6 beyond the boundary are still rejected.
"""

import numpy as np
import pytest

from bosonic_telesim import (CanonicalClass, GaussianChannel, GaussianState,
                             ValidationError, canonical_channel, classify,
                             form_from_fields,
                             quasi_choi, random_symplectic, symplectic_eigenvalues,
                             tmsv_state, validate_channel)

Z2 = np.diag([1.0, -1.0])
FRAMES = 50


def framed_state(s, nus):
    """``S diag(nu) S^T`` as float64 computes it, asymmetric by roundoff."""
    cm = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return np.zeros(len(cm)), cm


def framed_channel(rng, tau, det_n_factor=1.0, frame=True):
    """Canonical (T, N) with ``det N = (1 - tau)^2 det_n_factor``, conjugated
    by random single-mode symplectics S2 (output) and S1 (input); N keeps
    its roundoff asymmetry."""
    t = np.sqrt(abs(tau)) * (np.eye(2) if tau > 0.0 else Z2)
    n = abs(1.0 - tau) * np.sqrt(det_n_factor) * np.eye(2)
    if frame:
        s1, s2 = random_symplectic(1, rng), random_symplectic(1, rng)
        t, n = s2 @ t @ s1, s2 @ n @ s2.T
    return GaussianChannel(t, n)


class TestValidAtLargeScale:
    @pytest.mark.parametrize("mu", [5e7, 1e8, 1e10, 1e12])
    def test_tmsv(self, mu):
        state = tmsv_state(mu)
        assert state.cm[0, 0] == mu

    @pytest.mark.parametrize("mu", [1e8, 1e10])
    @pytest.mark.parametrize("tag, fields", [
        (CanonicalClass.C_Att, {"tau": 0.5, "nbar": 0.3}),
        (CanonicalClass.C_Amp, {"tau": 2.0, "nbar": 0.5}),
        (CanonicalClass.B2, {"xi": 0.5}),
    ])
    def test_quasi_choi(self, tag, fields, mu):
        state = quasi_choi(canonical_channel(form_from_fields(tag, **fields)), mu)
        assert state.modes == 2

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_random_frame_states(self, rng, scale):
        for _ in range(FRAMES):
            mean, cm = framed_state(random_symplectic(2, rng), [scale, scale])
            state = GaussianState(mean, cm)
            assert symplectic_eigenvalues(state.cm) == pytest.approx([scale, scale],
                                                                      rel=1e-6)

    @pytest.mark.parametrize("gain", [1e3, 1e4])
    def test_quantum_limited_amplifier_in_random_frames(self, rng, gain):
        for _ in range(FRAMES):
            assert validate_channel(framed_channel(rng, gain))


class TestInvalidStillRejected:
    NU = 1.0 - 1e-6

    @pytest.mark.parametrize("modes", [1, 2])
    def test_thermal_frame(self, rng, modes):
        nus = [self.NU] + list(rng.uniform(1.0, 3.0, size=modes - 1))
        with pytest.raises(ValidationError):
            GaussianState(*framed_state(np.eye(2 * modes), nus))

    @pytest.mark.parametrize("modes", [1, 2])
    def test_random_frames(self, rng, modes):
        for _ in range(FRAMES):
            nus = [self.NU] + list(rng.uniform(1.0, 3.0, size=modes - 1))
            s = random_symplectic(modes, rng, max_squeeze=2.0)
            with pytest.raises(ValidationError):
                GaussianState(*framed_state(s, nus))

    @pytest.mark.parametrize("cm", [
        np.diag([-5e-5, 1e5]),  # a negative variance
        np.diag([-999.0, 1e12]),
        np.diag([1.0 - 1e-6, 1.0 - 1e-6, 1e6, 1e6]),  # nu deficit beside a large mode
        np.diag([1.0, 1.0, 1e6, 0.5e-6]),  # nu = 0.71, squeezed by 1e6
    ])
    def test_large_scale(self, cm):
        # the eigenvalue slack grows with the scale only as eigvalsh's roundoff
        with pytest.raises(ValidationError):
            GaussianState(np.zeros(len(cm)), cm)

    @pytest.mark.parametrize("tau", [0.5, 2.0, -1.0, 1e4])
    def test_channel_below_bona_fide(self, rng, tau):
        assert not validate_channel(framed_channel(rng, tau, 1.0 - 1e-6, frame=False))
        for _ in range(FRAMES):
            assert not validate_channel(framed_channel(rng, tau, 1.0 - 1e-6))

    def test_channel_with_large_noise_below_bona_fide(self):
        # det N = 0.15 < (1 - det T)^2 = 1
        ch = GaussianChannel(np.zeros((2, 2)), np.diag([5e-6, 3e4]))
        assert not validate_channel(ch)
        with pytest.raises(ValidationError):
            classify(ch)

    @pytest.mark.parametrize("tau", [0.5, 2.0, -1.0, 1e4])
    def test_channel_on_bona_fide_boundary(self, tau):
        assert validate_channel(framed_channel(None, tau, frame=False))


class TestScaleRule:
    def test_symmetry_relative_to_scale(self):
        cm = 1e6 * np.eye(2)
        cm[0, 1] = 1e-7  # 1e-13 of the scale: roundoff-sized asymmetry
        assert GaussianState(np.zeros(2), cm).cm[0, 1] == 5e-8
        cm[0, 1] = 1e-5  # 1e-11 of the scale
        with pytest.raises(ValidationError):
            GaussianState(np.zeros(2), cm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            GaussianState(np.zeros(2), [[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            GaussianChannel(np.eye(2), [[bad, 0.0], [0.0, 1.0]])
        assert not validate_channel(GaussianChannel([[bad, 0.0], [0.0, 0.0]], np.eye(2)))
