"""The Hermitian physicality criteria at large resource and in random frames.

States are physical iff ``V + i Omega >= 0`` and channels iff
``N + i (1 - det T) Omega >= 0``; both are decided on the scale
``max(1, max|M|)``, so valid inputs far from unit scale construct while
inputs a relative 1e-6 beyond the boundary are still rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_symplectic
from bosonic_telesim import (CanonicalClass, GaussianChannel, GaussianState,
                             ValidationError, canonical_channel, classify,
                             form_from_fields, quasi_choi, symplectic_eigenvalues,
                             tmsv_state, validate_channel)
from bosonic_telesim.symplectic import _UNCERTAINTY

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
        for k in range(2 * FRAMES):
            nus = list(rng.uniform(1.0, 3.0, size=modes))
            nus[k % modes] = self.NU  # on either mode of a two-mode state
            s = random_symplectic(modes, rng, max_squeeze=2.0)
            with pytest.raises(ValidationError, match="unphysical"):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # every entry is checked: a max() over them would drop a NaN
        for entry in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            m = np.eye(2)
            m[entry] = bad
            with pytest.raises(ValidationError, match="not finite"):
                GaussianState(np.zeros(2), m)
            with pytest.raises(ValidationError, match="not finite"):
                GaussianChannel(np.eye(2), m)
            ch = GaussianChannel(m, np.eye(2))  # T
            assert not validate_channel(ch)
            with pytest.raises(ValidationError, match="not finite"):
                classify(ch)

    def test_beyond_half_float_range(self):
        # b + c and p + p overflow; the symmetrized entries do not
        big = 1.7e308
        ch = GaussianChannel(np.eye(2), [[big, big], [big, big]])
        assert ch.n.tolist() == [[big, big], [big, big]]
        assert validate_channel(ch)
        assert GaussianState(np.zeros(2), big * np.eye(2)).cm[1, 1] == big
        # the same for M + M^T and M - M^T of a 4x4 M: a valid CM comes back
        # unchanged, the others raise, and no RuntimeWarning is emitted
        coupled = np.block([[1.5e308 * np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros((2, 2))],
                            [np.zeros((2, 2)), np.eye(2)]])
        for cm in (big * np.eye(4), coupled):
            assert np.array_equal(GaussianState(np.zeros(4), cm).cm, cm)
        not_psd = coupled.copy()
        not_psd[0, 1] = not_psd[1, 0] = big
        with pytest.raises(ValidationError, match="unphysical"):
            GaussianState(np.zeros(4), not_psd)
        asymmetric = np.eye(4)
        asymmetric[0, 1], asymmetric[1, 0] = big, -big
        with pytest.raises(ValidationError, match="not symmetric"):
            GaussianState(np.zeros(4), asymmetric)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _frame(theta, phi, log_r2):
    """Single-mode symplectic R(theta) diag(r, 1/r) R(phi)."""
    r = 10.0 ** (0.5 * log_r2)
    return _rotation(theta) @ np.diag([r, 1.0 / r]) @ _rotation(phi)


class TestClosedFormAgainstEigvalsh:
    """The 2x2 test decides ``M + i w Omega >= 0`` in closed form; a test-side
    ``eigvalsh`` is the oracle outside a band of 8 eps s around the threshold
    ``-max(uncertainty, 64 eps s)``, s = max(1, max|M|)."""

    BAND = 8.0 * np.finfo(float).eps

    @given(state=st.booleans(),
           log_w=st.floats(-3.0, 12.0),
           w_sign=st.sampled_from([1.0, -1.0]),
           squeeze=st.floats(0.0, 1.0),
           log_delta=st.floats(-17.0, 0.0),
           delta_sign=st.sampled_from([1.0, -1.0]),
           offset=st.one_of(st.none(), st.floats(-200.0, 200.0)),
           angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6))
    @settings(max_examples=1500, deadline=None)
    def test_matches_oracle(self, state, log_w, w_sign, squeeze, log_delta, delta_sign,
                            offset, angles):
        if state:
            w, log_w = 1.0, 0.0
        else:
            # a channel with 1 - det T = +-10^log_w, in random input/output frames
            tau = 1.0 - w_sign * 10.0 ** log_w
            t_c = np.sqrt(abs(tau)) * (np.eye(2) if tau > 0.0 else Z2)
            t = _frame(*angles[2:4], 1.0) @ t_c @ _frame(*angles[4:6], -1.0)
            (a, b), (c, d) = t.tolist()
            w = 1.0 - (a * d - b * c)
        # nu S S^T with S of squeeze r^2 up to 10^(12 - log_w): scales 1e-3 to 1e12
        r2 = 10.0 ** (squeeze * (12.0 - max(log_w, 0.0)))
        if offset is None:
            nu = abs(w) * (1.0 + delta_sign * 10.0 ** log_delta)
        else:
            # smallest eigenvalue about 2 (nu - |w|) / (r^2 + r^-2): offset eps s
            nu = abs(w) * (1.0 + offset * np.finfo(float).eps * r2 * (r2 + 1.0 / r2) / 2.0)
        s = _frame(*angles[:2], np.log10(r2))
        m = s @ np.diag([nu, nu]) @ s.T  # asymmetric by roundoff
        sym = 0.5 * (m + m.T)

        if state:
            try:
                assert GaussianState(np.zeros(2), m).cm.tobytes() == sym.tobytes()
                accepted = True
            except ValidationError:
                accepted = False
        else:
            ch = GaussianChannel(t, m)
            assert ch.n.tobytes() == sym.tobytes()
            accepted = validate_channel(ch)

        scale = max(1.0, float(np.max(np.abs(m))))
        lam = np.linalg.eigvalsh(sym + 1j * w * np.array([[0.0, 1.0], [-1.0, 0.0]]))[0]
        threshold = -max(_UNCERTAINTY, 64.0 * np.finfo(float).eps * scale)
        if lam < threshold - self.BAND * scale:
            assert not accepted
        elif lam > threshold + self.BAND * scale:
            assert accepted


def _passive(theta1, theta2, phi):
    """Two-mode passive symplectic: a phase rotation on each mode, then a beam
    splitter of angle phi."""
    c, s = np.cos(phi), np.sin(phi)
    z = np.zeros((2, 2))
    rotations = np.block([[_rotation(theta1), z], [z, _rotation(theta2)]])
    return rotations @ np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


def _two_mode_frame(angles, log_r2s):
    """Passive x single-mode squeezing ``diag(r1, 1/r1, r2, 1/r2)`` x passive
    (the Bloch-Messiah form), with ``r_k^2 = 10^log_r2s[k]``."""
    r1, r2 = (10.0 ** (0.5 * x) for x in log_r2s)
    return _passive(*angles[:3]) @ np.diag([r1, 1.0 / r1, r2, 1.0 / r2]) @ _passive(*angles[3:])


OMEGA2 = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _eigvalsh_accepts(m):
    """The two-mode test of ``_checked`` with one ``eigvalsh`` and no
    certificate: symmetry within 1e-12 s, then no eigenvalue of the
    symmetrized ``M + i Omega`` below ``-max(1e-9, 64 eps s)``."""
    scale = max(1.0, float(np.max(np.abs(m))))
    half = 0.5 * m
    if 2.0 * float(np.max(np.abs(half - half.T))) > 1e-12 * scale:
        return False
    lam = np.linalg.eigvalsh(half + half.T + 1j * OMEGA2)[0]
    return bool(lam >= -max(_UNCERTAINTY, 64.0 * np.finfo(float).eps * scale))


class TestCholeskyAgainstEigvalsh:
    """A 4x4 CM is accepted on plain floats by a Cholesky certificate below the
    scale of about 28,150, and by ``eigvalsh`` wherever that cannot decide:
    the decision must be exactly the ``eigvalsh`` one, with no band, since
    the certificate accepts only where ``eigvalsh`` would.  The draws put
    nu_1 and nu_2 at ``1 +/- 10^[-17, 0]`` in random two-mode frames, so
    max|V| runs from about 1e-3 (nu near 0) to 1e12."""

    @given(log_deltas=st.lists(st.floats(-17.0, 0.0), min_size=2, max_size=2),
           signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=2, max_size=2),
           squeeze=st.floats(0.0, 1.0),
           share=st.floats(0.0, 1.0),
           angles=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6))
    @settings(max_examples=1500, deadline=None)
    def test_matches_eigvalsh(self, log_deltas, signs, squeeze, share, angles):
        nus = [1.0 + sign * 10.0 ** x for sign, x in zip(signs, log_deltas)]
        total = 12.0 * squeeze  # log10 of the frame's largest r^2
        s = _two_mode_frame(angles, (total, total * share))
        m = s @ np.diag(np.repeat(nus, 2)) @ s.T  # asymmetric by roundoff
        try:
            cm = GaussianState(np.zeros(4), m).cm
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == _eigvalsh_accepts(m)
        if accepted:
            # 0.5 (M + M^T) outside the subnormal range, which a tiny angle reaches
            half = 0.5 * m
            assert cm.tobytes() == (half + half.T).tobytes()

    def test_certificate_decides_below_its_scale(self, monkeypatch):
        from bosonic_telesim import symplectic

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        certified = tmsv_state(1e4).cm  # s = 1e4
        others = (tmsv_state(3e4).cm,  # beyond the certificate's scale
                  np.diag([1.0 - 1e-6, 1.0 - 1e-6, 2.0, 2.0]))  # a failed pivot
        monkeypatch.setattr(symplectic.np.linalg, "eigvalsh", refuse)
        assert np.array_equal(GaussianState(np.zeros(4), certified).cm, certified)
        for cm in others:
            with pytest.raises(AssertionError, match="eigvalsh ran"):
                GaussianState(np.zeros(4), cm)
