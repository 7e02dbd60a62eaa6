"""Shared test utilities: random symplectic, state and channel factories,
fit helpers, the extended-precision fidelity, symplectic-spectrum and
full-rank-bound oracles, the numpy-scalar oracle of the added noise, dense
reference constructions of channel action and the TMSV, and hypothesis
strategies of raw channel and state specs."""

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from bosonic_telesim import (CanonicalClass, GaussianChannel, GaussianState,
                             canonical_channel, form_from_fields)


def random_symplectic(n: int, rng: np.random.Generator, max_squeeze: float = 2.0):
    """Haar-rotation x squeezing x Haar-rotation random symplectic matrix."""
    def _orthogonal_symplectic():
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        x, y = q.real, q.imag
        o = np.zeros((2 * n, 2 * n))
        for i in range(n):
            for j in range(n):
                o[2 * i, 2 * j] = x[i, j]
                o[2 * i, 2 * j + 1] = -y[i, j]
                o[2 * i + 1, 2 * j] = y[i, j]
                o[2 * i + 1, 2 * j + 1] = x[i, j]
        return o

    rs = rng.uniform(1.0, max_squeeze, size=n)
    sq = np.diag(np.concatenate([[r, 1.0 / r] for r in rs]))
    return _orthogonal_symplectic() @ sq @ _orthogonal_symplectic()


def random_state(n: int, rng: np.random.Generator, nu_max: float = 3.0,
                 max_squeeze: float = 2.0, displace: float = 0.0) -> GaussianState:
    """Random valid Gaussian state: a symplectic congruence of a thermal CM."""
    s = random_symplectic(n, rng, max_squeeze)
    nus = rng.uniform(1.0, nu_max, size=n)
    cm = s @ np.diag(np.repeat(nus, 2)) @ s.T
    mean = displace * rng.normal(size=2 * n) if displace else np.zeros(2 * n)
    return GaussianState(mean, 0.5 * (cm + cm.T))


def sample_form(rng):
    """A random canonical form with parameters away from class boundaries."""
    tag = CanonicalClass(rng.choice([t.value for t in CanonicalClass]))
    if tag is CanonicalClass.C_Att:
        return form_from_fields(tag, tau=rng.uniform(0.05, 0.95), nbar=rng.uniform(0.0, 2.0))
    if tag is CanonicalClass.C_Amp:
        return form_from_fields(tag, tau=rng.uniform(1.1, 4.0), nbar=rng.uniform(0.0, 2.0))
    if tag is CanonicalClass.D:
        return form_from_fields(tag, tau=-rng.uniform(0.05, 4.0), nbar=rng.uniform(0.0, 2.0))
    if tag in (CanonicalClass.A1, CanonicalClass.A2):
        return form_from_fields(tag, nbar=rng.uniform(0.0, 2.0))
    if tag is CanonicalClass.B2:
        return form_from_fields(tag, xi=rng.uniform(0.05, 3.0))
    return form_from_fields(tag)


def conjugated_channel(form, rng, max_squeeze=1.6, displace=1.0):
    """Random channel with the invariants of ``form``: S_B T_c S_A etc."""
    t_c, n_c = canonical_channel(form).t, canonical_channel(form).n
    s_a = random_symplectic(1, rng, max_squeeze)
    s_b = random_symplectic(1, rng, max_squeeze)
    d = displace * rng.normal(size=2)
    return GaussianChannel(s_b @ t_c @ s_a, s_b @ n_c @ s_b.T, d)


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def fidelity_mp(v1, v2, dps: int = 50):
    """Extended-precision fidelity of zero-mean two-mode states, from the
    generic eigenvalue route of ``gaussian_fidelity``: the moduli of the
    eigenvalues of ``W Omega``, ``W = Omega^T (V1 + V2)^{-1} (Omega + V2 Omega
    V1)``, found by ``mp.eig``.  Returned as an mpf at ``dps`` digits."""
    with mp.workdps(dps):
        v1 = mp.matrix(v1.tolist() if isinstance(v1, np.ndarray) else v1)
        v2 = mp.matrix(v2.tolist() if isinstance(v2, np.ndarray) else v2)
        dim = v1.rows
        omega = mp.matrix(dim, dim)
        for k in range(dim // 2):
            omega[2 * k, 2 * k + 1] = 1
            omega[2 * k + 1, 2 * k] = -1
        vsum = v1 + v2
        vaux = omega.T * (vsum ** -1) * (omega + v2 * omega * v1)
        eigs = mp.eig(vaux * omega, left=False, right=False)
        moduli = sorted(abs(e) for e in eigs)
        ftot4 = mp.mpf(1)
        for i in range(dim // 2):
            w = max(moduli[2 * i], mp.mpf(1))
            ftot4 *= (w + mp.sqrt(w * w - 1)) ** 2
        f4 = ftot4 / mp.det(vsum / 2)
        return min(f4 ** mp.mpf("0.25"), mp.mpf(1))


def b1_witness_mp(mu, mu_tilde, a, c, dps: int):
    """Unit-rank-noise witness ``2 (1 - F)`` from :func:`fidelity_mp` at
    ``dps`` digits: F is the fidelity of ``TMSV(mu_tilde) + diag(0, 0, 0, 1)``
    and of the same state plus ``xi(mu) S S^T`` on mode B, S the
    determinant-one completion of the row (a, c).  mu, mu_tilde, a and c are
    taken as exact binary values."""
    with mp.workdps(dps):
        mut, a, c = mp.mpf(mu_tilde), mp.mpf(a), mp.mpf(c)
        mu = mp.mpf(mu)
        xi = 2 / (mu + mp.sqrt(mu * mu - 1))
        s = mp.sqrt(mut * mut - 1)
        va = mp.matrix([[mut, 0, s, 0], [0, mut, 0, -s],
                        [s, 0, mut, 0], [0, -s, 0, mut + 1]])
        d, b = (mp.mpf(0), 1 / a) if a != 0 else (-1 / c, mp.mpf(0))
        sa = mp.matrix([[a, c], [d, b]])
        sst = sa * sa.T
        vb = va.copy()
        for i in range(2):
            for j in range(2):
                vb[2 + i, 2 + j] += xi * sst[i, j]
        return 2 * (1 - fidelity_mp(va, vb, dps))


def symplectic_spectrum_mp(cm, dps: int = 50):
    """Extended-precision symplectic spectrum (descending) of a CM taken as
    exact binary values: the moduli of the eigenvalues of ``Omega V``, which
    come in +/- i nu pairs, found by ``mp.eig``."""
    with mp.workdps(dps):
        v = mp.matrix(np.asarray(cm, dtype=float).tolist())
        omega = mp.matrix(v.rows, v.rows)
        for k in range(v.rows // 2):
            omega[2 * k, 2 * k + 1] = 1
            omega[2 * k + 1, 2 * k] = -1
        eigs = mp.eig(omega * v, left=False, right=False)
        return sorted((abs(e) for e in eigs), reverse=True)[::2]


def symmetric_eigenvalues_mp(m, dps: int = 60):
    """Extended-precision eigenvalues (descending) of a symmetric matrix taken
    as exact binary values, found by ``mp.eigsy``."""
    with mp.workdps(dps):
        eigs = mp.eigsy(mp.matrix(np.asarray(m, dtype=float).tolist()), eigvals_only=True)
        return sorted(eigs, reverse=True)


def scutaru_fidelity_sq_mp(v1, v2, dps: int = 60):
    """Extended-precision ``F^2`` of two zero-mean one-mode states from
    Scutaru's ``F^2 = 2 / (sqrt(Delta + Lambda) - sqrt(Lambda))``, with
    ``Delta = det(V1 + V2)`` and ``Lambda = (det V1 - 1)(det V2 - 1)``, of CMs
    given as 2x2 rows of floats (taken as exact binary values) or mpf."""
    with mp.workdps(dps):
        (p1, r1), (_, q1) = ([mp.mpf(x) for x in row] for row in v1)
        (p2, r2), (_, q2) = ([mp.mpf(x) for x in row] for row in v2)
        delta = (p1 + p2) * (q1 + q2) - (r1 + r2) ** 2
        lam = max((p1 * q1 - r1 * r1 - 1) * (p2 * q2 - r2 * r2 - 1), 0)
        return 2 / (mp.sqrt(delta + lam) - mp.sqrt(lam))


def env_bound_mp(form, mu, r=1.0, a=1.0, c=0.0, dps: int = 60):
    """The C_Att, C_Amp, D or A2 diamond bound ``2 sqrt(1 - F^2)`` at ``dps``
    digits, F the fidelity of the environmental pair of
    ``teleportation.environmental_pair``, with the form's fields, mu, r, a
    and c taken as exact binary values."""
    with mp.workdps(dps):
        mu, omega = mp.mpf(mu), 2 * mp.mpf(form.noise_param) + 1
        xi = 2 / (mu + mp.sqrt(mu * mu - 1))
        if form.tag is CanonicalClass.A2:
            p, q = xi * (mp.mpf(a) ** 2 + mp.mpf(c) ** 2) + omega, omega
        else:
            tau, r = mp.mpf(form.tau), mp.mpf(r)
            gamma = xi * abs(tau) / abs(1 - tau)
            p, q = omega + gamma * r * r, omega + gamma / (r * r)
        f2 = scutaru_fidelity_sq_mp([[omega, 0], [0, omega]], [[p, 0], [0, q]], dps)
        return 2 * mp.sqrt(1 - f2)


# --- numpy-scalar oracle of the added noise ----------------------------------------
#
# bk_added_noise as it was written on numpy scalars (np.sqrt of Python
# floats, np.float64 arithmetic).  The library takes it on Python floats with
# math.sqrt; both square roots are correctly rounded, so every value must
# match this bit for bit.

def bk_added_noise_np(mu):
    mu = float(mu)
    if not (np.isfinite(mu) and mu >= 1.0):
        raise ValueError(f"resource variance must be finite with mu >= 1, got {mu}")
    if mu >= 2.0 ** 27:
        return 1.0 / mu
    return 2.0 / (mu + np.sqrt(mu * mu - 1.0))


def apply_channel_dense(ch, state, target_mode=0):
    """Reference channel action: T, N and d embedded at ``target_mode`` in
    dense identity, zero and zero blocks, ``V -> T_full V T_full^T + N_full``."""
    dim = 2 * state.modes
    t_full, n_full, d_full = np.eye(dim), np.zeros((dim, dim)), np.zeros(dim)
    sl = slice(2 * target_mode, 2 * target_mode + 2)
    t_full[sl, sl], n_full[sl, sl], d_full[sl] = ch.t, ch.n, ch.d
    return GaussianState(t_full @ state.mean + d_full,
                         t_full @ state.cm @ t_full.T + n_full)


def tmsv_cm_blocks(mu):
    """Reference TMSV CM assembled block by block: ``mu I`` on the diagonal,
    ``sqrt(mu^2 - 1) Z`` off it (so ``-0.0`` entries at mu = 1)."""
    s = np.sqrt(mu * mu - 1.0)
    z = np.diag([1.0, -1.0])
    cm = np.zeros((4, 4))
    cm[:2, :2] = mu * np.eye(2)
    cm[2:, 2:] = mu * np.eye(2)
    cm[:2, 2:] = s * z
    cm[2:, :2] = s * z
    return cm


# --- raw 2x2 channel specs for fuzzing --------------------------------------------

_MODERATE = st.floats(-10.0, 10.0)
_ENTRY = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _MODERATE,
                   st.sampled_from([0.0, 1.0, -1.0, 1e154, 1.7e308, -1.7e308, 5e-324]))


def _matrix(entry, dim=2):
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def _near_boundary(draw):
    """Moderate T and N = f |1 - det T| I plus a small asymmetric part, f
    around 1: on either side of the Holevo-Werner boundary."""
    t = draw(_matrix(_MODERATE))
    (a, b), (c, d) = t
    diag = draw(st.floats(0.5, 1.5)) * abs(1.0 - (a * d - b * c))
    off = draw(st.lists(st.floats(-1e-6, 1e-6), min_size=2, max_size=2))
    return t, [[diag, off[0]], [off[1], diag]]


# finite (T, N) as row lists: huge, asymmetric, or below the boundary
raw_channel_specs = st.one_of(st.tuples(_matrix(_ENTRY), _matrix(_ENTRY)),
                              _near_boundary()).map(lambda tn: {"t": tn[0], "n": tn[1]})


# --- raw one- and two-mode state specs for fuzzing --------------------------------

@st.composite
def _framed_thermal_cm(draw, modes):
    """``nu_k I`` on each mode, squeezed by ``exp(+/- r_k)`` and rotated by
    theta_k, and for two modes mixed by a beam splitter of angle phi."""
    s, nus = np.zeros((2 * modes, 2 * modes)), []
    for k in range(modes):
        th, r = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(-5.0, 5.0))
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        s[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rot * np.exp([r, -r])
        nus += [draw(st.floats(1.0, 1e6))] * 2
    if modes == 2:
        phi = draw(st.floats(0.0, np.pi))
        c, t = np.cos(phi), np.sin(phi)
        s = np.block([[c * np.eye(2), t * np.eye(2)], [-t * np.eye(2), c * np.eye(2)]]) @ s
    return ((s * nus) @ s.T).tolist()


def raw_state_specs(modes):
    """State specs of ``modes`` modes as row lists: a thermal CM in a squeezed
    and rotated frame, a TMSV up to mu = 1e12 (two modes) or any finite
    matrix, with a zero, moderate or any finite mean."""
    dim = 2 * modes
    cms = [_framed_thermal_cm(modes), _matrix(_ENTRY, dim)]
    if modes == 2:
        cms.append(st.floats(1.0, 1e12).map(lambda mu: tmsv_cm_blocks(mu).tolist()))
    means = st.one_of(st.just([0.0] * dim), *(st.lists(e, min_size=dim, max_size=dim)
                                              for e in (_MODERATE, _ENTRY)))
    return st.fixed_dictionaries({"mean": means, "cm": st.one_of(cms)})
