"""Shared test utilities: random symplectic, state and channel factories,
fit helpers, the extended-precision fidelity, symplectic-spectrum (by
eigenvalues and by exact invariants), full-rank-bound and key-capacity
oracles, the numpy oracles of the added noise, the witness kernels and the
numeric rank, the exact dense channel action, the reference TMSV
construction, and hypothesis strategies of raw channel and state specs."""

from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from bosonic_telesim import (CanonicalClass, GaussianChannel, GaussianState,
                             canonical_channel, form_from_fields)
from bosonic_telesim.convergence import _B1_ROUND_DOWN


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


def random_cm(n: int, rng: np.random.Generator, nu_max: float = 3.0,
              max_squeeze: float = 2.0):
    """Random valid CM of n modes, an array: a symplectic congruence of a
    thermal CM, symmetrized."""
    s = random_symplectic(n, rng, max_squeeze)
    nus = rng.uniform(1.0, nu_max, size=n)
    cm = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return 0.5 * (cm + cm.T)


def random_state(n: int, rng: np.random.Generator, nu_max: float = 3.0,
                 max_squeeze: float = 2.0, displace: float = 0.0) -> GaussianState:
    """Random valid Gaussian state of one or two modes, with the CM of
    :func:`random_cm`."""
    cm = random_cm(n, rng, nu_max, max_squeeze)
    mean = displace * rng.normal(size=2 * n) if displace else np.zeros(2 * n)
    return GaussianState(mean, cm)


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


def _det_exact(m):
    """Exact determinant of a square matrix of Fractions (Laplace expansion)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det_exact([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def symplectic_invariants_mp(cm, dps: int = 80):
    """Symplectic spectrum (descending) of a one- or two-mode CM taken as
    exact binary values, from its invariants formed exactly in rationals:
    ``nu = sqrt(det V)`` for one mode; for two, with ``V = [[A, C], [C^T, B]]``
    and ``Delta = det A + det B + 2 det C``,
    ``nu_1^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2`` and
    ``nu_2 = sqrt(det V) / nu_1``, the roots taken at ``dps`` digits."""
    v = [[Fraction(x) for x in row] for row in np.asarray(cm, dtype=float).tolist()]
    det = _det_exact(v)
    with mp.workdps(dps):
        def root(q):
            return mp.sqrt(mp.mpf(q.numerator) / q.denominator) if q > 0 else mp.mpf(0)

        if len(v) == 2:
            return [root(det)]
        a, b, c = (_det_exact([row[j:j + 2] for row in v[i:i + 2]])
                   for i, j in ((0, 0), (2, 2), (0, 2)))
        delta = a + b + 2 * c
        hi = mp.sqrt((mp.mpf(delta.numerator) / delta.denominator
                      + root(delta * delta - 4 * det)) / 2)
        return [hi, root(det) / hi if hi else hi]


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


def b2_bound_mp(xi_prime, mu, r=1.0, dps: int = 60):
    """The B2 diamond bound ``2 sqrt(1 - F^2)`` at ``dps`` digits, F the exact
    tau -> 1 limit of :func:`fidelity.fid_b2_asymptotic`, with xi' (the
    form's noise_param), mu and r taken as exact binary values.  ``1 - F^2``
    is about ``xi^2``, so dps should exceed ``2 log10(mu)``."""
    with mp.workdps(dps):
        m, xp, rr = mp.mpf(mu), mp.mpf(xi_prime), mp.mpf(r)
        xi = 2 / (m + mp.sqrt(m * m - 1))
        a = xi * xp * (1 + rr ** 4)
        num = rr * xp * mp.sqrt(a + rr ** 2 * (xi ** 2 + xp ** 2))
        den = 2 * a + rr ** 2 * (xi ** 2 + 4 * xp ** 2)
        return 2 * mp.sqrt(1 - 4 * num / den)


def phi_mp(formula, *args, dps: int = 60):
    """The weak-converse key-capacity bound ``phi_loss(tau, nbar)``,
    ``phi_amp(tau, nbar)`` or ``phi_add(xi)`` (by its report's ``formula``)
    at ``dps`` digits from the PLOB formulas, with the inputs taken as exact
    binary values; 0 past the threshold."""
    with mp.workdps(dps):
        if formula == "additive":
            xi = mp.mpf(args[0])
            return (xi - 1 - mp.log(xi)) / mp.log(2) if xi < 1 else mp.mpf(0)
        tau, n = (mp.mpf(x) for x in args)
        if formula == "loss":
            value = -mp.log((1 - tau) * tau ** n, 2)
            t = tau / (1 - tau)
        else:
            value = mp.log(tau ** (n + 1) / (tau - 1), 2)
            t = 1 / (tau - 1)
        h = (n + 1) * mp.log(n + 1, 2) - (n * mp.log(n, 2) if n else 0)
        return value - h if n < t else mp.mpf(0)


# --- numpy-scalar oracle of the added noise ----------------------------------------
#
# bk_added_noise on numpy scalars (np.sqrt of Python floats, np.float64
# arithmetic), with mu^2 - 1 formed as (mu - 1)(mu + 1) as the library forms
# it.  The library takes it on Python floats with math.sqrt; both square roots
# are correctly rounded, so every value must match this bit for bit.

def bk_added_noise_np(mu):
    mu = float(mu)
    if not (np.isfinite(mu) and mu >= 1.0):
        raise ValueError(f"resource variance must be finite with mu >= 1, got {mu}")
    if mu >= 2.0 ** 27:
        return 1.0 / mu
    return 2.0 / (mu + np.sqrt((mu - 1.0) * (mu + 1.0)))


# The witness kernels as they were written on numpy arrays: the identity's
# 2 (1 - F) rounded down, and B1's (1 - F^2, F^2), one elementwise pass over an
# array of mu_tilde.  The library runs the same + - * / and sqrt in the same
# order per float, with the sums that do not depend on mu_tilde formed once,
# so every row must match these bit for bit.  Call them under np.errstate:
# an overflowing row (a, c) gives inf and NaN.

def identity_witness_np(mu_tilde, xi):
    x = mu_tilde * (0.5 * xi)
    s = np.sqrt(1.0 + x)
    return 2.0 * (x / (s * (1.0 + s))) * _B1_ROUND_DOWN


def b1_witness_infidelity_np(mu_tilde, xi, a, c):
    d, b = (0.0, 1.0 / a) if a != 0.0 else (-1.0 / c, 0.0)
    p, q, t = a * a + c * c, a * d + c * b, d * d + b * b
    u = 1.0 / mu_tilde
    g = (mu_tilde - 1.0) * u
    s = xi + u
    x, v = xi / s, u / s
    u2, u4 = 2.0 * u, 4.0 * u
    w = 2.0 * p + xi
    xp = x * (p + xi)
    dd = x * w + v * (2.0 * xi * (p + t) + 4.0 + u4)
    pp = xp + v * (2.0 * xi * (w + t) + 2.0
                   + u * (xi * (5.0 * p + xi + 4.0 * t) + 8.0 + u * (2.0 * p * xi + 8.0)))
    qq = xp + v * (2.0 * t * xi + 2.0 + u * xi * (p + xi + u2 * p))
    rr = x * (w * w) + v * (4.0 * xi * (p + t) * w
                            + u4 * xi * (p * p + t * t + 2.0 * (g + q * q))
                            + 8.0 * p * g * (1.0 + u) * (1.0 + u2))
    ss = np.sqrt(pp) + np.sqrt(qq)
    scaled = np.sqrt(2.0 * v) * ss
    infidelity = x * rr / (dd * (1.0 - 8.0 * u * u * v / (ss * ss)) * (dd + scaled))
    return infidelity, scaled / dd


# channels._numeric_rank as it was written on numpy arrays (np.sum of the
# comparison array).  The library compares the two singular values of the same
# SVD on plain floats, so every count must match this one.

def numeric_rank_np(m, tol):
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > (1e-10 if tol is None else tol) * max(float(sv[0]), 1.0)))


def apply_channel_dense(ch, state, target_mode=0, entry=Fraction):
    """Reference channel action, exact: T, N and d embedded at ``target_mode``
    in dense identity, zero and zero blocks, ``(T_full m + d_full,
    T_full V T_full^T + N_full)`` as lists of Fractions, with ``entry``
    applied to each float of the channel and the state first.  With
    ``entry = lambda x: abs(Fraction(x))`` it is ``(|T_full| |m| + |d_full|,
    |T_full| |V| |T_full|^T + |N_full|)``, the scale of a float route's error."""
    dim, k = 2 * state.modes, 2 * target_mode
    t = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
    n = [[Fraction(0)] * dim for _ in range(dim)]
    d = [Fraction(0)] * dim
    for i in range(2):
        d[k + i] = entry(float(ch.d[i]))
        for j in range(2):
            t[k + i][k + j], n[k + i][k + j] = entry(float(ch.t[i, j])), entry(float(ch.n[i, j]))
    v = [[entry(x) for x in row] for row in state.cm.tolist()]
    tv = [[sum(t[i][l] * v[l][j] for l in range(dim)) for j in range(dim)] for i in range(dim)]
    mean = [sum(t[i][l] * entry(x) for l, x in enumerate(state.mean.tolist())) + d[i]
            for i in range(dim)]
    return mean, [[sum(tv[i][l] * t[j][l] for l in range(dim)) + n[i][j] for j in range(dim)]
                  for i in range(dim)]


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
