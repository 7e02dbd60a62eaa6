"""Extended-precision references for every number the benchmark checks.

Nothing here imports ``bosonic_telesim``: each reference is an independent
mpmath evaluation of the quantity the library claims to compute, so a fast
but wrong answer shows up as a failed check rather than as a speed-up.

Conventions follow the library: quadratures (q1, p1, ..., qn, pn), vacuum
covariance matrix = identity, F is the root (Bures) fidelity.
"""

from __future__ import annotations

import math

import mpmath as mp

# Relative tolerance of every value check.  It admits the additive class's
# systematic 1e-6 transparency-limit remainder and rejects the >= 1e-4
# float64 cancellation of the closed-form bounds.
REL_TOL = 1e-5
# Working precision of the closed-form references (digits).
DPS = 60


def within(value, ref, tol=REL_TOL):
    """True iff ``value`` is finite and within ``tol`` relative of ``ref``.

    The comparison is two-sided: an upper bound below the reference is
    unsound, and one far above it is a wrong number too.  A zero reference
    demands an exact zero.
    """
    try:
        v = float(value)
    except (TypeError, ValueError):
        return False
    if not math.isfinite(v):
        return False
    return abs(mp.mpf(v) - ref) <= tol * abs(ref)


def _omega(n):
    om = mp.zeros(2 * n, 2 * n)
    for k in range(n):
        om[2 * k, 2 * k + 1] = 1
        om[2 * k + 1, 2 * k] = -1
    return om


def bk_xi(mu):
    """Teleporter added noise ``2 / (mu + sqrt(mu^2 - 1))``."""
    mu = mp.mpf(mu)
    return 2 / (mu + mp.sqrt(mu * mu - 1))


def fidelity2_diag(v1, v2):
    """Squared fidelity of two zero-mean single-mode states with diagonal CMs,
    given as (V_qq, V_pp) pairs: ``F^2 = 2 / (sqrt(D + L) - sqrt(L))`` with
    ``D = det(V1 + V2)`` and ``L = (det V1 - 1)(det V2 - 1)``."""
    d = (v1[0] + v2[0]) * (v1[1] + v2[1])
    lam = max((v1[0] * v1[1] - 1) * (v2[0] * v2[1] - 1), mp.mpf(0))
    return 2 / (mp.sqrt(d + lam) - mp.sqrt(lam))


def symplectic_spectrum2(v):
    """Symplectic eigenvalues (descending) of a two-mode CM from its two
    invariants: nu1^2 + nu2^2 = -tr((Omega V)^2) / 2, nu1^2 nu2^2 = det V."""
    a = _omega(2) * v
    s = -_trace(a * a) / 2
    p = mp.det(v)
    disc = mp.sqrt(max(s * s - 4 * p, mp.mpf(0)))
    return (mp.sqrt((s + disc) / 2), mp.sqrt(max((s - disc) / 2, mp.mpf(0))))


def _trace(m):
    return mp.fsum(m[i, i] for i in range(m.rows))


def fidelity_2mode(v1, v2):
    """Fidelity of two zero-mean two-mode states without an eigensolver.

    With ``W = Omega^T (V1 + V2)^{-1} (Omega + V2 Omega V1)`` the eigenvalues
    of ``W Omega`` are ``+/- i w_k``; w1^2 and w2^2 are the roots of
    ``x^2 - s x + p`` with ``s = -tr((W Omega)^2) / 2`` and
    ``p = det W``.  Then ``F^4 = prod (w + sqrt(w^2 - 1))^2 / det((V1 + V2)/2)``.
    """
    om = _omega(2)
    vsum = v1 + v2
    w = om.T * mp.inverse(vsum) * (om + v2 * om * v1)
    a = w * om
    s = -_trace(a * a) / 2
    p = mp.det(w)
    disc = mp.sqrt(max(s * s - 4 * p, mp.mpf(0)))
    f4 = mp.mpf(1)
    for x in ((s + disc) / 2, (s - disc) / 2):
        wk = max(mp.sqrt(max(x, mp.mpf(0))), mp.mpf(1))
        f4 *= (wk + mp.sqrt(wk * wk - 1)) ** 2
    f4 /= mp.det(vsum / 2)
    return min(mp.root(f4, 4), mp.mpf(1))


# --- convergence bounds -------------------------------------------------------

def upper_bound(cls, tau, nbar, xi_prime, mu, r=1.0, a=1.0, c=0.0):
    """Diamond upper bound ``2 sqrt(1 - F^2)`` of a canonical full-rank-noise
    class at resource ``mu``, in the input frame (r for C/D/B2; a, c for A2).
    B2 is the exact tau -> 1 limit (the form of ``fid_b2_asymptotic``)."""
    with mp.workdps(DPS):
        xi = bk_xi(mu)
        r = mp.mpf(r)
        if cls == "A1":
            return mp.mpf(0)
        if cls == "B2":
            xp = mp.mpf(xi_prime)
            num = r * xp * mp.sqrt(xi * xp * (1 + r ** 4) + r ** 2 * (xi ** 2 + xp ** 2))
            den = 2 * xi * xp * (1 + r ** 4) + r ** 2 * (xi ** 2 + 4 * xp ** 2)
            return 2 * mp.sqrt(max(1 - 4 * num / den, mp.mpf(0)))
        om = 2 * mp.mpf(nbar) + 1
        if cls == "A2":
            w = (xi * (mp.mpf(a) ** 2 + mp.mpf(c) ** 2) + om, om)
        elif cls in ("C_Att", "C_Amp", "D"):
            tau = mp.mpf(tau)
            gamma = xi * abs(tau) / abs(1 - tau)
            w = (om + gamma * r ** 2, om + gamma / r ** 2)
        else:
            raise ValueError(f"no uniform bound for class {cls}")
        return 2 * mp.sqrt(max(1 - fidelity2_diag((om, om), w), mp.mpf(0)))


def library_b1_dps(mu_tilde):
    """Precision the library uses for the B1 witness at ``mu_tilde``."""
    return max(40, int(8 * math.log10(max(float(mu_tilde), 10.0))))


def b1_witness_cms(mu_tilde, xi, a, c):
    """Output CMs of the unit-rank-noise form and of its simulation, fed the
    two-mode squeezed witness of variance ``mu_tilde``; the simulation adds
    ``xi S S^T`` on mode B, S the determinant-one completion of row (a, c)."""
    mut = mp.mpf(mu_tilde)
    s = mp.sqrt(mut * mut - 1)
    va = mp.matrix([[mut, 0, s, 0], [0, mut, 0, -s],
                    [s, 0, mut, 0], [0, -s, 0, mut + 1]])
    a, c = mp.mpf(a), mp.mpf(c)
    d_, b_ = (mp.mpf(0), 1 / a) if a != 0 else (-1 / c, mp.mpf(0))
    sa = mp.matrix([[a, c], [d_, b_]])
    sst = sa * sa.T
    vb = va.copy()
    for i in range(2):
        for j in range(2):
            vb[2 + i, 2 + j] += xi * sst[i, j]
    return va, vb


def b1_witness(mu, mu_tilde, a, c):
    """Witness lower bound ``2 (1 - F)`` of the unit-rank-noise class, at
    twice the library's working precision."""
    with mp.workdps(2 * library_b1_dps(mu_tilde)):
        va, vb = b1_witness_cms(mu_tilde, bk_xi(mu), a, c)
        return 2 * (1 - fidelity_2mode(va, vb))


def identity_witness(mu, mu_tilde):
    """Witness ``2 (1 - F)``, ``F = (1 + mu_tilde xi / 2)^{-1/2}``, of the
    identity class (the form of ``fid_output_identity``)."""
    with mp.workdps(DPS):
        f = 1 / mp.sqrt(1 + mp.mpf(mu_tilde) * bk_xi(mu) / 2)
        return 2 * (1 - f)


# --- phase-space references for the protocol workload ---------------------------

def canonical_tn(cls, tau, nbar, xi_prime):
    """Canonical (T, N) of class C_Att, C_Amp or B2 as mp matrices."""
    if cls == "B2":
        return mp.eye(2), mp.mpf(xi_prime) * mp.eye(2)
    tau = mp.mpf(tau)
    return mp.sqrt(tau) * mp.eye(2), abs(1 - tau) * (2 * mp.mpf(nbar) + 1) * mp.eye(2)


def tmsv(mu):
    mu = mp.mpf(mu)
    s = mp.sqrt(mu * mu - 1)
    return mp.matrix([[mu, 0, s, 0], [0, mu, 0, -s], [s, 0, mu, 0], [0, -s, 0, mu]])


def on_mode_b(t, n, v):
    """Apply (T, N) to the second mode of a two-mode CM."""
    tf = mp.eye(4)
    nf = mp.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            tf[2 + i, 2 + j] = t[i, j]
            nf[2 + i, 2 + j] = n[i, j]
    return tf * v * tf.T + nf


def two_mode_squeezer(s):
    ch, sh = mp.cosh(s), mp.sinh(s)
    return mp.matrix([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])


def phi_key(cls, tau, nbar, xi_prime):
    """Weak-converse key-capacity bound of the loss, amplifier or additive
    channel (0 past its noise threshold)."""
    nbar = mp.mpf(nbar)

    def h(x):
        return (x + 1) * mp.log(x + 1, 2) - (x * mp.log(x, 2) if x > 0 else 0)

    if cls == "C_Att":
        tau = mp.mpf(tau)
        if not nbar < tau / (1 - tau):
            return mp.mpf(0)
        return -mp.log((1 - tau) * tau ** nbar, 2) - h(nbar)
    if cls == "C_Amp":
        tau = mp.mpf(tau)
        if not nbar < 1 / (tau - 1):
            return mp.mpf(0)
        return mp.log(tau ** (nbar + 1) / (tau - 1), 2) - h(nbar)
    xp = mp.mpf(xi_prime)
    if not xp < 1:
        return mp.mpf(0)
    return (xp - 1) / mp.log(2) - mp.log(xp, 2)


def key_bound(cls, tau, nbar, xi_prime, n, eps, mu):
    """Reference (eps_tp, value, unbounded) of ``corrected_key_bound`` with
    V = 0 in the canonical frame: eps_tp = min(1, n delta / 2)."""
    with mp.workdps(DPS):
        delta = upper_bound(cls, tau, nbar, xi_prime, mu)
        eps_tp = min(mp.mpf(1), n * delta / 2)
        return (eps_tp,) + key_value(cls, tau, nbar, xi_prime, n, eps, eps_tp)


def key_value(cls, tau, nbar, xi_prime, n, eps, eps_tp):
    """Reference (value, unbounded) of the key bound at a given ``eps_tp``."""
    with mp.workdps(DPS):
        eps, eps_tp = mp.mpf(eps), mp.mpf(eps_tp)
        eps_all = min(mp.mpf(1), (mp.sqrt(eps) + mp.sqrt(eps_tp)) ** 2)
        if eps_all >= 1:
            return mp.mpf(0), True
        c_eps = mp.log(6, 2) + 2 * mp.log((1 + eps_all) / (1 - eps_all), 2)
        return phi_key(cls, tau, nbar, xi_prime) + c_eps / n, False


def protocol(cls, tau, nbar, xi_prime, mu, r, state_cm, state_mean):
    """Every reference number of one protocol task (see workloads.py)."""
    with mp.workdps(DPS):
        t, n = canonical_tn(cls, tau, nbar, xi_prime)
        xi = bk_xi(mu)
        n_eff = n + xi * t * t.T
        out = {"effective_n": n_eff}
        out["williamson"] = symplectic_spectrum2(on_mode_b(t, n_eff, tmsv(mu)))
        if cls != "B2":
            om = 2 * mp.mpf(nbar) + 1
            gamma = xi * abs(mp.mpf(tau)) / abs(1 - mp.mpf(tau))
            w = (om + gamma * mp.mpf(r) ** 2, om + gamma / mp.mpf(r) ** 2)
            out["env_fidelity"] = mp.sqrt(fidelity2_diag((om, om), w))
            v = mp.matrix(state_cm)
            out["channel_cm"] = t * v * t.T + n
            out["channel_mean"] = t * mp.matrix(state_mean)
        delta = upper_bound(cls, tau, nbar, xi_prime, mu)
        out["per_use_delta"] = delta
        sq = two_mode_squeezer(mp.mpf("0.2"))

        def run(nn):
            v = on_mode_b(t, nn, tmsv(2))
            return on_mode_b(t, nn, sq * v * sq.T)

        out["two_round_fidelity"] = fidelity_2mode(run(n), run(n_eff))
        return out
