"""Quantum fidelity for one- and two-mode Gaussian states, the trace-norm
sandwich, and the closed-form fidelities used by the convergence bounds.

One mode takes the closed form of Scutaru (J. Phys. A 31, 3659 (1998)),
with ``Delta = det(V1 + V2)`` and ``Lambda = (det V1 - 1)(det V2 - 1)``,

    F^2 = 2 / (sqrt(Delta + Lambda) - sqrt(Lambda))
        = 2 (sqrt(Delta + Lambda) + sqrt(Lambda)) / Delta,

evaluated in the second, rationalized form on plain floats by one kernel,
which the environmental fidelities of the convergence bounds share.

Two modes take the general fidelity, computed from symplectic invariants of
the pair (V1, V2, delta = mean difference).  With W defined through

    W = Omega^T (V1 + V2)^{-1} (Omega + V2 Omega V1),

the eigenvalues of ``W Omega`` come in pairs ``+/- i w_k`` and

    F^4 = exp(-delta^T (V1 + V2)^{-1} delta)
          * prod_k (w_k + sqrt(w_k^2 - 1))^2 / det[(V1 + V2) / 2].

When either state is pure this reduces to the Gaussian overlap
``F^2 = Tr(rho sigma)``, which is evaluated directly for accuracy.  All
closed forms below are validated against this general routine in the tests.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, InvalidDimensionError, SingularCoefficientError
from .symplectic import GaussianState, _certainly_mixed, symplectic_form
from .teleportation import bk_added_noise

__all__ = [
    "BoundsPair",
    "gaussian_fidelity",
    "fuchs_vdg",
    "fid_output_identity",
    "fid_env_C",
    "fid_env_A2",
    "b1_gamma",
    "fid_b2_asymptotic",
]


def _mean_factor(m1: np.ndarray, m2: np.ndarray, vmean: np.ndarray) -> float:
    """``exp(-delta^T (V1 + V2)^{-1} delta / 4)`` of ``delta = m2 - m1``, 0
    where it underflows, with no warning, from ``vmean = (V1 + V2) / 2``: the
    quadratic form q in vmean is twice the one in ``V1 + V2``, exactly, so
    the factor is ``exp(-q / 8)``.  delta is formed on plain floats, so a
    difference beyond float64 range is inf.  A quadratic form beyond
    float64 range is taken again of ``u = 2^-e h``, with ``h = m2/2 - m1/2``
    (which cannot overflow) and ``2^e > max|h|``, and scaled back by the
    exact ``4^(e+1)``.  Where delta is finite and has no subnormal entry, h
    is delta/2 exactly, so u is ``2^-(e+1) delta`` bit for bit."""
    a, b = m1.tolist(), m2.tolist()
    delta = [y - x for x, y in zip(a, b)]
    if not any(delta):
        return 1.0
    delta = np.array(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        q = delta @ np.linalg.solve(vmean, delta)
        if not np.isfinite(q):
            h = np.array([0.5 * y - 0.5 * x for x, y in zip(a, b)])
            e = math.frexp(float(np.max(np.abs(h))))[1]
            u = np.ldexp(h, -e)
            q = np.ldexp(u @ np.linalg.solve(vmean, u), 2 * e + 2)
    return float(np.exp(-0.125 * q))


def _spectral_w(vaux: np.ndarray, n: int) -> np.ndarray:
    moduli = np.sort(np.abs(np.linalg.eigvals(vaux @ symplectic_form(n))))
    # clamp at 1: exact purity produces w = 1 and roundoff must not push the
    # sqrt argument negative
    return np.maximum(moduli[::2], 1.0)


def _scaled_det(p: float, r: float, q: float, c: float) -> tuple:
    """``(x, e)`` with ``p q - r^2 - c = x 4^e``, on plain floats.  e is 0
    unless a product leaves float64 range; then p, r and q are scaled by the
    exact ``2^-e``, with ``2^e > max(|p|, |r|, |q|)``, and c by ``4^-e``."""
    x = p * q - r * r - c
    if math.isfinite(x):
        return x, 0
    e = math.frexp(max(abs(p), abs(r), abs(q)))[1]
    p, r, q = math.ldexp(p, -e), math.ldexp(r, -e), math.ldexp(q, -e)
    return p * q - r * r - math.ldexp(c, -2 * e), e


def _one_mode_fidelity(p1: float, r1: float, q1: float, p2: float, r2: float, q2: float) -> float:
    """F of one-mode CMs ``[[p1, r1], [r1, q1]]`` and ``[[p2, r2], [r2, q2]]``
    with equal means, on plain floats, from the rationalized closed form
    ``F^2 = 2 (sqrt(Delta + Lambda) + sqrt(Lambda)) / Delta``, whose terms are
    all non-negative, with ``Lambda`` clamped at 0 per state.

    Each determinant is ``x 4^e`` from :func:`_scaled_det`, so that no product
    leaves float64 range, and ``sqrt(Lambda)`` is taken as
    ``sqrt(det V1 - 1) sqrt(det V2 - 1)`` and ``sqrt(Delta + Lambda)`` as
    ``hypot(sqrt(Delta), sqrt(Lambda))``, both scaled by ``2^-e`` of Delta.
    Delta is ``4 det((V1 + V2) / 2)``, of each CM halved before the sum: the
    halving is exact, so the sum cannot overflow (``1e308 I`` against
    ``1.5e308 I``), and wherever ``V1 + V2`` is finite and no product is
    subnormal (never, for CMs of states: ``Delta >= det V1 + det V2``) every
    float equals that of the unhalved sum scaled by a power of two, which the
    exponent e takes back, so F is the float it was before the halving.  A
    Delta that is not positive raises :class:`np.linalg.LinAlgError`."""
    x, e = _scaled_det(0.5 * p1 + 0.5 * p2, 0.5 * r1 + 0.5 * r2, 0.5 * q1 + 0.5 * q2, 0.0)
    if not 0.0 < x < math.inf:
        half = 2.0 ** e  # exact; overflows to inf in the product, with no warning
        raise np.linalg.LinAlgError(
            f"det((V1 + V2) / 2) = {x * half * half:g} is not positive")
    e += 1  # Delta = x 4^e
    x1, e1 = _scaled_det(p1, r1, q1, 1.0)
    x2, e2 = _scaled_det(p2, r2, q2, 1.0)
    u = math.ldexp(math.sqrt(max(x1, 0.0)) * math.sqrt(max(x2, 0.0)), e1 + e2 - e)
    # 2^-e before the division: 2 (hypot + u) / x alone is F^2 2^e, beyond float64
    # range for e near 1024
    return math.sqrt(2.0 * math.ldexp(math.hypot(math.sqrt(x), u) + u, -e) / x)


def gaussian_fidelity(s1: GaussianState, s2: GaussianState) -> float:
    """Bures fidelity ``F(rho1, rho2) = Tr sqrt(sqrt(rho2) rho1 sqrt(rho2))``
    for Gaussian states of the same mode count (1 or 2).

    Symmetric in its arguments, exactly 1 for states whose means and CMs
    are equal entry for entry, and includes the Gaussian factor for unequal
    mean vectors.  One mode is the closed form of the module docstring, with
    no spectral pass; it is exactly symmetric, and CMs whose products leave
    float64 range are scaled by exact powers of two.  For two modes, when
    either state is pure (``s1.is_pure() or s2.is_pure()``) it is the
    Gaussian overlap; otherwise the general formula.  A state whose CM
    certifies mixed on plain floats by the invariant ``nu_1^2 + nu_2^2``
    (for ``max|V| <= 2^20``, see ``symplectic._certainly_mixed``) skips its
    spectral pass.  The certificate answers only where that pass would say
    mixed, so the route and the float are the same either way, and the
    ``_require_psd`` check of that pass cannot fire on a certified state,
    whose ``lambda_min(V) >= 1 / (lambda_max(V) + e) - e`` is positive.
    A ``det(V1 + V2)`` that is not positive raises
    :class:`np.linalg.LinAlgError` on the closed-form and overlap routes.
    Two modes have no scaling: ``det(V1 + V2)``, the auxiliary matrix or
    the product of its spectrum beyond float64 range (``1e100 I`` against
    ``3e100 I``) raises :class:`OverflowError`, with no RuntimeWarning.
    """
    if s1.modes != s2.modes:
        raise InvalidDimensionError(
            f"mode counts differ: {s1.modes} vs {s2.modes}")
    n = s1.modes
    v1, v2 = s1.cm, s2.cm
    if v1.tolist() == v2.tolist() and s1.mean.tolist() == s2.mean.tolist():
        return 1.0  # the same state; the formulas below round to about 1
    if n == 1:
        mean = _mean_factor(s1.mean, s2.mean, 0.5 * v1 + 0.5 * v2)
        (p1, r1), (_, q1), (p2, r2), (_, q2) = v1.tolist() + v2.tolist()
        return min(_one_mode_fidelity(p1, r1, q1, p2, r2, q2) * mean, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # out of range raises below
        vsum = v1 + v2
        vmean = vsum / 2.0
        det = np.linalg.det(vmean)
    if not math.isfinite(det):
        raise OverflowError("two-mode fidelity beyond float64 range: det((V1 + V2) / 2) overflows")
    mean = _mean_factor(s1.mean, s2.mean, vmean)
    if any(not _certainly_mixed(s) and s.is_pure() for s in (s1, s2)):
        # overlap route: F^2 = Tr(rho sigma) when one state is pure
        if not det > 0.0:  # V1 + V2 singular to roundoff: TMSVs at mu >= 1e8
            raise np.linalg.LinAlgError(f"det((V1 + V2) / 2) = {det:g} is not positive")
        overlap = 1.0 / np.sqrt(det)
        return min(float(np.sqrt(overlap)) * mean, 1.0)
    omega = symplectic_form(n)
    with np.errstate(over="ignore", invalid="ignore"):  # out of range raises below
        vaux = omega.T @ np.linalg.solve(vsum, omega + v2 @ omega @ v1)
        ftot4 = math.inf
        if np.isfinite(vaux).all():
            w = _spectral_w(vaux, n)
            ftot4 = np.prod((w + np.sqrt(w * w - 1.0)) ** 2)
    if not math.isfinite(ftot4):
        raise OverflowError("two-mode fidelity beyond float64 range: the auxiliary "
                            "matrix of the pair or its spectrum overflows")
    return min(float((ftot4 / det) ** 0.25) * mean, 1.0)


@dataclasses.dataclass(frozen=True)
class BoundsPair:
    """Trace-norm sandwich ``2(1 - F) <= ||rho - sigma|| <= 2 sqrt(1 - F^2)``."""

    lower: float
    upper: float


def fuchs_vdg(f: float) -> BoundsPair:
    """Trace-distance bounds implied by a fidelity value."""
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0, 1], got {f}")
    return BoundsPair(lower=2.0 * (1.0 - f),
                      upper=2.0 * float(np.sqrt(max(1.0 - f * f, 0.0))))


def fid_output_identity(mu_tilde: float, mu: float) -> float:
    """Fidelity between a two-mode squeezed vacuum of variance ``mu_tilde``
    and its image under a ``mu``-resource teleporter acting on one arm.

    Closed form ``F = [1 + mu_tilde xi(mu) / 2]^{-1/2}``, the Gaussian overlap
    of the pure input with the output whose second diagonal block is raised
    by xi.  Scales as O(mu_tilde^{-1/2}) at fixed mu and as 1 - O(1/mu) at
    fixed mu_tilde: the two iterated limits disagree.
    """
    mu_tilde = float(mu_tilde)
    if not (np.isfinite(mu_tilde) and mu_tilde >= 1.0):
        raise DomainError(f"mu_tilde must be finite and >= 1, got {mu_tilde}")
    return float(1.0 / np.sqrt(1.0 + mu_tilde * bk_added_noise(mu) / 2.0))


def _thermal_pair_fidelity(omega: float, p: float, q: float) -> float:
    """:func:`gaussian_fidelity` of the thermal state ``omega I`` against
    ``diag(p, q)``, bit for bit; an entry beyond float64 range (``r^2`` of r
    about 1.34e154) raises :class:`OverflowError`."""
    if not omega >= 1.0:
        raise DomainError(f"thermal variance must satisfy omega >= 1, got {omega}")
    if not (p < math.inf and q < math.inf):
        raise OverflowError(f"environmental CM diag({p:g}, {q:g}) leaves float64 range")
    if p == omega and q == omega:
        return 1.0
    return min(_one_mode_fidelity(omega, 0.0, omega, p, 0.0, q), 1.0)


def fid_env_C(gamma: float, omega: float, r: float) -> float:
    """Environmental fidelity for the attenuator, amplifier and
    amplifier-conjugate classes: thermal state of variance omega against the
    CM ``omega I + gamma diag(r^2, 1/r^2)``, bit for bit the
    :func:`gaussian_fidelity` of that ``environmental_pair``.

    Equals 1 at gamma = 0; the infidelity vanishes quadratically in gamma
    (the Bures metric is second order in the perturbation), so the derived
    trace-norm bound ``2 sqrt(1 - F^2)`` is linear in gamma.
    """
    gamma, omega, r = float(gamma), float(omega), float(r)
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    if not r > 0.0:
        raise DomainError(f"squeezing parameter must be positive, got {r}")
    inv = 1.0 / r  # products, not ``**``: libm pow raises OverflowError
    return _thermal_pair_fidelity(omega, omega + gamma * (r * r), omega + gamma * (inv * inv))


def fid_env_A2(xi: float, omega: float, a: float, c: float) -> float:
    """Environmental fidelity for the rank-one-transmission class: thermal
    state of variance omega against ``diag(xi (a^2 + c^2) + omega, omega)``,
    bit for bit as :func:`fid_env_C`."""
    xi, omega, a, c = float(xi), float(omega), float(a), float(c)
    if not xi >= 0.0:
        raise DomainError(f"xi must be non-negative, got {xi}")
    return _thermal_pair_fidelity(omega, xi * (a * a + c * c) + omega, omega)


def b1_gamma(a: float, c: float, xi: float) -> float:
    """Leading coefficient of ``F^4 ~ gamma / mu_tilde`` for the witness that
    defeats uniform convergence of the unit-rank-noise class.

    In the vacuum-variance-1 convention used throughout,

        gamma = 2 (a^2 + c^2 + xi) / [xi (a^2 + c^2 + xi/2)^2],

    where (a, c) is the first row of the input-frame symplectic and xi the
    teleporter's added noise; ``F^4 mu_tilde`` of the witness closed form
    approaches it with a relative correction O(1/mu_tilde).
    """
    a, c, xi = float(a), float(c), float(xi)
    if xi < 0.0:
        raise DomainError(f"xi must be non-negative, got {xi}")
    if xi == 0.0:
        raise SingularCoefficientError("gamma diverges at xi = 0 (exact simulation)")
    s = a * a + c * c
    if s == 0.0:
        raise DomainError("(a, c) = (0, 0) is outside the witness family")
    return 2.0 * (s + xi) / (xi * (s + 0.5 * xi) ** 2)


# Outward rounding of the B2 infidelity, so that the bound 2 sqrt(1 - F^2)
# never falls under the exact limit.  2^-45 relative exceeds the float64
# rounding of the ~35 operations on positive terms below and of the final
# square root; unrounded, the bound was measured at most 8e-16 relative off
# the exact limit for mu in (1, 1e150].
_B2_ROUND_UP = 1.0 + 2.0 ** -45


def _b2_infidelity(xi: float, xi_prime: float, r: float) -> float:
    """``1 - F^2`` for the additive-noise class in the transparency limit
    tau -> 1, with F the fidelity of :func:`fid_b2_asymptotic`.

    With ``F^2 = 4 num / den``, ``den - 4 num`` is rationalized to
    ``(den^2 - 16 num^2) / (den + 4 num)``.  Dividing num and den by
    ``r^2 / u``, where ``u = 1 / (r^2 + r^-2) <= 1/2``, gives

        1 - F^2 = xi^2 [4 xi'^2 (1 - 2 u^2) + u (4 xi xi' + u xi^2)]
                  / (D (D + 4 N)),
        D = 2 xi xi' + u (xi^2 + 4 xi'^2),
        N = xi' sqrt(u (xi xi' + u (xi^2 + xi'^2))),

    sums of positive terms: no cancellation at any xi and no overflow at any
    r.  The result is rounded up by 2^-45 relative and capped at 1.
    """
    if not r > 0.0:
        raise DomainError(f"squeezing parameter must be positive, got {r}")
    q = min(r, 1.0 / r) ** 2  # F is symmetric under r -> 1/r
    u = q / (1.0 + q * q)
    d = 2.0 * xi * xi_prime + u * (xi * xi + 4.0 * xi_prime * xi_prime)
    n = xi_prime * np.sqrt(u * (xi * xi_prime + u * (xi * xi + xi_prime * xi_prime)))
    top = xi * xi * (4.0 * xi_prime * xi_prime * (1.0 - 2.0 * u * u)
                     + u * (4.0 * xi * xi_prime + u * xi * xi))
    return min(float(top / (d * (d + 4.0 * n))) * _B2_ROUND_UP, 1.0)


def fid_b2_asymptotic(xi: float, xi_prime: float, r: float) -> float:
    """Environmental fidelity for the additive-noise class, dilated as a beam
    splitter, in the exact transparency limit tau -> 1.

    ``xi`` is the teleporter's added noise, ``xi_prime`` the channel's own
    added noise and ``r`` the input-frame squeezing.  In closed form
    ``F = 2 sqrt(num / den)`` with ``a = xi xi' (1 + r^4)``,
    ``num = r xi' sqrt(a + r^2 (xi^2 + xi'^2))`` and
    ``den = 2 a + r^2 (xi^2 + 4 xi'^2)``.  The infidelity vanishes
    quadratically as xi -> 0, making the trace-norm bound linear in xi.
    """
    xi, xi_prime, r = float(xi), float(xi_prime), float(r)
    if xi <= 0.0 or xi_prime <= 0.0:
        raise DomainError("both noise parameters must be positive")
    return float(np.sqrt(1.0 - _b2_infidelity(xi, xi_prime, r)))


# Inward rounding of the witnesses, B1's ``2 (1 - F^2) / (1 + F)`` and the
# identity's ``2 (1 - F)``, so that a lower bound never exceeds the exact
# value.  2^-45 relative exceeds the float64 rounding of the ~60 operations
# on positive terms below; unrounded, the B1 witness was measured at most
# 1.1e-15 relative off the exact value for mu and mu_tilde up to 1e300.
_B1_ROUND_DOWN = 1.0 - 2.0 ** -45


def _b1_witness_infidelity(mu_tilde, xi: float, a: float, c: float) -> tuple:
    """``(1 - F^2, F^2)`` for the unit-rank-noise witness: F is the fidelity
    of ``V1 = TMSV(m) + diag(0, 0, 0, 1)`` and ``V2 = V1 + xi (0 + S S^T)``,
    the outputs of the channel and of its simulation, with ``m = mu_tilde``,
    S the determinant-one completion of the row (a, c) (second row
    ``(0, 1/a)``, or ``(-1/c, 0)`` if a = 0) and ``S S^T = [[p, q], [q, t]]``.

    ``det(V1 + V2) = 4 D``; one symplectic eigenvalue of the fidelity's
    auxiliary matrix is 1 and the other has ``w^2 = P / 2D`` and
    ``w^2 - 1 = Q / 2D``.  Then ``F^2 = sqrt(2) S / D`` with
    ``S = sqrt(P) + sqrt(Q)`` and
    ``1 - F^2 = xi R / (D (1 - 8 / S^2) (D + sqrt(2) S))``, where D, P, Q and
    R are polynomials in m whose terms are all positive for m >= 1, and
    ``S^2 >= 32``: nothing cancels.  They are evaluated as dd, pp, qq and rr,
    divided by ``m^2 s``, ``m^3 s``, ``m^3 s`` and ``m^4 s`` with
    ``s = xi + 1/m``, so that none overflows or underflows at any mu_tilde
    and xi.  Elementwise on an array of mu_tilde: only + - * / and sqrt
    touch it, so each element equals the scalar evaluation bit for bit.
    Squares are products, never a ``**`` (libm ``pow`` misrounds some and
    raises ``OverflowError`` on Python floats): an overflowing row gives a
    non-finite result, which the caller rejects.
    """
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


def _identity_witness(mu_tilde, xi):
    """``2 (1 - F)`` for the F of :func:`fid_output_identity`, rounded down
    by 2^-45 relative.  With ``x = mu_tilde xi / 2`` and ``s = sqrt(1 + x)``,
    ``1 - F = 1 - 1/s = x / (s (1 + s))``: every term is positive, and
    ``x <= mu_tilde`` cannot overflow.  Elementwise on arrays."""
    x = mu_tilde * (0.5 * xi)
    s = np.sqrt(1.0 + x)
    return 2.0 * (x / (s * (1.0 + s))) * _B1_ROUND_DOWN
