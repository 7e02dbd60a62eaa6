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

The closed forms, the witness columns and the one-mode state fidelity run
on plain floats; only the two-mode state fidelity uses numpy, imported where
it runs, so the bounds and witnesses of the channel layer and one-mode
states load no numpy.
"""

from __future__ import annotations

import dataclasses
import math
import sys

from ._floats import _integers, _real
from .errors import (DomainError, InvalidDimensionError, SingularCoefficientError,
                     UnresolvableError)
from .symplectic import symplectic_form
from .teleportation import _frame_r, _frame_row, bk_added_noise

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


def _mean_factor(m1: tuple, m2: tuple, v1: tuple, v2: tuple) -> float:
    """``exp(-Q / 4)`` of ``Q = delta^T (V1 + V2)^-1 delta``, ``delta = m2 - m1``,
    on the plain floats of the two states' means and row-major CMs, of one or
    two modes.  Q is ``-det B / det(V1 + V2)`` of the bordered
    ``B = [[V1 + V2, delta], [delta^T, 0]]``: both determinants come exact
    from one fraction-free (Bareiss) elimination of B in integers, over the
    common denominator of the floats (:func:`_floats._integers`), and Q is
    rounded once, so no cancellation reaches it and nothing overflows: the
    factor is within ``Q u / 4`` relative of that of the floats, where
    numpy's ``solve`` was up to 4.4e-12 off 60 digits on 300 two-mode pairs
    at squeezing 50 (this form 5e-16), and a float one-mode LDL^T 2.4e-9.
    A Q beyond float64 range gives 0.  Outside the fidelity's domain a
    ``det(V1 + V2)`` of 0 raises :class:`UnresolvableError`, and a
    negative one :class:`OverflowError` where the exp leaves float64 range."""
    if m1 == m2:
        return 1.0
    n = len(m1)
    x, m = _integers(v1 + v2 + m1 + m2)
    v1, v2, m1, m2 = x[:n * n], x[n * n:2 * n * n], x[-2 * n:-n], x[-n:]
    b = [[v1[i * n + j] + v2[i * n + j] for j in range(n)] + [m2[i] - m1[i]] for i in range(n)]
    b.append([row[n] for row in b] + [0])
    prev = 1
    for k in range(n):  # after step k, b[i][j] (i, j > k) is a minor of order k + 2
        pivot = next((i for i in range(k, n) if b[i][k]), None)
        if pivot is None:
            raise UnresolvableError("det((V1 + V2) / 2) = 0 is not positive")
        b[k], b[pivot] = b[pivot], b[k]  # flips the signs of both determinants, not Q
        for i in range(k + 1, n + 1):
            for j in range(k + 1, n + 1):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev  # exact
        prev = b[k][k]
    num, det = -b[n][n], b[n - 1][n - 1]  # 2^(m (n + 1)) det B and 2^(m n) det(V1 + V2)
    try:
        form = num / (det << m)  # int / int is correctly rounded
    except OverflowError:  # |Q| beyond float64 range
        form = sys.float_info.max if (num > 0) == (det > 0) else -sys.float_info.max
    return math.exp(-0.25 * form)


def _spectral_w(vaux, omega):
    import numpy as np

    moduli = np.abs(np.linalg.eigvals(vaux @ omega))
    moduli.sort()
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
    Delta that is not positive raises :class:`UnresolvableError`."""
    x, e = _scaled_det(0.5 * p1 + 0.5 * p2, 0.5 * r1 + 0.5 * r2, 0.5 * q1 + 0.5 * q2, 0.0)
    if not 0.0 < x < math.inf:  # never for the thermal pairs of the bounds
        half = 2.0 ** e  # exact; overflows to inf in the product, with no warning
        raise UnresolvableError(f"det((V1 + V2) / 2) = {x * half * half:g} is not positive")
    e += 1  # Delta = x 4^e
    x1, e1 = _scaled_det(p1, r1, q1, 1.0)
    x2, e2 = _scaled_det(p2, r2, q2, 1.0)
    u = math.ldexp(math.sqrt(max(x1, 0.0)) * math.sqrt(max(x2, 0.0)), e1 + e2 - e)
    # 2^-e before the division: 2 (hypot + u) / x alone is F^2 2^e, beyond float64
    # range for e near 1024
    return math.sqrt(2.0 * math.ldexp(math.hypot(math.sqrt(x), u) + u, -e) / x)


def gaussian_fidelity(s1, s2) -> float:
    """Bures fidelity ``F(rho1, rho2) = Tr sqrt(sqrt(rho2) rho1 sqrt(rho2))``
    for Gaussian states of the same mode count (1 or 2).

    Symmetric in its arguments, exactly 1 for states whose means and CMs
    are equal entry for entry, and includes the Gaussian factor for unequal
    mean vectors, for one and two modes the exact quadratic form of
    :func:`_mean_factor`.  One mode is the closed form of the module
    docstring, with no spectral pass, on the states' plain floats (no
    numpy); it is exactly symmetric, and CMs whose products leave float64
    range are scaled by exact powers of two.  For two modes, when either
    state is pure (``s1.is_pure() or s2.is_pure()``, each decided on plain
    floats from the exact invariants of its CM) it is the Gaussian overlap;
    otherwise the general formula.
    Where float64 cannot resolve the pair, a ``det((V1 + V2) / 2)`` that
    rounds to a value that is not positive or a ``V1 + V2`` that numpy's
    ``solve`` finds singular, every route raises :class:`UnresolvableError`.
    Two modes have no scaling: ``det(V1 + V2)``, the auxiliary matrix or
    the product of its spectrum beyond float64 range (``1e100 I`` against
    ``3e100 I``) raises :class:`OverflowError`, with no RuntimeWarning.
    Its floats are numpy's, call for call (``det``, ``solve``, ``V2 Omega
    V1``, ``eigvals``, the product over w): OpenBLAS's dgemm fuses multiply
    and add, so plain-float products round differently, and which inputs of
    ``two_round_demo`` raise hangs on these bits (see ``apply_affine``).
    """
    if s1.modes != s2.modes:
        raise InvalidDimensionError(
            f"mode counts differ: {s1.modes} vs {s2.modes}")
    n = s1.modes
    if s1._cm == s2._cm and s1._mean == s2._mean:
        return 1.0  # the same state; the formulas below round to about 1
    mean = _mean_factor(s1._mean, s2._mean, s1._cm, s2._cm)
    if n == 1:
        (p1, r1, _, q1), (p2, r2, _, q2) = s1._cm, s2._cm
        return min(_one_mode_fidelity(p1, r1, q1, p2, r2, q2) * mean, 1.0)
    import numpy as np

    v1, v2 = np.array(s1._cm + s2._cm).reshape(2, 4, 4)
    with np.errstate(over="ignore", invalid="ignore"):  # out of range raises below
        vsum = v1 + v2
        det = np.linalg.det(vsum / 2.0)
        if not math.isfinite(det):
            raise OverflowError("two-mode fidelity beyond float64 range: "
                                "det((V1 + V2) / 2) overflows")
        if not det > 0.0:  # V1 + V2 singular to roundoff: TMSVs at mu >= 1e8
            raise UnresolvableError(f"det((V1 + V2) / 2) = {det:g} is not positive")
        if s1.is_pure() or s2.is_pure():
            # overlap route: F^2 = Tr(rho sigma) when one state is pure
            overlap = 1.0 / np.sqrt(det)
            return min(float(np.sqrt(overlap)) * mean, 1.0)
        omega = symplectic_form(n)
        try:
            vaux = omega.T @ np.linalg.solve(vsum, omega + v2 @ omega @ v1)
        except np.linalg.LinAlgError as exc:
            raise UnresolvableError(f"V1 + V2 is singular in float64: {exc}") from None
        ftot4 = math.inf
        if np.isfinite(vaux).all():
            w = _spectral_w(vaux, omega)
            ftot4 = ((w + np.sqrt(w * w - 1.0)) ** 2).prod()
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
    f = _real(f, "fidelity")
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0, 1], got {f}")
    return BoundsPair(lower=2.0 * (1.0 - f), upper=2.0 * math.sqrt(max(1.0 - f * f, 0.0)))


def fid_output_identity(mu_tilde: float, mu: float) -> float:
    """Fidelity between a two-mode squeezed vacuum of variance ``mu_tilde``
    and its image under a ``mu``-resource teleporter acting on one arm.

    Closed form ``F = [1 + mu_tilde xi(mu) / 2]^{-1/2}``, the Gaussian overlap
    of the pure input with the output whose second diagonal block is raised
    by xi.  Scales as O(mu_tilde^{-1/2}) at fixed mu and as 1 - O(1/mu) at
    fixed mu_tilde: the two iterated limits disagree.
    """
    mu_tilde = _real(mu_tilde, "mu_tilde")
    if not (math.isfinite(mu_tilde) and mu_tilde >= 1.0):
        raise DomainError(f"mu_tilde must be finite and >= 1, got {mu_tilde}")
    return 1.0 / math.sqrt(1.0 + mu_tilde * bk_added_noise(mu) / 2.0)


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
    gamma, omega = _real(gamma, "gamma"), _real(omega, "thermal variance")
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    r = _frame_r(r)
    inv = 1.0 / r  # products, not ``**``: libm pow raises OverflowError
    return _thermal_pair_fidelity(omega, omega + gamma * (r * r), omega + gamma * (inv * inv))


def fid_env_A2(xi: float, omega: float, a: float, c: float) -> float:
    """Environmental fidelity for the rank-one-transmission class: thermal
    state of variance omega against ``diag(xi (a^2 + c^2) + omega, omega)``,
    bit for bit as :func:`fid_env_C`."""
    xi, omega = _real(xi, "xi"), _real(omega, "thermal variance")
    if not xi >= 0.0:
        raise DomainError(f"xi must be non-negative, got {xi}")
    a, c = _frame_row(a, c)
    return _thermal_pair_fidelity(omega, xi * (a * a + c * c) + omega, omega)


def b1_gamma(a: float, c: float, xi: float) -> float:
    """Leading coefficient of ``F^4 ~ gamma / mu_tilde`` for the witness that
    defeats uniform convergence of the unit-rank-noise class.

    In the vacuum-variance-1 convention used throughout,

        gamma = 2 (a^2 + c^2 + xi) / [xi (a^2 + c^2 + xi/2)^2],

    where (a, c) is the first row of the input-frame symplectic and xi the
    teleporter's added noise; ``F^4 mu_tilde`` of the witness closed form
    approaches it with a relative correction O(1/mu_tilde).

    In integers from the exact ratios ``a = n_a/d_a``, ``c = n_c/d_c`` and
    ``xi = p/q``, with ``a^2 + c^2 = num/den``, gamma is
    ``8 (num q + p den) den q^2 / [p (2 num q + p den)^2]``, rounded once by
    the correctly rounded ``int / int``: a gamma below float64 range rounds
    to a subnormal or 0, and one beyond it raises :class:`OverflowError`.
    """
    xi = _real(xi, "xi")
    if not 0.0 <= xi < math.inf:
        raise DomainError(f"xi must be finite and non-negative, got {xi}")
    if xi == 0.0:
        raise SingularCoefficientError("gamma diverges at xi = 0 (exact simulation)")
    a, c = _frame_row(a, c)
    (n_a, d_a), (n_c, d_c), (p, q) = (a.as_integer_ratio(), c.as_integer_ratio(),
                                      xi.as_integer_ratio())
    num, den = (n_a * d_c) ** 2 + (n_c * d_a) ** 2, (d_a * d_c) ** 2
    try:
        return 8 * (num * q + p * den) * den * q * q / (p * (2 * num * q + p * den) ** 2)
    except OverflowError:
        raise OverflowError(f"gamma beyond float64 range at xi = {xi:g}") from None


# Outward rounding of the B2 and environmental ``sqrt(1 - F^2)``, so that a bound ``2 sqrt(1 - F^2)`` never falls under the
# exact value.  2^-45 = 256u (u = 2^-53) exceeds the float64 rounding of
# either kernel, whose operations all act on positive terms: the ~25
# operations of _b2_root_infidelity; for
# _env_root_infidelity, about 80u in 1 - F^2 from its ~40 operations and
# 30u from its inputs (xi within 4u of exact at every mu >= 1, then gamma and
# r^2, their errors at most doubled in 1 - F^2), halved by the square root.
# Unrounded, the B2 bound was measured at most 7.2e-16 relative off the exact
# limit in 3,000 draws (mu in [1.1, 1e300], xi' in [0.05, 2], r in [0.5, 2]),
# and the environmental bound at most 6.6e-16
# off 60 digits in 5,000 draws (mu in [1.1, 1e150], nbar in [0, 5], 1e8 or
# 1e100, all four classes).
_ROUND_UP = 1.0 + 2.0 ** -45


def _b2_root_infidelity(xis: list, xi_prime: float, r: float) -> list:
    """``sqrt(1 - F^2)`` for the additive-noise class in the transparency
    limit tau -> 1, one per added noise xi of ``xis``, with F the fidelity of
    :func:`fid_b2_asymptotic`.

    With ``F^2 = 4 num / den``, ``den - 4 num`` is rationalized to
    ``(den^2 - 16 num^2) / (den + 4 num)``.  Dividing num and den by
    ``r^2 / u``, where ``u = 1 / (r^2 + r^-2) <= 1/2``, gives

        1 - F^2 = x^2 [4 y^2 (1 - 2 u^2) + u (4 x y + u x^2)] / (D (D + 4 N)),
        D = 2 x y + u (x^2 + 4 y^2),
        N = y sqrt(u (x y + u (x^2 + y^2))),

    homogeneous of degree 0 in ``(x, y) = (xi, xi') / max(xi, xi')``: sums of
    positive terms, so nothing cancels, and one of x and y is 1.  The root is
    ``x sqrt(top) / (sqrt(D) sqrt(D + 4 N))``, with ``sqrt(top)`` a
    ``hypot`` of ``2 y sqrt(1 - 2 u^2)``, ``2 sqrt(u x y)`` and ``u x``, so
    that the ``xi^2`` and ``xi xi'`` of the unscaled form, which underflow
    from mu of about 1e154, are never formed: a term that underflows is never
    the largest of its sum, and ``D >= 2 x y`` is positive.  Each root is
    rounded up by 2^-45 relative and capped at 1.  ``r`` is the checked frame
    of :func:`teleportation._frame_r`; u and its roots are formed once.
    """
    sqrt, hypot = math.sqrt, math.hypot
    m = min(r, 1.0 / r)  # F is symmetric under r -> 1/r
    q = m * m
    u = q / (1.0 + q * q)
    root_u, root_v = sqrt(u), sqrt(1.0 - 2.0 * u * u)
    roots = []
    for xi in xis:
        k = max(xi, xi_prime)
        x, y = xi / k, xi_prime / k
        d = 2.0 * x * y + u * (x * x + 4.0 * y * y)
        n = y * root_u * sqrt(x * y + u * (x * x + y * y))
        top = hypot(2.0 * y * root_v, 2.0 * root_u * sqrt(x) * sqrt(y), u * x)
        root = x * top / sqrt(d) / sqrt(d + 4.0 * n) * _ROUND_UP
        roots.append(root if root < 1.0 else 1.0)
    return roots


def _env_root_infidelity(weights: list, k_alpha: float, k_beta: float,
                         nbar: float) -> list:
    """``sqrt(1 - F^2)``, rounded up by 2^-45 relative, one per weight g of
    ``weights``, for F the fidelity of the thermal state ``omega I``,
    ``omega = 2 nbar + 1``, against ``diag(omega + alpha, omega + beta)`` with
    ``alpha, beta = g k_alpha, g k_beta >= 0``: the environmental pair of the
    C_Att, C_Amp and D forms (g = gamma, k = ``r^2`` and ``1 / r^2``) and of
    A2 (g = xi, k = ``a^2 + c^2`` and 0).

    Scutaru's ``F^2 = 2 / (P - L)`` of the module docstring, with
    ``P = sqrt(Delta + Lambda)`` and ``L = sqrt(Lambda)``, gives
    ``1 - F^2 = (P - L - 2) / (P - L)``; rationalized twice, with
    ``a = omega^2 - 1`` (Banchi, Braunstein & Pirandola, PRL 115, 260501
    (2015), for the fidelity; Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 1, for the rationalization),

        1 - F^2 = num (P + L) / [(Delta - 4 + 4 L) (P + L + 2) Delta],
        num = 4 omega^2 (alpha^2 + beta^2)
              + alpha beta (8 + 4 omega (alpha + beta) + alpha beta),
        Delta - 4 = 4 a + 2 omega (alpha + beta) + alpha beta,
        Lambda = a (a + omega (alpha + beta) + alpha beta),

    sums of positive terms: nothing cancels.  All is divided by omega^4,
    with ``p, q = alpha / omega, beta / omega``, ``w = omega^-2`` and
    ``a / omega^2 = (2 nbar / omega) ((2 nbar + 2) / omega)`` (from nbar,
    which a rounded omega loses below 1e-16), so nothing overflows at
    nbar = 1e100; omega, w and ``a / omega^2`` are formed once.  The root is
    ``sqrt(s) sqrt(rest)`` of ``s = p + q``, so that a 1 - F^2 below
    float64's normal range (a bound under 3e-154) does not underflow.  The
    three factors of ``rest`` are at most 1/2, 3/2 and 1, so
    ``1 - F^2 <= 3 s / 4``: where s underflows to 0 the result is 2^-537
    (0 for equal states).  Where a product leaves float64 range
    (F^2 < 1e-38, e.g. ``r^2`` beyond 1e308) it is 1, its upper limit.
    """
    sqrt = math.sqrt
    omega = 2.0 * nbar + 1.0
    v = 1.0 / omega
    w = v * v
    a = (2.0 * nbar * v) * ((2.0 * nbar + 2.0) * v)
    a4, w2, w8 = 4.0 * a, 2.0 * w, 8.0 * w
    roots = []
    for g in weights:
        alpha, beta = g * k_alpha, g * k_beta
        p, q = alpha / omega, beta / omega
        s, pq = p + q, p * q
        if not s > 0.0:  # p + q below 2^-1074, and 1 - F^2 <= 3 s / 4
            roots.append(0.0 if alpha + beta == 0.0 else 2.0 ** -537)
            continue
        ps, qs = p / s, q / s
        delta = 4.0 + 2.0 * s + pq
        lam = a * (a + s + pq)
        root_lam = sqrt(lam)
        big = sqrt(w * delta + lam) + root_lam
        num = 4.0 * (ps * ps + qs * qs) + ps * qs * (w8 + pq + 4.0 * s)
        rest = s / (a4 + 2.0 * s + pq + 4.0 * root_lam) * (num / delta) * (big / (big + w2))
        root = sqrt(s) * sqrt(rest) * _ROUND_UP
        roots.append(root if root < 1.0 else 1.0)  # NaN, too
    return roots


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
    xi, xi_prime = _real(xi, "xi"), _real(xi_prime, "xi_prime")
    if not (0.0 < xi < math.inf and 0.0 < xi_prime < math.inf):
        raise DomainError("both noise parameters must be positive and finite")
    root = _b2_root_infidelity([xi], xi_prime, _frame_r(r))[0]
    return math.sqrt((1.0 - root) * (1.0 + root))


def _b1_witness_infidelity(mu_tildes: list, xi: float, a: float, c: float) -> list:
    """``(1 - F^2, F^2)`` for the unit-rank-noise witness, one pair per
    mu_tilde of the float list ``mu_tildes``: F is the fidelity
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
    and xi.  S S^T and the sums that do not depend on m are formed once.
    Squares are products, never a ``**`` (libm ``pow`` misrounds some and
    raises ``OverflowError`` on Python floats): an overflowing row gives a
    non-finite pair, which the caller rejects.
    """
    sqrt = math.sqrt
    d, b = (0.0, 1.0 / a) if a != 0.0 else (-1.0 / c, 0.0)
    p, q, t = a * a + c * c, a * d + c * b, d * d + b * b
    w = 2.0 * p + xi
    pxi, ww, p8, qsq = p + xi, w * w, 8.0 * p, q * q
    k_dd, k_qq = 2.0 * xi * (p + t) + 4.0, 2.0 * t * xi + 2.0
    k_pp, k_pu = 2.0 * xi * (w + t) + 2.0, xi * (5.0 * p + xi + 4.0 * t) + 8.0
    k_puu, k_rr, k_ru = 2.0 * p * xi + 8.0, 4.0 * xi * (p + t) * w, p * p + t * t
    pairs = []
    for m in mu_tildes:
        u = 1.0 / m
        g = (m - 1.0) * u
        s = xi + u
        x, v = xi / s, u / s
        u2, u4 = 2.0 * u, 4.0 * u
        xp = x * pxi
        dd = x * w + v * (k_dd + u4)
        pp = xp + v * (k_pp + u * (k_pu + u * k_puu))
        qq = xp + v * (k_qq + u * xi * (pxi + u2 * p))
        rr = x * ww + v * (k_rr + u4 * xi * (k_ru + 2.0 * (g + qsq))
                           + p8 * g * (1.0 + u) * (1.0 + u2))
        ss = sqrt(pp) + sqrt(qq)
        scaled = sqrt(2.0 * v) * ss
        pairs.append((x * rr / (dd * (1.0 - 8.0 * u * u * v / (ss * ss)) * (dd + scaled)),
                      scaled / dd))
    return pairs
