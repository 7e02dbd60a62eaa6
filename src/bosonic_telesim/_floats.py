"""Plain-float rules shared by the state and channel layers: the real-number,
integer, entry, square-matrix and tolerance input rules, the self-check
threshold, the 2x2 symmetry and physicality test with the one symmetrization
rule, the exact integer ratios of floats that determinants and symplectic
spectra are rounded once from, and the read-only array views of states and
channels.  Only :func:`_readonly` imports numpy, when called, so the
single-mode channel and state layers and two-mode purity run on these alone.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import DomainError, InvalidDimensionError, ValidationError

_EPS = sys.float_info.epsilon

# slack of the physicality test per unit of max|M|, with margin over the
# roundoff of its backward stable deciders: the 2x2 closed form of _checked2
# errs by about 1 eps, and the 4x4 Cholesky pivots of symplectic._checked are
# exact outside 16 eps (s + e); also eigh's roundoff in symplectic.williamson.
_ROUNDOFF = 64.0 * _EPS

# the default tolerances of the physicality test: symmetry, and eigenvalue
# slack at unit scale
_SYMMETRY = 1e-12
_UNCERTAINTY = 1e-9


def _real(x, what: str) -> float:
    """``float(x)`` of a real number that is not a bool, else :class:`DomainError`,
    which a real beyond float64 range (an int of 10**400) raises too."""
    if isinstance(x, bool) or not isinstance(x, (float, numbers.Real)):  # float: no ABC check
        raise DomainError(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:  # no repr: a long int's may exceed the digit limit
        raise DomainError(f"{what} must lie within float64 range: {exc}") from None


def _integral(n) -> bool:
    """True iff n is an integer (int, a numpy integer or any other
    ``numbers.Integral``) that is not a bool: the rule of every count and
    index; each caller raises its own error type."""
    return not isinstance(n, bool) and isinstance(n, (int, numbers.Integral))  # int: no ABC check


def _entries(x, what: str) -> list:
    """The floats of the entries of a nested sequence or an array, row-major
    (those of numpy's ``asarray(x, dtype=float).ravel()``); an entry that is
    not a real number raises :class:`ValidationError`."""
    try:
        return [float(e) for e in _ravel(x)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must hold real numbers: {exc}") from None


def _ravel(x) -> list:
    """The entries of a nested sequence or an array, row-major (numpy's ``ravel``)."""
    x = x.tolist() if hasattr(x, "tolist") else x
    if not isinstance(x, (list, tuple)):
        return [x]
    if all(isinstance(e, float) for e in x):  # flat already, as the package's own are
        return list(x)
    return [f for e in x for f in _ravel(e)]


def _square(m, what: str = "covariance matrix", dim: int | None = None) -> tuple:
    """``(dim, entries)`` of a square matrix given as rows of numbers or as an
    array (each read by ``tolist()``): its dimension and row-major floats, those of
    numpy's ``asarray(m, dtype=float)``.  The one reader of a state's CM and a
    channel's T and N: a matrix that is not square, or not dim x dim where dim
    is given, raises :class:`InvalidDimensionError`, and an entry that is not
    a real number :class:`ValidationError`."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    if isinstance(rows, (list, tuple)):  # rows given as arrays too
        rows = [row.tolist() if hasattr(row, "tolist") else row for row in rows]
    if isinstance(rows, list) and dim in (None, len(rows)) and all(
            isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows):
        try:
            return len(rows), [float(e) for row in rows for e in row]
        except (TypeError, ValueError, OverflowError) as exc:
            if not any(isinstance(e, (list, tuple)) for row in rows for e in row):  # no stack
                raise ValidationError(f"{what} must hold real numbers: {exc}") from None
    shape = "square" if dim is None else f"{dim} x {dim}"
    raise InvalidDimensionError(f"{what} must be a {shape} matrix of rows of numbers")


def _self_check_tol(scale: float) -> float:
    """Threshold of an absolute self-check on a quantity of magnitude
    ``scale``: 1e-12 at unit scale, float64 roundoff ``64 eps scale`` beyond."""
    return max(1e-12, _ROUNDOFF * float(scale))


def _readonly(x, dim: int | None = None):
    """A fresh read-only float array of x, dim x dim where dim is given."""
    import numpy as np

    a = np.array(x, dtype=float)
    if dim is not None:
        a = a.reshape(dim, dim)
    a.setflags(write=False)
    return a


def _mid(x: float, y: float) -> float:
    """The one symmetrization rule: ``0.5 (x + y)``, or ``0.5 x + 0.5 y`` where
    ``x + y`` leaves float64 range; exact where x = y, subnormals too, so a
    symmetrized matrix is kept bit for bit by a copy."""
    m = 0.5 * (x + y)
    return 0.5 * x + 0.5 * y if math.isinf(m) else m


def _check_tol(tol) -> None:
    """The one rule for ``tol``: None, or a real non-bool in ``[0, 0.5)``; at
    0.5 the tau = 0 and tau = 1 bands of ``channels._tau_region`` meet.  Every
    ``tol`` consumer meets it in the physicality test first."""
    if tol is not None and not 0.0 <= _real(tol, "tolerance") < 0.5:  # NaN fails too
        raise DomainError(f"tolerance must be None or a real number in [0, 0.5), got {tol!r}")


def _checked2(m: tuple, tol: float | None, w: float | None = None,
              what: str = "covariance matrix") -> tuple:
    """The test of ``symplectic._checked`` for the 2x2 ``M = [[p, b], [c, q]]``
    given as the plain floats ``m = (p, b, c, q)``; returns ``(p, r, q)`` of
    the symmetrized M, ``r = (b + c)/2`` by :func:`_mid`.  On the scale
    ``s = max(1, max|M|)``, M must be finite and symmetric within ``1e-12 s``,
    and with w given the smallest eigenvalue of the Hermitian
    ``[[p, r + i w], [r - i w, q]]``, ``(p + q)/2 - hypot((p - q)/2, r, w)``,
    must be at least ``-max(1e-9, 64 eps s)``; a float ``tol`` replaces both
    1e-12 and 1e-9.
    That closed form is in error by at most about ``eps s`` near the
    threshold (0.98 eps s at most against 50 digits on 30,000 random-frame
    draws; eigvalsh 3.2 eps s)."""
    _check_tol(tol)
    p, b, c, q = m
    if not (all(map(math.isfinite, m)) and math.isfinite(0.0 if w is None else w)):
        raise ValidationError(f"{what} is not finite")
    scale = max(1.0, abs(p), abs(b), abs(c), abs(q))
    symmetry, uncertainty = (_SYMMETRY, _UNCERTAINTY) if tol is None else (tol, tol)
    if abs(b - c) > symmetry * scale:
        raise ValidationError(f"{what} is not symmetric within tolerance "
                              f"{symmetry:g} max(1, max|M|)")
    r = _mid(b, c)
    if w is not None:
        lam = 0.5 * p + 0.5 * q - math.hypot(0.5 * p - 0.5 * q, r, w)
        if not lam >= -max(uncertainty, _ROUNDOFF * scale):  # NaN fails too
            raise ValidationError(f"{what} is unphysical: M + i {w:.12g} Omega has "
                                  f"eigenvalue {lam:.12g} < 0")
    return p, r, q


def _det(a: float, b: float, c: float, d: float) -> float:
    """``a d - b c``, rounded once from its exact value, which is formed from
    the integer ratios of the floats (as ``capacity._phi`` forms its gap).  A
    value beyond float64 range is the inf of its sign; a non-finite entry
    gives the float expression's inf or NaN."""
    if not all(map(math.isfinite, (a, b, c, d))):
        return a * d - b * c
    (na, da), (nb, db), (nc, dc), (nd, dd) = (x.as_integer_ratio() for x in (a, b, c, d))
    num = na * nd * db * dc - nb * nc * da * dd
    try:
        return num / (da * dd * db * dc)  # int / int is correctly rounded
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _integers(xs) -> tuple:
    """``(ints, m)`` with each finite float of xs equal to ``int / 2^m``
    exactly: the integer ratios over their common denominator, the largest
    one, since each is a power of 2."""
    ratios = [x.as_integer_ratio() for x in xs]
    k = max(den for _, den in ratios)
    return [num * (k // den) for num, den in ratios], k.bit_length() - 1


def _quotient(num: int, shift: int) -> float:
    """``num / 2^shift``, rounded once: ``int / int`` and int-to-float
    conversion are correctly rounded."""
    return num / (1 << shift) if shift >= 0 else float(num << -shift)


def _scaled(num: int, shift: int, p: int) -> tuple:
    """``(y, e)`` with ``num / 2^shift = y 2^(p e)`` and y rounded once, for
    ``num >= 0``: e brings a positive y into ``[2^-p, 2)``, so no value beyond
    or below float64 range is rounded."""
    e = (num.bit_length() - shift) // p
    return _quotient(num, shift + p * e), e


def _nus(x) -> tuple:
    """The symplectic spectrum ``(nu_1, ..., nu_n)``, descending, of the
    symmetric 2x2 or 4x4 V given as its row-major finite floats (the upper
    triangle is read), from invariants of those floats formed exactly in
    integers (:func:`_integers`) and each rounded once (:func:`_scaled`).

    One mode has ``nu = sqrt(det V)``.  Two modes, ``V = [[A, C], [C^T, B]]``,
    have ``Delta = det A + det B + 2 det C = nu_1^2 + nu_2^2`` and
    ``det V = nu_1^2 nu_2^2`` (Serafini, Illuminati and De Siena, J. Phys. B
    37, L21 (2004)), so ``nu_1^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2`` and
    ``nu_2 = sqrt(det V) / nu_1``: sums and products of non-negative terms,
    nothing cancels, and each nu is within a few eps relative of that of the
    floats.  The discriminant and det V, exact, are negative only for a V
    that is not positive semidefinite, within the slack of the physicality
    test; they are clamped at 0, a Delta that is not positive gives
    ``(0, 0)``, and nu_2 is capped at nu_1.  Delta and det V are scaled by
    ``4^e`` and ``16^f`` into float64 range and the spectrum scaled back, so
    a nu beyond that range raises :class:`OverflowError` and nothing warns.
    """
    if len(x) == 4:
        (p, r, q), m = _integers(x[:2] + x[3:])
        y, e = _scaled(max(p * q - r * r, 0), 2 * m, 2)
        return (math.ldexp(math.sqrt(y), e),)
    (a, b, c, d, f, g, h, i, j, l), m = _integers(x[:4] + x[5:8] + x[10:12] + x[15:])
    # 2x2 minors of rows 0, 1 (s) and of rows 2, 3 (t), by their column pairs
    s01, s02, s03, s12, s13, s23 = (a * f - b * b, a * g - c * b, a * h - d * b,
                                    b * g - c * f, b * h - d * f, c * h - d * g)
    t02, t03, t12, t13, t23 = (c * j - i * d, c * l - j * d, g * j - i * h, g * l - j * h,
                               i * l - j * j)
    det = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * s23  # Laplace
    delta = s01 + t23 + 2 * s23  # det A + det B + 2 det C; C's minor is s23
    if delta <= 0:
        return 0.0, 0.0
    y, e = _scaled(delta, 2 * m, 2)
    disc = _quotient(max(delta * delta - 4 * det, 0), 4 * (m + e))  # 16^-e, as Delta's 4^-e
    hi = math.sqrt(0.5 * (y + math.sqrt(disc)))  # nu_1 2^-e
    z, k = _scaled(max(det, 0), 4 * m, 4)
    try:
        nu = math.ldexp(hi, e)
        return nu, min(math.ldexp(math.sqrt(z) / hi, 2 * k - e), nu)
    except OverflowError:
        raise OverflowError("symplectic spectrum beyond float64 range") from None
