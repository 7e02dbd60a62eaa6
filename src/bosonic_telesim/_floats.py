"""Plain-float rules shared by the state and channel layers: the real-number,
entry and tolerance input rules, the self-check threshold and the 2x2
symmetry and physicality test.  Nothing here imports numpy, so the
single-mode channel and state layers run on these alone.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import DomainError, ValidationError

_EPS = sys.float_info.epsilon

# slack of the physicality test per unit of max|M|, with margin over the
# roundoff of its backward stable deciders: the 2x2 closed form of _checked2
# errs by about 1 eps, and the 4x4 Cholesky pivots of symplectic._checked are
# exact outside 16 eps (s + e); also eigh's roundoff in the spectral kernel.
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


def _self_check_tol(scale: float) -> float:
    """Threshold of an absolute self-check on a quantity of magnitude
    ``scale``: 1e-12 at unit scale, float64 roundoff ``64 eps scale`` beyond."""
    return max(1e-12, _ROUNDOFF * float(scale))


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
    the symmetrized M, ``r = (b + c)/2`` (``b/2 + c/2`` where the sum leaves
    float64 range).  On the scale ``s = max(1, max|M|)``, M must be finite
    and symmetric within ``1e-12 s``, and with w given the smallest
    eigenvalue of the Hermitian ``[[p, r + i w], [r - i w, q]]``,
    ``(p + q)/2 - hypot((p - q)/2, r, w)``, must be at least
    ``-max(1e-9, 64 eps s)``; a float ``tol`` replaces both 1e-12 and 1e-9.
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
    r = 0.5 * (b + c)
    if math.isinf(r):  # b + c beyond float64 range
        r = 0.5 * b + 0.5 * c
    if w is not None:
        lam = 0.5 * p + 0.5 * q - math.hypot(0.5 * p - 0.5 * q, r, w)
        if not lam >= -max(uncertainty, _ROUNDOFF * scale):  # NaN fails too
            raise ValidationError(f"{what} is unphysical: M + i {w:.12g} Omega has "
                                  f"eigenvalue {lam:.12g} < 0")
    return p, r, q
