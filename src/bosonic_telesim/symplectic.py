"""Phase-space linear algebra for Gaussian states of one and two bosonic modes.

Conventions used throughout the package: quadratures are ordered
``(q1, p1, ..., qn, pn)``, the commutator is ``[x_l, x_m] = 2i Omega_lm`` and
the vacuum covariance matrix (CM) is the identity.  A CM ``V`` describes a
physical state iff ``V + i Omega >= 0``, equivalently all symplectic
eigenvalues satisfy ``nu_k >= 1`` with ``V > 0``.

A :class:`GaussianState` holds plain floats, and its CM test, its purity
and its symplectic spectrum run on them, the spectrum from exact invariants
(``_floats._nus``); numpy is imported only by the functions that build or
take arrays (the arrays of a state and of a spectrum, symplectic matrices,
:func:`williamson`), so states of one or two modes, their purity and their
channel action load no numpy at any scale, and neither does the fidelity of
one-mode states.  :func:`symplectic_eigenvalues` takes one or two modes, as
a state has; :func:`williamson` takes arrays of any number of modes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

from ._floats import (_EPS, _ROUNDOFF, _SYMMETRY, _UNCERTAINTY, _check_tol, _checked2, _entries,
                      _integral, _mid, _nus, _readonly, _real, _square)
from .errors import DomainError, InvalidDimensionError, ValidationError

__all__ = [
    "GaussianState",
    "SymplecticMatrix",
    "WilliamsonDecomposition",
    "symplectic_form",
    "is_symplectic",
    "symplectic_eigenvalues",
    "williamson",
    "tmsv_state",
    "thermal_state",
    "apply_affine",
    "partial_trace",
    "tensor_states",
]


def _as_matrix(m):
    import numpy as np

    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        _square(m, "matrix")  # ragged: InvalidDimensionError; not real: ValidationError
        raise ValidationError(f"matrix must hold real numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_even(dim: int) -> int:
    if dim < 2 or dim % 2 != 0:
        raise InvalidDimensionError(f"dimension must be a positive even integer, got {dim}")
    return dim // 2


def symplectic_form(n: int):
    """Read-only 2n x 2n symplectic form: a direct sum of [[0, 1], [-1, 0]] blocks."""
    if not _integral(n) or n < 1:
        raise InvalidDimensionError(f"mode count must be a positive integer, got {n!r}")
    return _omega(int(n))


@functools.lru_cache(maxsize=None)
def _omega(n: int):
    import numpy as np

    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.setflags(write=False)
    return omega


_SYMPLECTIC = 1e-10


def is_symplectic(m, tol: float | None = None) -> bool:
    """True iff ``max|M Omega M^T - Omega| <= tol`` (default 1e-10)."""
    import numpy as np

    m = _as_matrix(m)
    n = _check_even(m.shape[0])
    if tol is None:
        tol = _SYMPLECTIC
    omega = symplectic_form(n)
    return bool(np.abs(m @ omega @ m.T - omega).max() <= tol)


def _cholesky_accepts(m: list, w: float, e: float) -> bool:
    """True iff the unrolled, unpivoted Cholesky factorization of
    ``H = M + e I + i w Omega``, for the symmetric 4x4 M given as its 16
    row-major floats, meets only positive pivots.  It runs in Python complex
    arithmetic on ``H / 4``, whose factor is ``L / 2`` bit for bit outside
    the subnormal range, so no diagonal entry overflows; a later overflow
    makes a pivot -inf or NaN, which fails.

    Outside ``16 eps (s + e)`` on either side of ``-e``, s = max(1, max|M|),
    this decides ``lambda_min(M + i w Omega) >= -e`` exactly.  Take Higham's
    bounds (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.) with
    ``g = gamma_(n+3) = gamma_7`` for the real ``gamma_(n+1)``: a complex
    product costs two roundings more (``sqrt(2) gamma_2 <= gamma_3``,
    section 3.6), and a complex sum, a division by the real pivot and
    ``|l|^2 = re^2 + im^2`` no more than real ones.  Let d be the largest
    diagonal entry of the float H.  Accept: a completed factorization has
    ``L L^H = H + dH``, ``|dH| <= g |L| |L^H|`` (Thm 10.5), and
    Cauchy-Schwarz with ``||l_i||^2 <= h_ii / (1 - g)`` gives ``||dH||_2 <=
    4 g d / (1 - g) < 14.01 eps d``, so ``lambda_min(H) > -14.01 eps d``.
    Reject: the factorization completes wherever ``lambda_min(D^-1 H D^-1)
    > 4 g / (1 - g)``, ``D^2 = diag(H)`` (Thm 10.7, Demmel), so wherever
    ``lambda_min(H) > 14.01 eps d``.  Rounding ``m_ii + e`` moves H by at
    most ``eps d / 2``, and ``d <= (s + e)(1 + eps)``; underflow's absolute
    errors hide in the rounding up to 16."""
    a00, a01, a02, a03, _, a11, a12, a13, _, _, a22, a23, _, _, _, a33 = m
    e, w = 0.25 * e, 0.25 * w  # each entry of M is quartered where it is read
    d = 0.25 * a00 + e
    if not d > 0.0:
        return False
    l0 = math.sqrt(d)
    l10 = complex(0.25 * a01, -w) / l0  # H_10 = m_01 - i w; column 0 below it is real
    l20, l30 = 0.25 * a02 / l0, 0.25 * a03 / l0
    d = 0.25 * a11 + e - (l10.real * l10.real + l10.imag * l10.imag)
    if not d > 0.0:
        return False
    l1 = math.sqrt(d)
    c10 = l10.conjugate()
    l21, l31 = (0.25 * a12 - l20 * c10) / l1, (0.25 * a13 - l30 * c10) / l1
    d = 0.25 * a22 + e - l20 * l20 - (l21.real * l21.real + l21.imag * l21.imag)
    if not d > 0.0:
        return False
    l32 = (complex(0.25 * a23, -w) - l30 * l20 - l31 * l21.conjugate()) / math.sqrt(d)
    d = (0.25 * a33 + e - l30 * l30 - (l31.real * l31.real + l31.imag * l31.imag)
         - (l32.real * l32.real + l32.imag * l32.imag))
    return d > 0.0


def _checked(m: list, dim: int, tol: float | None, w: float | None = None,
             what: str = "covariance matrix") -> list:
    """The one symmetry and physicality test of the dim x dim M, given as its
    row-major floats and decided on them, on the scale
    ``s = max(1, max|M|)``; w = 1 for a CM, ``1 - det T`` for a channel.  M
    must be symmetric within ``1e-12 s``, and ``M + i w Omega`` must have no
    eigenvalue below ``-e`` with ``e = max(1e-9, 64 eps s)``: the tolerance at
    unit scale, the roundoff of a backward stable test beyond.  A float
    ``tol`` replaces both 1e-12 and 1e-9.  In a CM's thermal frame the band
    is ``nu_min >= 1 - e``, and single-mode squeezing r widens it by at most
    ``(r^2 + r^-2) / 2``.  Returns the row-major floats of the symmetrized M.

    A 2x2 M is decided by :func:`_floats._checked2`.  The skew is
    ``max|M - M^T|``, and each symmetrized entry is :func:`_floats._mid` of
    an entry and its mirror, ``0.5 (M + M^T)`` wherever that does not
    overflow; the diagonal is kept as it is, so a symmetric M comes back bit
    for bit.  A 4x4 M takes one unrolled pass over its floats, with the same
    terms.  With w given a larger M is 4x4, a two-mode CM, and the Cholesky
    pivots of :func:`_cholesky_accepts` decide it at every scale, exactly
    outside a band of ``16 eps (s + e)`` around ``-e`` (a 4x4 closed form
    would not be backward stable).

    Every ``tol`` consumer meets ``tol`` here first, so this is its one
    check (:func:`_floats._check_tol`)."""
    if dim == 2:
        p, r, q = _checked2(tuple(m), tol, w, what)
        return [p, r, r, q]
    _check_tol(tol)
    if not (all(map(math.isfinite, m)) and math.isfinite(0.0 if w is None else w)):
        raise ValidationError(f"{what} is not finite")
    scale = max(1.0, max(map(abs, m)))
    if dim == 4:
        a, b, c, d, b2, f, g, h, c2, g2, k, l, d2, h2, l2, p = m
        skew = max(abs(b - b2), abs(c - c2), abs(d - d2), abs(g - g2), abs(h - h2), abs(l - l2))
        b, c, d = _mid(b, b2), _mid(c, c2), _mid(d, d2)
        g, h, l = _mid(g, g2), _mid(h, h2), _mid(l, l2)
        m = [float(a), b, c, d, b, float(f), g, h, c, g, float(k), l, d, h, l, float(p)]
    else:
        m_t = [x for j in range(dim) for x in m[j::dim]]  # the columns, row-major
        skew = max(abs(x - y) for x, y in zip(m, m_t))
        m = [_mid(x, y) for x, y in zip(m, m_t)]
    symmetry, uncertainty = (_SYMMETRY, _UNCERTAINTY) if tol is None else (tol, tol)
    if skew > symmetry * scale:
        raise ValidationError(f"{what} is not symmetric within tolerance "
                              f"{symmetry:g} max(1, max|M|)")
    if w is not None:
        e = max(uncertainty, _ROUNDOFF * scale)
        if not _cholesky_accepts(m, w, e):
            raise ValidationError(f"{what} is unphysical: M + {e:.3g} I + i {w:.12g} Omega "
                                  f"has a Cholesky pivot that is not positive")
    return m


def symplectic_eigenvalues(cm, tol: float | None = None):
    """Symplectic spectrum of a symmetric positive-semidefinite V of one or
    two modes, one nu per mode in descending order, as an array: the floats of
    ``_floats._nus``, rounded once from exact invariants of V, so a V
    singular to roundoff keeps its spectrum.  More modes raise
    :class:`InvalidDimensionError`.

    V is checked by ``_checked`` with ``w = 0``: symmetric within
    ``1e-12 s``, and no eigenvalue below ``-max(1e-9, 64 eps s)``, on the
    scale ``s = max(1, max|V|)``.  A float ``tol`` replaces both 1e-12 and
    1e-9.  For a valid CM the product of the spectrum equals ``sqrt(det V)``.
    """
    import numpy as np

    dim, x = _square(cm)
    if _check_even(dim) > 2:
        raise InvalidDimensionError(f"symplectic_eigenvalues takes one or two modes, "
                                    f"got {dim // 2}")
    return np.array(_nus(_checked(x, dim, tol, 0.0)))


class GaussianState:
    """Gaussian state of one or two modes: mean quadrature vector and CM.

    Construction checks ``V + i Omega >= 0`` (Simon, Mukunda and Dutta) on the
    scale ``s = max(1, max|V|)``, on plain floats: in closed form for one
    mode, by the Cholesky pivots of ``V + e I + i Omega`` for two (see
    ``_checked``), at the default tolerances: V symmetric within
    ``1e-12 s``, no eigenvalue below ``-e`` with ``e = max(1e-9, 64 eps
    s)``, i.e. ``nu_min >= 1 - e`` in the thermal frame; single-mode
    squeezing r widens that band by at most ``(r^2 + r^-2) / 2``.  V itself
    has no eigenvalue below ``-e``, so a CM singular to roundoff (a TMSV at
    mu >= 1e8 in float64) constructs.  The mean must be finite.  More than
    two modes raise :class:`InvalidDimensionError`.

    The state holds only the floats of its mean and of its symmetrized CM,
    row-major, in the slots ``_mean`` and ``_cm``, which the package's float
    routes read; ``mean`` and ``cm`` are fresh read-only arrays built from
    them on each read.  Instances are immutable; a copy or an unpickled state
    is built again by the constructor, so its CM is checked again.
    """

    __slots__ = ("_mean", "_cm")

    def __init__(self, mean, cm):
        mean = _entries(mean, "mean")
        dim, x = _square(cm)
        if _check_even(dim) > 2:
            raise InvalidDimensionError(f"a GaussianState has one or two modes, got {dim // 2}")
        if len(mean) != dim:
            raise InvalidDimensionError(f"mean has length {len(mean)}, CM is {dim} x {dim}")
        self._build(mean, x)

    @classmethod
    def _of(cls, mean, x) -> "GaussianState":
        """The state of the floats of a mean and of a row-major CM, of one or
        two modes, as the package derives them: the constructor's core."""
        state = object.__new__(cls)
        state._build(mean, x)
        return state

    def _build(self, mean, x) -> None:
        """The one construction core: the CM test of ``_checked``, then the mean's."""
        x = _checked(x, len(mean), None, 1.0)
        if not all(map(math.isfinite, mean)):
            raise ValidationError("mean is not finite")
        object.__setattr__(self, "_mean", tuple(mean))  # past the frozen __setattr__
        object.__setattr__(self, "_cm", tuple(x))

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def _fields(self) -> dict:
        """The row form of the floats, read by a copy, the repr and the CLI."""
        dim = len(self._mean)
        return {"mean": list(self._mean),
                "cm": [list(self._cm[i:i + dim]) for i in range(0, dim * dim, dim)]}

    def __reduce__(self):
        return type(self), tuple(self._fields().values())  # (mean, cm)

    def __repr__(self) -> str:
        return "GaussianState(mean={mean}, cm={cm})".format(**self._fields())

    mean = property(lambda self: _readonly(self._mean), doc="The mean as a read-only array.")
    cm = property(lambda self: _readonly(self._cm, len(self._mean)),
                  doc="The CM as a read-only square array.")

    @property
    def modes(self) -> int:
        return len(self._mean) // 2

    @classmethod
    def vacuum(cls, n: int = 1) -> "GaussianState":
        if not _integral(n):
            raise InvalidDimensionError(f"mode count must be an integer, got {n!r}")
        return cls((0.0,) * (2 * n), [[float(i == j) for j in range(2 * n)] for i in range(2 * n)])

    def symplectic_spectrum(self):
        """The spectrum of :func:`symplectic_eigenvalues`, of the CM as
        constructed: it was checked and symmetrized then."""
        import numpy as np

        return np.array(_nus(self._cm))

    def is_pure(self, tol: float = 1e-9) -> bool:
        """``nu_max <= 1 + tol``, with nu_max from the exact invariants of the
        CM's floats (``_floats._nus``), on plain floats at every tol.  A tol
        that is not a real number >= 0 (NaN, a bool) raises
        :class:`DomainError`."""
        tol = _real(tol, "purity tolerance")
        if not tol >= 0.0:
            raise DomainError(f"purity tolerance must be >= 0, got {tol}")
        return _nus(self._cm)[0] <= 1.0 + tol


@dataclasses.dataclass(frozen=True)
class SymplecticMatrix:
    """Real matrix S with ``S Omega S^T = Omega`` (det S = +1 follows)."""

    s: np.ndarray
    tol: dataclasses.InitVar[float | None] = None

    def __post_init__(self, tol):
        s = _as_matrix(self.s)
        if not is_symplectic(s, tol):
            raise ValidationError("matrix is not symplectic within tolerance")
        object.__setattr__(self, "s", _readonly(s))

    @property
    def modes(self) -> int:
        return self.s.shape[0] // 2


@dataclasses.dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic S and spectrum (nu_1 >= ... >= nu_n) with
    ``S V S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)``."""

    s: SymplecticMatrix
    spectrum: tuple

    def diagonal(self):
        import numpy as np

        return np.diag(np.array(self.spectrum).repeat(2))


def tmsv_state(mu: float) -> GaussianState:
    """Two-mode squeezed vacuum with variance parameter ``mu >= 1``.

    Diagonal blocks ``mu I`` and off-diagonal blocks ``sqrt(mu^2 - 1) Z``;
    the state is pure and reduces to a thermal state of variance ``mu`` on
    either mode.
    """
    mu = _real(mu, "TMSV variance parameter")
    if not 1.0 <= mu < math.inf:
        raise DomainError(f"TMSV variance parameter must be finite with mu >= 1, got {mu}")
    s = math.sqrt(mu * mu - 1.0)
    return GaussianState._of((0.0,) * 4, (mu, 0.0, s, 0.0, 0.0, mu, 0.0, -s,
                                          s, 0.0, mu, 0.0, 0.0, -s, 0.0, mu))


def thermal_state(omega: float) -> GaussianState:
    """Single-mode thermal state with CM ``omega I``; ``omega = 2 nbar + 1``."""
    omega = _real(omega, "thermal variance")
    if not 1.0 <= omega < math.inf:
        raise DomainError(f"thermal variance must be finite with omega >= 1, got {omega}")
    return GaussianState._of((0.0, 0.0), (omega, 0.0, 0.0, omega))


def apply_affine(state: GaussianState, s, d=None) -> GaussianState:
    """Affine phase-space map: mean -> S mean + d, CM -> S CM S^T.

    Both are numpy's products, whose floats the state's checks take as they
    are: OpenBLAS's dgemm fuses multiply and add, so a plain-float
    ``S V S^T`` rounds differently, and through ``two_round_demo`` that moved
    64 to 82 of the 960 inputs per seed of the benchmark's protocol pools
    across the ``ArithmeticError`` line."""
    mat = s.s if isinstance(s, SymplecticMatrix) else SymplecticMatrix(s).s
    dim = len(state._mean)
    if mat.shape[0] != dim:
        raise InvalidDimensionError(
            f"symplectic is {mat.shape[0]}-dimensional, state is {dim}-dimensional")
    d = [0.0] * dim if d is None else _entries(d, "displacement")
    if len(d) != dim:
        raise InvalidDimensionError("displacement length does not match state dimension")
    return GaussianState._of((mat @ state.mean + d).tolist(),
                             (mat @ state.cm @ mat.T).ravel().tolist())


def partial_trace(state: GaussianState, keep: int) -> GaussianState:
    """Reduce a two-mode state to the mode ``keep`` (0 or 1) by deleting the
    rows and columns of the other mode."""
    if state.modes != 2:
        raise InvalidDimensionError("partial_trace expects a two-mode state")
    if not _integral(keep) or keep not in (0, 1):
        raise DomainError(f"keep must be 0 or 1, got {keep!r}")
    k, x = 2 * int(keep), state._cm  # row-major 4x4: entry (i, j) is x[4 i + j]
    return GaussianState._of(state._mean[k:k + 2], x[5 * k:5 * k + 2] + x[5 * k + 4:5 * k + 6])


def tensor_states(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of one-mode states: concatenated means, block-diagonal CM."""
    mean, x, y, z = a._mean + b._mean, a._cm, b._cm, (0.0, 0.0)
    if len(mean) != 4:
        raise InvalidDimensionError(f"a GaussianState has one or two modes, got {len(mean) // 2}")
    return GaussianState._of(mean, x[:2] + z + x[2:] + z + z + y[:2] + z + y[2:])


# largest eigenvalue of V for which williamson's products stay in float64 range
_KERNEL_MAX = sys.float_info.max * (1.0 - 2.0 ** -20)


def williamson(cm, tol: float | None = None) -> WilliamsonDecomposition:
    """Williamson decomposition of a positive-definite symmetric matrix.

    Returns ``(S, spectrum)`` with ``S V S^T = diag(nu_1, nu_1, ...)`` and the
    spectrum sorted in descending order.  V, of any number of modes, must be
    symmetric (``_checked`` with no w: within ``1e-12 m``, or a float ``tol``)
    and positive definite.  One ``eigh`` gives ``R = V^{1/2}`` and the
    Hermitian ``i K``, ``K = R Omega R``, has eigenvalues ``+/- nu_k``; each
    eigenvector ``x_k`` of ``+nu_k`` gives the column pair ``(Im x_k, Re x_k)``.
    A QR step re-orthonormalizes the pairs into Q, each ``nu_k`` is the
    Rayleigh quotient ``q_2k^T K q_2k+1`` and ``S = sqrt(nu) Q^T V^{-1/2}``;
    ``eigh``'s orthonormal eigenbasis needs no special case for degeneracy.
    K is antisymmetrized as ``K/2 - K^T/2``, bit-identical to
    ``(K - K^T)/2`` outside the subnormal range, so ``1.7e308 I`` decomposes.
    Every entry of R is at most ``sqrt(||V||_2)`` and, by Cauchy-Schwarz,
    every partial sum of the products forming K at most ``||V||_2``, both up
    to a few eps relative; so a largest eigenvalue of V within ``2^-20`` of
    float64's largest value (or beyond it, inf) raises
    :class:`OverflowError` with no RuntimeWarning.

    Both self-checks scale with ``m = max(1, max|V|)``: the reconstruction
    residual must stay within ``1e-8 m`` and ``|S Omega S^T - Omega|`` within
    ``16 eps m``, never below the default 1e-10.  On 7,700 quasi-Choi states
    with mu from 10 to 1.3e8 the symplectic residual is at most ``0.56 eps m``.
    """
    import numpy as np

    cm = _as_matrix(cm)
    dim = cm.shape[0]
    _check_even(dim)
    cm = np.array(_checked(cm.ravel().tolist(), dim, tol)).reshape(dim, dim)
    scale = max(1.0, float(np.abs(cm).max()))
    lam, u = np.linalg.eigh(cm)
    if not lam[-1] <= _KERNEL_MAX:  # eigh's are ascending; inf fails too
        raise OverflowError("spectral kernel beyond float64 range: ||V||_2 overflows")
    if lam[0] < -_ROUNDOFF * scale:  # eigh's roundoff
        raise ValidationError(f"matrix is not positive semidefinite: {lam[0]:.12g}")
    r = (u * np.sqrt(np.maximum(lam, 0.0))) @ u.T
    k = r @ symplectic_form(dim // 2) @ r
    k = 0.5 * k - 0.5 * k.T  # K - K^T overflows near 1e308
    if lam[0] <= 0.0:
        raise ValidationError("matrix is not positive definite")
    n = cm.shape[0] // 2
    vecs = np.linalg.eigh(1j * k)[1][:, n:]  # ascending: the +nu_k come last
    pairs = np.empty((2 * n, 2 * n))
    pairs[:, 0::2], pairs[:, 1::2] = vecs.imag, vecs.real
    q = np.linalg.qr(pairs)[0]
    nus = (q[:, 0::2] * (k @ q[:, 1::2])).sum(axis=0)  # Rayleigh quotients
    # largest nu first; a pair with a negative quotient is swapped
    order = (-np.abs(nus)).argsort()
    perm = [j for i in order
            for j in ((2 * i, 2 * i + 1) if nus[i] > 0.0 else (2 * i + 1, 2 * i))]
    nus = np.abs(nus[order])
    s = np.sqrt(nus).repeat(2)[:, None] * (q[:, perm].T @ (u / np.sqrt(lam)) @ u.T)
    spectrum = tuple(float(x) for x in nus)

    target = np.diag(nus.repeat(2))
    resid = np.abs(s @ cm @ s.T - target).max()
    if resid > 1e-8 * scale:
        raise ValidationError(f"Williamson reconstruction residual too large: {resid:g}")
    sym_tol = max(_SYMPLECTIC, 16.0 * _EPS * scale)
    return WilliamsonDecomposition(SymplecticMatrix(s, sym_tol), spectrum)
