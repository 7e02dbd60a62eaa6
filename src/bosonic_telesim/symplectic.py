"""Phase-space linear algebra for Gaussian states of one and two bosonic modes.

Conventions used throughout the package: quadratures are ordered
``(q1, p1, ..., qn, pn)``, the commutator is ``[x_l, x_m] = 2i Omega_lm`` and
the vacuum covariance matrix (CM) is the identity.  A CM ``V`` describes a
physical state iff ``V + i Omega >= 0``, equivalently all symplectic
eigenvalues satisfy ``nu_k >= 1`` with ``V > 0``.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

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


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_even(dim: int) -> int:
    if dim < 2 or dim % 2 != 0:
        raise InvalidDimensionError(f"dimension must be a positive even integer, got {dim}")
    return dim // 2


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def symplectic_form(n: int):
    """Read-only 2n x 2n symplectic form: a direct sum of [[0, 1], [-1, 0]] blocks."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimensionError(f"mode count must be a positive integer, got {n!r}")
    return _omega(int(n))


@functools.lru_cache(maxsize=None)
def _omega(n: int) -> np.ndarray:
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.setflags(write=False)
    return omega


@functools.lru_cache(maxsize=None)
def _i_omega(n: int) -> np.ndarray:
    """Read-only ``i Omega`` of n modes."""
    i_omega = 1j * _omega(n)
    i_omega.setflags(write=False)
    return i_omega


_SYMPLECTIC = 1e-10


def is_symplectic(m, tol: float | None = None) -> bool:
    """True iff ``max|M Omega M^T - Omega| <= tol`` (default 1e-10)."""
    m = _as_matrix(m)
    n = _check_even(m.shape[0])
    if tol is None:
        tol = _SYMPLECTIC
    omega = symplectic_form(n)
    return bool(np.max(np.abs(m @ omega @ m.T - omega)) <= tol)


# roundoff of the smallest eigenvalue of M + i w Omega per unit of max|M|, with
# margin: eigvalsh on valid inputs up to mu = 1e12 reaches about 6 eps, the
# 2x2 closed form of _checked about 1 eps.
_ROUNDOFF = 64.0 * np.finfo(float).eps


def _self_check_tol(scale: float) -> float:
    """Threshold of an absolute self-check on a quantity of magnitude
    ``scale``: 1e-12 at unit scale, float64 roundoff ``64 eps scale`` beyond."""
    return max(1e-12, _ROUNDOFF * float(scale))


# the default tolerances of _checked: symmetry, and eigenvalue slack at unit scale
_SYMMETRY = 1e-12
_UNCERTAINTY = 1e-9


def _checked(m: np.ndarray, tol: float | None, w: float | None = None,
             what: str = "covariance matrix") -> np.ndarray:
    """The one symmetry and physicality test, on the scale
    ``s = max(1, max|M|)``; w = 1 for a CM, ``1 - det T`` for a channel.  M
    must be symmetric within ``1e-12 s``, and ``M + i w Omega`` must have no
    eigenvalue below ``-e`` with ``e = max(1e-9, 64 eps s)``: the tolerance at
    unit scale, the eigenvalue's roundoff beyond.  A float ``tol`` replaces
    both 1e-12 and 1e-9.  In a CM's thermal frame the band is
    ``nu_min >= 1 - e``, and single-mode squeezing r widens it by at most
    ``(r^2 + r^-2) / 2``.  Returns the symmetrized M.

    A 2x2 M is decided on plain floats: the smallest eigenvalue of the
    Hermitian ``[[p, r + i w], [r - i w, q]]`` is
    ``(p + q)/2 - hypot((p - q)/2, r, w)``, in error by at most about
    ``eps s`` near the threshold (0.98 eps s at most against 50 digits on
    30,000 random-frame draws; eigvalsh 3.2 eps s), and the symmetrized M is
    built from the same floats, bit-identical to ``0.5 (M + M^T)`` wherever
    that does not overflow.  Larger M take one ``eigvalsh``, since a 4x4
    closed form would not be backward stable; they are halved before
    ``M - M^T`` and ``M + M^T``, which is bit-identical outside the
    subnormal range and cannot overflow."""
    single = m.shape == (2, 2)
    if single:
        (p, b), (c, q) = m.tolist()
        finite = all(map(math.isfinite, (p, b, c, q)))  # entry by entry: max() drops NaN
        scale = max(abs(p), abs(b), abs(c), abs(q)) if finite else math.nan
    else:
        scale = float(abs(m).max())
        half = 0.5 * m  # halved first: M +/- M^T overflows for entries near 1e308
    if not (math.isfinite(scale) and math.isfinite(0.0 if w is None else w)):
        raise ValidationError(f"{what} is not finite")
    scale = max(1.0, scale)
    symmetry, uncertainty = (_SYMMETRY, _UNCERTAINTY) if tol is None else (tol, tol)
    if (abs(b - c) if single
            else 2.0 * float(abs(half - half.T).max())) > symmetry * scale:
        raise ValidationError(f"{what} is not symmetric within tolerance "
                              f"{symmetry:g} max(1, max|M|)")
    if single:
        r = 0.5 * (b + c)
        if math.isinf(r):  # b + c beyond float64 range
            r = 0.5 * b + 0.5 * c
        m = np.array(((p, r), (r, q)))
    else:
        m = half + half.T
    if w is not None:
        if single:
            lam = 0.5 * p + 0.5 * q - math.hypot(0.5 * p - 0.5 * q, r, w)
        else:
            lam = np.linalg.eigvalsh(m + w * _i_omega(m.shape[0] // 2))[0]
        if not lam >= -max(uncertainty, _ROUNDOFF * scale):  # NaN fails too
            raise ValidationError(f"{what} is unphysical: M + i {w:.12g} Omega has "
                                  f"eigenvalue {lam:.12g} < 0")
    return m


def _sqrt_form(cms, tol: float | None):
    """The one spectral kernel, on a sequence of same-size matrices (a single
    matrix is a stack of one): each V is checked in order, then one ``eigh``
    of the stack gives ``R = V^{1/2}`` (eigenvalues within
    ``64 eps max(1, max|V|)`` of 0 clipped to 0) and ``K = R Omega R``,
    similar to ``Omega V``, so the Hermitian ``i K`` has eigenvalues
    ``+/- nu_k``.  Returns the stacks ``(V, lam, U, K)``, each slice
    bit-identical to a stack of one; :func:`_require_psd` checks a slice.

    An entry may also be a :class:`GaussianState`, whose CM is taken as it
    is: it was checked and symmetrized when the state was constructed, and
    symmetrizing a symmetric matrix again returns it bit for bit."""
    v = []
    for m in cms:
        if isinstance(m, GaussianState):
            n = m.modes
            v.append(m.cm)
            continue
        m = _as_matrix(m)
        n = _check_even(m.shape[0])
        v.append(_checked(m, tol))
    if not v:
        raise InvalidDimensionError("expected at least one matrix")
    v = np.array(v)
    lam, u = np.linalg.eigh(v)
    r = (u * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ u.transpose(0, 2, 1)
    k = r @ symplectic_form(n) @ r
    return v, lam, u, 0.5 * (k - k.transpose(0, 2, 1))


def _require_psd(v: np.ndarray, lam: np.ndarray) -> None:
    """V (with ascending eigenvalues lam) has none below ``-64 eps max(1, max|V|)``."""
    if lam[0] < -_ROUNDOFF * max(1.0, float(abs(v).max())):
        raise ValidationError(f"matrix is not positive semidefinite: {lam[0]:.12g}")


def _spectra(cms, tol: float | None):
    """The symplectic spectrum (descending) of each matrix of ``cms``, from one
    ``_sqrt_form`` and one ``eigvalsh`` of the stacked ``i K``.  Each is yielded
    after its own matrix passes :func:`_require_psd`, so a caller that stops
    early leaves the later matrices unchecked."""
    v, lam, _, k = _sqrt_form(cms, tol)
    vals = np.linalg.eigvalsh(1j * k)
    # ascending, so vals[:, -1 - j] and vals[:, j] are the pair +/- nu_j
    nus = 0.5 * (vals[:, ::-1] - vals)[:, :k.shape[-1] // 2]
    for vj, lamj, nu in zip(v, lam, nus):
        _require_psd(vj, lamj)
        yield nu


def symplectic_eigenvalues(cm, tol: float | None = None):
    """Symplectic spectrum of a symmetric positive-semidefinite V, one nu per
    mode in descending order: the positive eigenvalues of the Hermitian
    ``i V^{1/2} Omega V^{1/2}``, backward stable even for V singular to roundoff.

    ``cm`` may also be a stack of same-size matrices, checked in stack order,
    for one spectrum per matrix from one spectral pass; each equals the
    spectrum of that matrix alone bit for bit.  For a valid CM the product of
    the spectrum equals ``sqrt(det V)``.  A float ``tol`` replaces the default
    tolerances of the check of V (see ``_checked``).
    """
    stack = np.ndim(cm) == 3
    nus = list(_spectra(cm if stack else (cm,), tol))
    return np.array(nus) if stack else nus[0]


def _purities(states, tol: float = 1e-9):
    """``state.is_pure(tol)`` of each state in turn, from one spectral pass
    over the stacked CMs.  The states go to ``_sqrt_form`` as they are, so
    their CMs, checked at construction, are not checked again.  Read lazily,
    ``any(_purities((s1, s2)))`` keeps the short circuit of
    ``s1.is_pure() or s2.is_pure()``: s1's error comes first, and nothing
    about s2 raises once s1 is pure."""
    return (bool(np.max(nu) <= 1.0 + tol) for nu in _spectra(states, None))


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n`` modes: mean quadrature vector and CM.

    Construction checks ``V + i Omega >= 0`` (Simon, Mukunda and Dutta) on the
    scale ``s = max(1, max|V|)``, in closed form for one mode and by one
    ``eigvalsh`` for two (see ``_checked``), at the default tolerances: V
    symmetric within ``1e-12 s``, no eigenvalue below ``-e`` with
    ``e = max(1e-9, 64 eps s)``, i.e. ``nu_min >= 1 - e`` in the
    thermal frame; single-mode squeezing r widens that band by at most
    ``(r^2 + r^-2) / 2``.  V itself has no eigenvalue below ``-e``, so a CM
    singular to roundoff (a TMSV at mu >= 1e8 in float64) constructs.  The
    mean must be finite.  Instances are immutable; the arrays are read-only.
    """

    mean: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cm = _as_matrix(self.cm)
        n = _check_even(cm.shape[0])
        if mean.shape[0] != 2 * n:
            raise InvalidDimensionError(
                f"mean has length {mean.shape[0]}, CM is {2 * n} x {2 * n}")
        cm = _checked(cm, None, 1.0)  # a fresh array: frozen, not copied
        if not all(map(math.isfinite, mean.tolist())):  # plain floats: no ufunc
            raise ValidationError("mean is not finite")
        cm.setflags(write=False)
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cm", cm)

    @property
    def modes(self) -> int:
        return self.cm.shape[0] // 2

    @classmethod
    def vacuum(cls, n: int = 1) -> "GaussianState":
        return cls(np.zeros(2 * n), np.eye(2 * n))

    def symplectic_spectrum(self):
        return symplectic_eigenvalues(self.cm)

    def is_pure(self, tol: float = 1e-9) -> bool:
        return next(_purities((self,), tol))


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

    def diagonal(self) -> np.ndarray:
        return np.diag(np.repeat(self.spectrum, 2))


def tmsv_state(mu: float) -> GaussianState:
    """Two-mode squeezed vacuum with variance parameter ``mu >= 1``.

    Diagonal blocks ``mu I`` and off-diagonal blocks ``sqrt(mu^2 - 1) Z``;
    the state is pure and reduces to a thermal state of variance ``mu`` on
    either mode.
    """
    mu = float(mu)
    if mu < 1.0:
        raise DomainError(f"TMSV variance parameter must satisfy mu >= 1, got {mu}")
    s = np.sqrt(mu * mu - 1.0)
    return GaussianState(np.zeros(4), np.array([[mu, 0.0, s, 0.0], [0.0, mu, 0.0, -s],
                                                [s, 0.0, mu, 0.0], [0.0, -s, 0.0, mu]]))


def thermal_state(omega: float) -> GaussianState:
    """Single-mode thermal state with CM ``omega I``; ``omega = 2 nbar + 1``."""
    omega = float(omega)
    if omega < 1.0:
        raise DomainError(f"thermal variance must satisfy omega >= 1, got {omega}")
    return GaussianState(np.zeros(2), omega * np.eye(2))


def apply_affine(state: GaussianState, s, d=None) -> GaussianState:
    """Affine phase-space map: mean -> S mean + d, CM -> S CM S^T."""
    mat = s.s if isinstance(s, SymplecticMatrix) else SymplecticMatrix(s).s
    if mat.shape[0] != state.cm.shape[0]:
        raise InvalidDimensionError(
            f"symplectic is {mat.shape[0]}-dimensional, state is "
            f"{state.cm.shape[0]}-dimensional")
    d = np.zeros(mat.shape[0]) if d is None else np.asarray(d, dtype=float).reshape(-1)
    if d.shape[0] != mat.shape[0]:
        raise InvalidDimensionError("displacement length does not match state dimension")
    return GaussianState(mat @ state.mean + d, mat @ state.cm @ mat.T)


def partial_trace(state: GaussianState, keep: int) -> GaussianState:
    """Reduce a two-mode state to the mode ``keep`` (0 or 1) by deleting the
    rows and columns of the other mode."""
    if state.modes != 2:
        raise InvalidDimensionError("partial_trace expects a two-mode state")
    if keep not in (0, 1):
        raise DomainError(f"keep must be 0 or 1, got {keep!r}")
    sl = slice(2 * keep, 2 * keep + 2)
    return GaussianState(state.mean[sl], state.cm[sl, sl])


def tensor_states(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state: concatenated means, block-diagonal CM."""
    na, nb = 2 * a.modes, 2 * b.modes
    cm = np.zeros((na + nb, na + nb))
    cm[:na, :na] = a.cm
    cm[na:, na:] = b.cm
    return GaussianState(np.concatenate([a.mean, b.mean]), cm)


def williamson(cm, tol: float | None = None) -> WilliamsonDecomposition:
    """Williamson decomposition of a positive-definite symmetric matrix.

    Returns ``(S, spectrum)`` with ``S V S^T = diag(nu_1, nu_1, ...)`` and the
    spectrum sorted in descending order.  The Hermitian ``i K`` of the spectral
    kernel, ``K = V^{1/2} Omega V^{1/2}``, has eigenvalues ``+/- nu_k``; each
    eigenvector ``x_k`` of ``+nu_k`` gives the column pair ``(Im x_k, Re x_k)``.
    A QR step re-orthonormalizes the pairs into Q, each ``nu_k`` is the
    Rayleigh quotient ``q_2k^T K q_2k+1`` and ``S = sqrt(nu) Q^T V^{-1/2}``;
    ``eigh``'s orthonormal eigenbasis needs no special case for degeneracy.

    Both self-checks scale with ``m = max(1, max|V|)``: the reconstruction
    residual must stay within ``1e-8 m`` and ``|S Omega S^T - Omega|`` within
    ``16 eps m``, never below the default 1e-10.  On 7,700 quasi-Choi states
    with mu from 10 to 1.3e8 the symplectic residual is at most ``0.56 eps m``.
    ``tol`` reaches only the check of V, as in :func:`symplectic_eigenvalues`.
    """
    cm, lam, u, k = (x[0] for x in _sqrt_form((cm,), tol))
    _require_psd(cm, lam)
    if lam[0] <= 0.0:
        raise ValidationError("matrix is not positive definite")
    n = cm.shape[0] // 2
    vecs = np.linalg.eigh(1j * k)[1][:, n:]  # ascending: the +nu_k come last
    pairs = np.empty((2 * n, 2 * n))
    pairs[:, 0::2], pairs[:, 1::2] = vecs.imag, vecs.real
    q = np.linalg.qr(pairs)[0]
    nus = np.sum(q[:, 0::2] * (k @ q[:, 1::2]), axis=0)  # Rayleigh quotients
    # largest nu first; a pair with a negative quotient is swapped
    order = np.argsort(-np.abs(nus))
    perm = [j for i in order
            for j in ((2 * i, 2 * i + 1) if nus[i] > 0.0 else (2 * i + 1, 2 * i))]
    nus = np.abs(nus[order])
    s = np.repeat(np.sqrt(nus), 2)[:, None] * (q[:, perm].T @ (u / np.sqrt(lam)) @ u.T)
    spectrum = tuple(float(x) for x in nus)

    scale = max(1.0, float(np.max(np.abs(cm))))
    target = np.diag(np.repeat(spectrum, 2))
    resid = np.max(np.abs(s @ cm @ s.T - target))
    if resid > 1e-8 * scale:
        raise ValidationError(f"Williamson reconstruction residual too large: {resid:g}")
    sym_tol = max(_SYMPLECTIC, 16.0 * np.finfo(float).eps * scale)
    return WilliamsonDecomposition(SymplecticMatrix(s, sym_tol), spectrum)
