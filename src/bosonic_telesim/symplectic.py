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


_EPS = float(np.finfo(float).eps)

# roundoff of the smallest eigenvalue of M + i w Omega per unit of max|M|, with
# margin: eigvalsh on valid inputs up to mu = 1e12 reaches about 6 eps, the
# 2x2 closed form of _checked about 1 eps.
_ROUNDOFF = 64.0 * _EPS


def _self_check_tol(scale: float) -> float:
    """Threshold of an absolute self-check on a quantity of magnitude
    ``scale``: 1e-12 at unit scale, float64 roundoff ``64 eps scale`` beyond."""
    return max(1e-12, _ROUNDOFF * float(scale))


# the default tolerances of _checked: symmetry, and eigenvalue slack at unit scale
_SYMMETRY = 1e-12
_UNCERTAINTY = 1e-9

# backward error of _cholesky_accepts per unit of the largest diagonal entry d
# of the matrix it factors (derivation in its docstring): 14.5 eps d, rounded up
_CHOLESKY = 16.0 * _EPS


def _cholesky_accepts(m: np.ndarray, w: float, e: float, scale: float) -> bool:
    """True only where the eigenvalue test of :func:`_checked` would accept
    the symmetric 4x4 M: ``M + i w Omega`` has no eigenvalue below ``-e``.
    False where this cannot be shown on plain floats, and then the caller's
    ``eigvalsh`` decides.

    The certificate is an unrolled, unpivoted Cholesky factorization
    ``H = L L^H`` of ``H = M + i w Omega + (e/2) I``, in Python complex
    arithmetic, that meets only positive pivots.  Then ``L L^H`` is positive
    definite, and by Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.5, ``L L^H = H + dH`` with
    ``|dH| <= g |L| |L^H|``.  The real theorem has ``g = gamma_(n+1)``; a
    complex product has error ``sqrt(2) gamma_2 <= gamma_3`` (Higham
    section 3.6), two roundings more than a real one, while a complex sum,
    a division by the real pivot and each ``|l|^2 = re^2 + im^2`` cost no
    more than their real counterparts, so ``g = gamma_(n+3) = gamma_7``.
    With ``|L| |L^H|_ij <= ||l_i|| ||l_j||`` (Cauchy-Schwarz) and
    ``||l_i||^2 = h_ii + dh_ii <= d / (1 - g)`` for the largest diagonal
    entry ``d <= s + e/2``, every ``|dh_ij| <= g d / (1 - g)``, so
    ``||dH||_2 <= 4 g d / (1 - g) < 14.01 eps d``; rounding the diagonal
    ``m_ii + e/2`` adds ``eps d / 2``.  Hence the exact eigenvalues of
    ``M + i w Omega`` exceed ``-e/2 - 16 eps d``.  ``eigvalsh`` finds them
    within its roundoff, ``p(n) u ||H||_2`` (LAPACK Users' Guide, section
    4.7), which this module takes as ``64 eps s`` everywhere (it reaches
    about 6 eps s on valid inputs).  So the certificate applies only where
    ``e/2 > 16 eps (s + e/2) + 64 eps s``, and there the ``eigvalsh`` test
    would accept too.  At the default tolerances (``e = max(1e-9, 64 eps
    s)``) that is ``s`` below about 28,150; beyond it ``e/2`` is at most the
    eigenvalue roundoff alone, and the certificate never applies."""
    half = 0.5 * e
    if not (m.shape == (4, 4) and half > _CHOLESKY * (scale + half) + _ROUNDOFF * scale):
        return False
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (_, _, _, a33) = m.tolist()
    d = a00 + half
    if not d > 0.0:
        return False
    l0 = math.sqrt(d)
    l10 = complex(a01, -w) / l0  # H_10 = m_01 - i w; column 0 below it is real
    l20, l30 = a02 / l0, a03 / l0
    d = a11 + half - (l10.real * l10.real + l10.imag * l10.imag)
    if not d > 0.0:
        return False
    l1 = math.sqrt(d)
    c10 = l10.conjugate()
    l21, l31 = (a12 - l20 * c10) / l1, (a13 - l30 * c10) / l1
    d = a22 + half - l20 * l20 - (l21.real * l21.real + l21.imag * l21.imag)
    if not d > 0.0:
        return False
    l32 = (complex(a23, -w) - l30 * l20 - l31 * l21.conjugate()) / math.sqrt(d)
    d = (a33 + half - l30 * l30 - (l31.real * l31.real + l31.imag * l31.imag)
         - (l32.real * l32.real + l32.imag * l32.imag))
    return d > 0.0


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
    that does not overflow.  Larger M are halved before ``M - M^T`` and
    ``M + M^T``, which is bit-identical outside the subnormal range and
    cannot overflow; a 4x4 closed form would not be backward stable.  A 4x4
    M on a scale s below about 28,150 (at the default tolerances) is
    accepted on plain floats by the Cholesky certificate of
    :func:`_cholesky_accepts`, which accepts only what the eigenvalue test
    would accept.  Where that certificate cannot decide (a failed pivot, or
    beyond that scale), one ``eigvalsh`` decides as before, and its
    eigenvalue is the one an error message reports.  The decision and the
    returned matrix are the same either way."""
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
        e = max(uncertainty, _ROUNDOFF * scale)
        if single:
            lam = 0.5 * p + 0.5 * q - math.hypot(0.5 * p - 0.5 * q, r, w)
        elif _cholesky_accepts(m, w, e, scale):
            return m
        else:
            lam = np.linalg.eigvalsh(m + w * _i_omega(m.shape[0] // 2))[0]
        if not lam >= -e:  # NaN fails too
            raise ValidationError(f"{what} is unphysical: M + i {w:.12g} Omega has "
                                  f"eigenvalue {lam:.12g} < 0")
    return m


# largest eigenvalue of V for which _sqrt_form's products stay in float64 range
_KERNEL_MAX = float(np.finfo(float).max) * (1.0 - 2.0 ** -20)


def _sqrt_form(cm, tol: float | None):
    """The one spectral kernel, on a square float array (see
    :func:`_as_matrix`): V is checked, then one ``eigh`` gives
    ``R = V^{1/2}`` (eigenvalues within ``64 eps max(1, max|V|)`` of 0
    clipped to 0) and ``K = R Omega R``, similar to ``Omega V``, so the
    Hermitian ``i K`` has eigenvalues ``+/- nu_k``.  Returns ``(V, lam, U,
    K)`` once V passes :func:`_require_psd`.  K is antisymmetrized as
    ``K/2 - K^T/2``, bit-identical to ``(K - K^T)/2`` outside the subnormal
    range, so ``1.7e308 I`` has its spectrum.  Every entry of ``V^{1/2}`` is
    at most ``sqrt(||V||_2)`` and, by Cauchy-Schwarz, every partial sum of
    the products forming K at most ``||V||_2``, both up to a few eps
    relative; so a largest eigenvalue of V within ``2^-20`` of float64's
    largest value (or beyond it, inf) raises :class:`OverflowError` with no
    RuntimeWarning, and below that nothing leaves float64 range.

    ``cm`` may also be a :class:`GaussianState`, whose CM is taken as it
    is: it was checked and symmetrized when the state was constructed, and
    symmetrizing a symmetric matrix again returns it bit for bit."""
    if isinstance(cm, GaussianState):
        v = cm.cm
    else:
        _check_even(cm.shape[0])
        v = _checked(cm, tol)
    lam, u = np.linalg.eigh(v)
    if not lam[-1] <= _KERNEL_MAX:  # eigh's are ascending; inf fails too
        raise OverflowError("spectral kernel beyond float64 range: ||V||_2 overflows")
    _require_psd(v, lam)
    r = (u * np.sqrt(np.maximum(lam, 0.0))) @ u.T
    k = r @ symplectic_form(v.shape[0] // 2) @ r
    return v, lam, u, 0.5 * k - 0.5 * k.T  # K - K^T overflows near 1e308


def _require_psd(v: np.ndarray, lam: np.ndarray) -> None:
    """V (with ascending eigenvalues lam) has none below ``-64 eps max(1, max|V|)``."""
    if lam[0] < -_ROUNDOFF * max(1.0, float(abs(v).max())):
        raise ValidationError(f"matrix is not positive semidefinite: {lam[0]:.12g}")


def _spectrum(cm, tol: float | None) -> np.ndarray:
    """The symplectic spectrum (descending) of an array or a state, from
    :func:`_sqrt_form` and one ``eigvalsh`` of ``i K``."""
    k = _sqrt_form(cm, tol)[3]
    vals = np.linalg.eigvalsh(1j * k)
    # ascending, so vals[-1 - j] and vals[j] are the pair +/- nu_j; halved first, as K is
    return (0.5 * vals[::-1] - 0.5 * vals)[:k.shape[0] // 2]


def symplectic_eigenvalues(cm, tol: float | None = None):
    """Symplectic spectrum of a symmetric positive-semidefinite V, one nu per
    mode in descending order: the positive eigenvalues of the Hermitian
    ``i V^{1/2} Omega V^{1/2}``, backward stable even for V singular to roundoff.

    For a valid CM the product of the spectrum equals ``sqrt(det V)``.  A
    float ``tol`` replaces the default tolerances of the check of V (see
    ``_checked``).
    """
    return _spectrum(_as_matrix(cm), tol)


# largest max|V| at which _certainly_mixed decides: there a constructed CM has
# lambda_min(V) >= 0.87 / (4 s), see its docstring
_MIXED_SCALE = 2.0 ** 20


def _certainly_mixed(state: GaussianState) -> bool:
    """True only where ``state.is_pure()`` (default tolerance 1e-9) is False
    of a two-mode state, decided on plain floats from the invariant
    ``Delta = det A + det B + 2 det C = nu_1^2 + nu_2^2`` of its CM
    ``V = [[A, C], [C^T, B]]``; False where this cannot be shown, and then
    the spectral pass of ``is_pure`` decides.

    With ``s = max(1, max|V|) <= 2^20``: (i) the float Delta is within
    ``8 gamma_4 s^2 < 16 eps s^2`` of the exact one (three 2x2 determinants
    of terms at most ``s^2``, two more sums); (ii) the spectral pass is
    backward stable with ``||dV||_2 <= 128 eps s`` (eigh's roundoff, 64 eps s
    as in :func:`_checked`, and the clip of its eigenvalues at 0), and
    ``-(||dV|| / lam_min) V <= dV <= (||dV|| / lam_min) V`` with the
    monotonicity and homogeneity of symplectic eigenvalues (Bhatia and Jain,
    J. Math. Phys. 56, 112201 (2015)) puts each computed nu within a
    relative ``rho = 1024 eps s^2`` of its exact value (``588 eps s^2``, and
    ``256 eps s`` for the ``64 eps ||K||_2`` of forming K and its
    ``eigvalsh``).  That uses (iii): a
    constructed state has ``V + e' I + i Omega >= 0`` with
    ``e' <= 2 max(1e-9, 64 eps s)`` (the accepted eigenvalue and its
    roundoff), and compressing it onto a unit eigenvector x of
    ``lambda_min`` and ``y = Omega^T x`` gives a positive semidefinite 2x2
    whose determinant is at least ``(x^T Omega y)^2 = 1``, so
    ``lambda_min(V) >= 1 / (lambda_max(V) + e') - e' >= 0.87 / (4 s)`` for
    ``s <= 2^20``.  The state is certainly mixed when
    ``Delta - 32 eps s^2 > 2 ((1 + 1e-9) / (1 - rho))^2`` (both error
    terms doubled to cover the float evaluation of the test itself): then
    the exact ``nu_max >= sqrt(Delta / 2)`` exceeds ``(1 + 1e-9) / (1 - rho)``
    and the computed one ``1 + 1e-9``.  By (iii) the ``_require_psd`` that
    the spectral pass would run cannot fire either: the exact
    ``lambda_min(V)`` is positive, so its computed value stays above
    ``-64 eps s``."""
    x = state.cm.ravel().tolist()
    s = max(1.0, max(map(abs, x)))
    if len(x) != 16 or s > _MIXED_SCALE:
        return False
    s2 = s * s
    delta = (x[0] * x[5] - x[1] * x[1] + x[10] * x[15] - x[11] * x[11]
             + 2.0 * (x[2] * x[7] - x[3] * x[6]))
    nu = (1.0 + 1e-9) / (1.0 - 1024.0 * _EPS * s2)
    return delta - 32.0 * _EPS * s2 > 2.0 * nu * nu


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n`` modes: mean quadrature vector and CM.

    Construction checks ``V + i Omega >= 0`` (Simon, Mukunda and Dutta) on the
    scale ``s = max(1, max|V|)``, on plain floats in closed form for one
    mode; for two modes on plain floats by a Cholesky certificate below
    ``s`` of about 28,150 and by one ``eigvalsh`` wherever that certificate
    cannot decide, with the same decision either way (see ``_checked``), at
    the default tolerances: V symmetric within ``1e-12 s``, no eigenvalue
    below ``-e`` with
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
        return _spectrum(self, None)  # the CM was checked at construction

    def is_pure(self, tol: float = 1e-9) -> bool:
        return bool(np.max(self.symplectic_spectrum()) <= 1.0 + tol)


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
    ``tol`` reaches only the check of V, as in :func:`symplectic_eigenvalues`,
    and a kernel beyond float64 range raises :class:`OverflowError` there too.
    """
    cm, lam, u, k = _sqrt_form(_as_matrix(cm), tol)
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
