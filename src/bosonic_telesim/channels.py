"""Single-mode Gaussian channels: validation, application, composition and
canonical-form classification.

A channel is the triple (T, N, d) acting on first and second moments as
``mean -> T mean + d`` and ``V -> T V T^T + N``.  It is physical iff
``N + i (1 - det T) Omega >= 0``, i.e. N >= 0 and ``det N >= (det T - 1)^2``.
Up to input/output Gaussian unitaries every such channel reduces to one of
eight canonical classes, uniquely fixed by the invariants ``tau = det T`` and
the channel rank ``r = rank(T) rank(N) / 2``:

    tau     r   class   T_c             N_c
    0       0   A1      0               (2 nbar + 1) I
    0       1   A2      (I + Z)/2       (2 nbar + 1) I
    1       1   B1      I               (I - Z)/2
    1       2   B2      I               xi I
    1       0   B2_Id   I               0
    (0,1)   2   C_Att   sqrt(tau) I     (1 - tau)(2 nbar + 1) I
    > 1     2   C_Amp   sqrt(tau) I     (tau - 1)(2 nbar + 1) I
    < 0     2   D       sqrt(-tau) Z    (1 - tau)(2 nbar + 1) I

Displacements are carried along but never affect classification.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .errors import (ClassificationAmbiguousError, DomainError,
                     InvalidDimensionError, ValidationError)
from .symplectic import GaussianState, _checked, _readonly

__all__ = [
    "GaussianChannel",
    "CanonicalClass",
    "CanonicalForm",
    "validate_channel",
    "apply_channel",
    "compose",
    "classify",
    "canonical_matrices",
    "canonical_channel",
    "form_from_fields",
    "channel_rank",
    "channel_from_dict",
    "channel_to_dict",
]

_I = np.eye(2)
_Z = np.diag([1.0, -1.0])


class CanonicalClass(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2_Id = "B2_Id"
    B2 = "B2"
    C_Att = "C_Att"
    C_Amp = "C_Amp"
    D = "D"


@dataclasses.dataclass(frozen=True)
class GaussianChannel:
    """Raw (T, N, d) representation of a single-mode Gaussian channel.

    Construction only enforces shapes and a finite N, symmetrized exactly; the
    physical bona-fide condition is checked by :func:`validate_channel` so
    that unphysical triples can still be represented and interrogated.
    Instances are immutable, so a passed check at the default tolerances is
    a fact of the channel: it runs on the first use and is remembered (a
    failed one is not, and raises again on every use).
    """

    t: np.ndarray
    n: np.ndarray
    d: np.ndarray = None
    _physical = False  # not a field: set on the instance by a passed default check

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        n = np.asarray(self.n, dtype=float)
        d = np.zeros(2) if self.d is None else np.asarray(self.d, dtype=float).reshape(-1)
        if t.shape != (2, 2) or n.shape != (2, 2) or d.shape != (2,):
            raise InvalidDimensionError(
                f"expected 2x2 T, 2x2 N and length-2 d, got {t.shape}, {n.shape}, {d.shape}")
        n = _checked(n, None, what="noise matrix")
        for name, a in (("t", t), ("n", n), ("d", d)):
            object.__setattr__(self, name, _readonly(a))

    @classmethod
    def identity(cls) -> "GaussianChannel":
        return cls(_I, np.zeros((2, 2)))

    @property
    def tau(self) -> float:
        return float(np.linalg.det(self.t))


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """Classified channel: class tag, tau, rank and the invariant noise scale
    (nbar for A1/A2/C/D, xi for B2, 0 for B1 and the identity)."""

    tag: CanonicalClass
    tau: float
    r: int
    noise_param: float


def validate_channel(ch: GaussianChannel, tol: float | None = None) -> bool:
    """True iff ``N + i (1 - det T) Omega >= 0`` (Holevo-Werner) on the scale
    ``s = max(1, max|N|)``: N symmetric within ``1e-12 s``, no eigenvalue
    below ``-max(1e-9, 64 eps s)``, a float ``tol`` replacing both 1e-12 and
    1e-9 (see ``symplectic._checked``).  The eigenvalue is
    the 2x2 closed form ``(p + q)/2 - hypot((p - q)/2, r, 1 - det T)``, within
    about ``eps s`` of the exact one near the threshold, on plain floats with
    ``det T = a d - b c``, so a non-finite entry anywhere gives False.
    An output frame of single-mode squeezing r widens the accepted band below
    the boundary by at most ``(r^2 + r^-2) / 2``.  The default-tolerance
    answer True is remembered on the channel; a float ``tol`` (0.0 included)
    always checks again."""
    try:
        _require_valid(ch, tol)
    except ValidationError:
        return False
    return True


def _require_valid(ch: GaussianChannel, tol: float | None = None) -> None:
    """Raise :class:`ValidationError` unless the channel is physical.  A
    passed check at the default tolerances is remembered on the immutable
    channel, so it runs once per channel; a failed one is not remembered."""
    if tol is None and ch._physical:
        return
    (a, b), (c, d) = ch.t.tolist()  # plain floats: no numpy call, no warning on NaN
    _checked(ch.n, tol, 1.0 - (a * d - b * c), "channel noise matrix")
    if tol is None:
        object.__setattr__(ch, "_physical", True)  # past the frozen __setattr__


def apply_channel(ch: GaussianChannel, state: GaussianState,
                  target_mode: int = 0) -> GaussianState:
    """Apply the channel to one mode of a one- or two-mode state, acting as
    the identity elsewhere: ``mean -> T_full mean + d_full`` and
    ``V -> T_full V T_full^T + N_full``, with (T, N, d) embedded at the target
    mode.  The channel is validated first.  Only the target mode's entries
    change, so only they are computed, from the two rows of ``T_full`` at the
    target mode: each is the same length-2n dot product that the dense
    embedding forms."""
    _require_valid(ch)
    n_modes = state.modes
    if target_mode not in range(n_modes):
        raise DomainError(f"target_mode {target_mode} out of range for {n_modes} modes")
    sl = slice(2 * target_mode, 2 * target_mode + 2)
    rows = np.zeros((2, 2 * n_modes))
    rows[:, sl] = ch.t
    mean, cm = state.mean.copy(), state.cm.copy()
    mean[sl] = rows @ state.mean + ch.d
    cm[sl] = rows @ state.cm
    cm[:, sl] = cm @ rows.T
    cm[sl, sl] += ch.n
    return GaussianState(mean, cm)


def compose(ch2: GaussianChannel, ch1: GaussianChannel) -> GaussianChannel:
    """Composite channel ch2 o ch1 (ch1 acts first)."""
    _require_valid(ch1)
    _require_valid(ch2)
    return GaussianChannel(ch2.t @ ch1.t,
                           ch2.t @ ch1.n @ ch2.t.T + ch2.n,
                           ch2.t @ ch1.d + ch2.d)


_RANK = 1e-10  # default: singular values of T, eigenvalues of N, below 1e-10 max(|.|, 1) are 0


def _numeric_rank(m: np.ndarray, tol: float | None) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > (_RANK if tol is None else tol) * max(float(sv[0]), 1.0)))


def _snap_noise(p: float) -> float:
    # quantum-limited channels must extract exactly 0: downstream formulas
    # have square-root sensitivity at the omega = 2 nbar + 1 = 1 boundary
    return 0.0 if p < 1e-11 else p


def channel_rank(ch: GaussianChannel, tol: float | None = None) -> float:
    """The invariant r = rank(T) rank(N) / 2, with numeric ranks: T's counts
    its singular values above the threshold, N's its eigenvalues (see
    :func:`_noise_invariants`)."""
    _require_valid(ch, tol)
    return _numeric_rank(ch.t, tol) * _noise_invariants(ch.n, tol)[0] / 2.0


def _sqrt_det(n: np.ndarray) -> float:
    """``sqrt(max(det N, 0))`` of a finite symmetric 2x2 N, from numpy's
    ``det``.  Up to ``max|N| = 2^511``, ``|det N| <= 2 max|N|^2`` cannot
    overflow; beyond, a ``det`` that overflows is taken of N scaled by an
    exact power of two."""
    (p, b), (_, q) = n.tolist()  # plain floats: the range test dispatches no ufunc
    big = max(abs(p), abs(b), abs(q))
    if big <= 2.0 ** 511:
        det = np.linalg.det(n)
    else:
        with np.errstate(over="ignore"):
            det = np.linalg.det(n)
        if math.isinf(det):
            e = math.frexp(big)[1]
            return math.ldexp(math.sqrt(max(np.linalg.det(np.ldexp(n, -e)), 0.0)), e)
    return float(np.sqrt(max(det, 0.0)))


def _noise_invariants(n: np.ndarray, tol: float | None) -> tuple:
    """``(rank, sqrt(det N))`` of a noise matrix.  The rank counts N's
    eigenvalues ``(p + q)/2 +/- hypot((p - q)/2, r)`` (the 2x2 closed form of
    ``symplectic._checked``, on plain floats) above ``1e-10 max(|l+|, |l-|, 1)``,
    or ``tol`` in place of 1e-10: N is symmetric and only its positive
    eigenvalues are noise, so a negative one inside the physicality slack,
    whose singular value would pass, does not count.  N counts as full rank
    only where ``sqrt(det N) > 0`` as well, so a rank-2 N has a noise scale.
    Below two counted eigenvalues N has no noise scale and ``sqrt(det N)`` is
    None: no class reads it, so its ``det`` is not taken.
    Where ``l+`` overflows, both are decided on N scaled by an exact ``2^-e``,
    with ``2^e > max|N|``, and the floor 1 scaled with them."""
    (p, r), (_, q) = n.tolist()
    mid, half = 0.5 * p + 0.5 * q, math.hypot(0.5 * p - 0.5 * q, r)
    hi, lo, floor = mid + half, mid - half, 1.0
    if math.isinf(hi):  # rank-1 N = [[1e308, 1e308], [1e308, 1e308]]: l+ = 2e308
        e = math.frexp(max(abs(p), abs(r), abs(q)))[1]
        p, r, q, floor = (math.ldexp(x, -e) for x in (p, r, q, 1.0))
        mid, half = 0.5 * p + 0.5 * q, math.hypot(0.5 * p - 0.5 * q, r)
        hi, lo = mid + half, mid - half
    thr = (_RANK if tol is None else tol) * max(abs(hi), abs(lo), floor)
    rank = (hi > thr) + (lo > thr)
    if rank != 2:
        return rank, None
    sqrt_det = _sqrt_det(n)
    return (2 if sqrt_det > 0.0 else 1), sqrt_det


_TAU_BOUNDARY = 1e-9  # default: |tau| <= 1e-9 is tau = 0, |tau - 1| <= 1e-9 is tau = 1


def classify(ch: GaussianChannel, tol: float | None = None) -> CanonicalForm:
    """Map a valid channel to its canonical class and invariant parameters.

    Decisions are made on the symplectic invariants only: tau = det T, the
    numeric ranks of T (its singular values above the threshold) and of N
    (its eigenvalues above it: N is symmetric, and a negative eigenvalue
    inside the physicality slack is no noise), and sqrt(det N) for the noise
    scale.  Invariant combinations matching no class row raise
    :class:`ClassificationAmbiguousError` with diagnostics.  ``tol`` replaces
    every default tolerance of the decision: those of :func:`validate_channel`,
    the rank threshold 1e-10 and the tau boundary 1e-9.
    """
    _require_valid(ch, tol)
    boundary = _TAU_BOUNDARY if tol is None else tol
    tau = float(np.linalg.det(ch.t))
    rank_t = _numeric_rank(ch.t, tol)
    rank_n, sqrt_det_n = _noise_invariants(ch.n, tol)

    def ambiguous(msg):
        raise ClassificationAmbiguousError(msg, {
            "tau": tau, "rank_t": rank_t, "rank_n": rank_n,
            "sqrt_det_n": _sqrt_det(ch.n) if sqrt_det_n is None else sqrt_det_n})

    if abs(tau) <= boundary:
        if rank_n != 2:
            ambiguous("tau = 0 requires a full-rank noise matrix")
        nbar = _snap_noise(max(0.5 * (sqrt_det_n - 1.0), 0.0))
        if rank_t == 0:
            return CanonicalForm(CanonicalClass.A1, 0.0, 0, nbar)
        if rank_t == 1:
            return CanonicalForm(CanonicalClass.A2, 0.0, 1, nbar)
        ambiguous("det T = 0 but T has numeric rank 2")
    if abs(tau - 1.0) <= boundary:
        if rank_t != 2:
            ambiguous("tau = 1 requires an invertible T")
        if rank_n == 0:
            return CanonicalForm(CanonicalClass.B2_Id, 1.0, 0, 0.0)
        if rank_n == 1:
            return CanonicalForm(CanonicalClass.B1, 1.0, 1, 0.0)
        return CanonicalForm(CanonicalClass.B2, 1.0, 2, sqrt_det_n)
    if rank_t != 2 or rank_n != 2:
        ambiguous("tau not in {0, 1} requires full-rank T and N")
    nbar = _snap_noise(max(0.5 * (sqrt_det_n / abs(1.0 - tau) - 1.0), 0.0))
    if tau < 0.0:
        return CanonicalForm(CanonicalClass.D, tau, 2, nbar)
    if tau < 1.0:
        return CanonicalForm(CanonicalClass.C_Att, tau, 2, nbar)
    return CanonicalForm(CanonicalClass.C_Amp, tau, 2, nbar)


def canonical_matrices(form: CanonicalForm):
    """The diagonal (T_c, N_c) pair of a canonical form."""
    tag, tau, p = form.tag, form.tau, form.noise_param
    if tag is CanonicalClass.A1:
        return np.zeros((2, 2)), (2.0 * p + 1.0) * _I
    if tag is CanonicalClass.A2:
        return (_I + _Z) / 2.0, (2.0 * p + 1.0) * _I
    if tag is CanonicalClass.B1:
        return _I.copy(), (_I - _Z) / 2.0
    if tag is CanonicalClass.B2_Id:
        return _I.copy(), np.zeros((2, 2))
    if tag is CanonicalClass.B2:
        return _I.copy(), p * _I
    if tag is CanonicalClass.C_Att or tag is CanonicalClass.C_Amp:
        return np.sqrt(tau) * _I, abs(1.0 - tau) * (2.0 * p + 1.0) * _I
    if tag is CanonicalClass.D:
        return np.sqrt(-tau) * _Z, (1.0 - tau) * (2.0 * p + 1.0) * _I
    raise DomainError(f"unknown canonical class {tag!r}")


def canonical_channel(form: CanonicalForm) -> GaussianChannel:
    """The zero-displacement channel built from canonical_matrices."""
    t_c, n_c = canonical_matrices(form)
    return GaussianChannel(t_c, n_c)


# --- JSON-facing channel spec -------------------------------------------------
#
# Raw form:        {"t": [[..], [..]], "n": [[..], [..]], "d": [..]}
# Canonical form:  {"class": "C_Att", "tau": 0.5, "nbar": 0.0}
#                  {"class": "C_Amp", "tau": 2.0, "nbar": 0.0}
#                  {"class": "D", "tau": -1.0, "nbar": 0.0}
#                  {"class": "A1", "nbar": 0.0} / {"class": "A2", "nbar": 0.0}
#                  {"class": "B2", "xi": 0.1}
#                  {"class": "B1"} / {"class": "B2_Id"}

_CANONICAL_KEYS = {
    CanonicalClass.A1: {"nbar"},
    CanonicalClass.A2: {"nbar"},
    CanonicalClass.B1: set(),
    CanonicalClass.B2_Id: set(),
    CanonicalClass.B2: {"xi"},
    CanonicalClass.C_Att: {"tau", "nbar"},
    CanonicalClass.C_Amp: {"tau", "nbar"},
    CanonicalClass.D: {"tau", "nbar"},
}

_FIXED_TAU = {CanonicalClass.A1: 0.0, CanonicalClass.A2: 0.0,
              CanonicalClass.B1: 1.0, CanonicalClass.B2_Id: 1.0,
              CanonicalClass.B2: 1.0}
_FIXED_RANK = {CanonicalClass.A1: 0, CanonicalClass.A2: 1, CanonicalClass.B1: 1,
               CanonicalClass.B2_Id: 0, CanonicalClass.B2: 2,
               CanonicalClass.C_Att: 2, CanonicalClass.C_Amp: 2, CanonicalClass.D: 2}


def form_from_fields(tag: CanonicalClass, tau: float | None = None,
                     nbar: float = 0.0, xi: float = 0.0) -> CanonicalForm:
    """Build a CanonicalForm from user-facing fields, with domain checks."""
    if tag in _FIXED_TAU:
        tau = _FIXED_TAU[tag]
    elif tau is None:
        raise DomainError(f"class {tag.value} requires a tau value")
    tau = float(tau)
    if tag is CanonicalClass.C_Att and not 0.0 < tau < 1.0:
        raise DomainError(f"C_Att requires tau in (0, 1), got {tau}")
    if tag is CanonicalClass.C_Amp and not tau > 1.0:
        raise DomainError(f"C_Amp requires tau > 1, got {tau}")
    if tag is CanonicalClass.D and not tau < 0.0:
        raise DomainError(f"D requires tau < 0, got {tau}")
    if nbar < 0.0:
        raise DomainError(f"nbar must be non-negative, got {nbar}")
    if xi < 0.0:
        raise DomainError(f"xi must be non-negative, got {xi}")
    noise = float(xi) if tag is CanonicalClass.B2 else float(nbar)
    if tag in (CanonicalClass.B1, CanonicalClass.B2_Id):
        noise = 0.0
    return CanonicalForm(tag, tau, _FIXED_RANK[tag], noise)


def channel_from_dict(spec: dict) -> GaussianChannel:
    """Parse the JSON-facing channel spec (raw or canonical, strict keys)."""
    if not isinstance(spec, dict):
        raise ValidationError("channel spec must be a JSON object")
    if "class" in spec:
        extra = set(spec) - {"class", "tau", "nbar", "xi"}
        if extra:
            raise ValidationError(f"unknown channel spec keys: {sorted(extra)}")
        try:
            tag = CanonicalClass(spec["class"])
        except ValueError:
            raise ValidationError(f"unknown canonical class {spec['class']!r}") from None
        stray = set(spec) - {"class", "tau"} - _CANONICAL_KEYS[tag]
        if stray:
            raise ValidationError(
                f"keys {sorted(stray)} not allowed for class {tag.value}")
        return canonical_channel(form_from_fields(
            tag, spec.get("tau"), spec.get("nbar", 0.0), spec.get("xi", 0.0)))
    extra = set(spec) - {"t", "n", "d"}
    if extra:
        raise ValidationError(f"unknown channel spec keys: {sorted(extra)}")
    if "t" not in spec or "n" not in spec:
        raise ValidationError("raw channel spec requires 't' and 'n'")
    return GaussianChannel(np.asarray(spec["t"], dtype=float),
                           np.asarray(spec["n"], dtype=float),
                           np.asarray(spec.get("d", [0.0, 0.0]), dtype=float))


def channel_to_dict(ch: GaussianChannel) -> dict:
    """Row-major raw representation, suitable for JSON round-trips."""
    return {"t": ch.t.tolist(), "n": ch.n.tolist(), "d": ch.d.tolist()}
