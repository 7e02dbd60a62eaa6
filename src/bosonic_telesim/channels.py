"""Single-mode Gaussian channels: validation, application, composition and
canonical-form classification.

A channel is the triple (T, N, d) acting on first and second moments as
``mean -> T mean + d`` and ``V -> T V T^T + N``.  It is physical iff
``N + i (1 - det T) Omega >= 0``, i.e. N >= 0 and ``det N >= (det T - 1)^2``.
Up to input/output Gaussian unitaries every such channel reduces to one of
eight canonical classes, uniquely fixed by the invariants ``tau = det T``,
rank(T) and rank(N), with channel rank ``r = rank(T) rank(N) / 2``:

    tau         r   class   T_c             N_c
    = 0         0   A1      0               (2 nbar + 1) I
    = 0         1   A2      (I + Z)/2       (2 nbar + 1) I
    = 1         1   B1      I               (I - Z)/2
    = 1         2   B2      I               xi I
    = 1         0   B2_Id   I               0
    in (0, 1)   2   C_Att   sqrt(tau) I     (1 - tau)(2 nbar + 1) I
    > 1         2   C_Amp   sqrt(tau) I     (tau - 1)(2 nbar + 1) I
    < 0         2   D       sqrt(-tau) Z    (1 - tau)(2 nbar + 1) I

The table is the classifier.  Each :class:`CanonicalClass` member carries its
row (tau, rank T, rank N and its spec fields); :func:`classify` is one lookup
of ``(tau, rank T, rank N)``, and a canonical spec or :func:`form_from_fields`
takes exactly the row's fields (a free tau, nbar or xi) and rejects any other.
Displacements are carried along but never affect classification.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers

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
    "channel_from_dict",
    "channel_to_dict",
]

_I = np.eye(2)
_Z = np.diag([1.0, -1.0])


class CanonicalClass(str, enum.Enum):
    """A canonical class, carrying its row of the module's table: ``region``,
    the tau column ("= 0" and "= 1" fix tau to ``fixed_tau``, the other
    regions leave it free and ``fixed_tau`` None), ``rank_t``, ``rank_n``,
    ``r = rank_t rank_n / 2`` and ``fields``, the keys of its canonical spec
    besides "class"."""

    #        tag        tau           rank T  rank N  spec fields
    A1 =    ("A1",      "= 0",        0,      2,      ("nbar",))
    A2 =    ("A2",      "= 0",        1,      2,      ("nbar",))
    B1 =    ("B1",      "= 1",        2,      1,      ())
    B2_Id = ("B2_Id",   "= 1",        2,      0,      ())
    B2 =    ("B2",      "= 1",        2,      2,      ("xi",))
    C_Att = ("C_Att",   "in (0, 1)",  2,      2,      ("tau", "nbar"))
    C_Amp = ("C_Amp",   "> 1",        2,      2,      ("tau", "nbar"))
    D =     ("D",       "< 0",        2,      2,      ("tau", "nbar"))

    def __new__(cls, tag, region, rank_t, rank_n, fields):
        member = str.__new__(cls, tag)
        member._value_ = tag
        member.region, member.rank_t, member.rank_n = region, rank_t, rank_n
        member.fields = fields
        member.fixed_tau = {"= 0": 0.0, "= 1": 1.0}.get(region)
        member.r = rank_t * rank_n // 2
        return member


def _tau_region(tau: float, boundary: float) -> str:
    """The tau column of the class table that tau falls in: "= 0" or "= 1"
    within ``boundary`` of it, else "< 0", "in (0, 1)" or "> 1" (NaN too)."""
    if abs(tau) <= boundary:
        return "= 0"
    if abs(tau - 1.0) <= boundary:
        return "= 1"
    return "< 0" if tau < 0.0 else "in (0, 1)" if tau < 1.0 else "> 1"


_BY_INVARIANTS = {(c.region, c.rank_t, c.rank_n): c for c in CanonicalClass}


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
    """Singular values of the 2x2 m above ``1e-10 max(s1, 1)``, or ``tol`` in
    place of 1e-10, counted on plain floats."""
    s1, s2 = np.linalg.svd(m, compute_uv=False).tolist()
    thr = (_RANK if tol is None else tol) * max(s1, 1.0)
    return (s1 > thr) + (s2 > thr)


def _snap_noise(p: float) -> float:
    # quantum-limited channels must extract exactly 0: downstream formulas
    # have square-root sensitivity at the omega = 2 nbar + 1 = 1 boundary
    return 0.0 if p < 1e-11 else p


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
    scale.  The class is the table row of ``(tau region, rank T, rank N)``; a
    combination that no row has raises :class:`ClassificationAmbiguousError`
    with diagnostics.  A class with a fixed tau reports it exactly.  ``tol``
    replaces every default tolerance of the decision: those of
    :func:`validate_channel`, the rank threshold 1e-10 and the tau boundary
    1e-9.
    """
    _require_valid(ch, tol)
    tol, tau = None if tol is None else float(tol), ch.tau  # a numpy tol counts ranks as np.bool_
    rank_t = _numeric_rank(ch.t, tol)
    rank_n, sqrt_det_n = _noise_invariants(ch.n, tol)
    region = _tau_region(tau, _TAU_BOUNDARY if tol is None else tol)
    tag = _BY_INVARIANTS.get((region, rank_t, rank_n))
    if tag is None:
        raise ClassificationAmbiguousError(
            f"no canonical class has tau {region}, rank(T) = {rank_t} and rank(N) = {rank_n}",
            {"tau": tau, "rank_t": rank_t, "rank_n": rank_n,
             "sqrt_det_n": _sqrt_det(ch.n) if sqrt_det_n is None else sqrt_det_n})
    if tag.fixed_tau is not None:
        tau = tag.fixed_tau
    if "nbar" in tag.fields:
        noise = _snap_noise(max(0.5 * (sqrt_det_n / abs(1.0 - tau) - 1.0), 0.0))
    else:
        noise = sqrt_det_n if "xi" in tag.fields else 0.0
    return CanonicalForm(tag, tau, tag.r, noise)


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
# Canonical form:  {"class": tag, ...the fields of its row}, such as
#                  {"class": "C_Att", "tau": 0.5, "nbar": 0.0} or {"class": "B1"}


def form_from_fields(tag: CanonicalClass, tau: float | None = None,
                     nbar: float = 0.0, xi: float = 0.0) -> CanonicalForm:
    """Build a CanonicalForm from user-facing fields, checked against the
    class's row before any array is formed.  Each field must be a real
    number, not a bool (so a JSON string or null is an input error); a field
    outside the row must keep its default (tau None, nbar and xi 0.0); a free
    tau must be given, finite and in the row's region (the rule of
    :func:`classify` at boundary 0); nbar and xi must be finite and
    non-negative.  Each check raises :class:`DomainError`."""
    for name, value in (("tau", 0.0 if tau is None else tau), ("nbar", nbar), ("xi", xi)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
    given = {"tau": tau is not None, "nbar": nbar != 0.0, "xi": xi != 0.0}
    stray = [name for name in given if given[name] and name not in tag.fields]
    if stray:
        raise DomainError(f"class {tag.value} has no field {', '.join(stray)}")
    if tag.fixed_tau is not None:
        tau = tag.fixed_tau
    elif tau is None:
        raise DomainError(f"class {tag.value} requires a tau value")
    tau = float(tau)
    if not (math.isfinite(tau) and _tau_region(tau, 0.0) == tag.region):
        raise DomainError(f"class {tag.value} requires a finite tau {tag.region}, got {tau}")
    for name, value in (("nbar", nbar), ("xi", xi)):
        if not 0.0 <= value < math.inf:
            raise DomainError(f"{name} must be finite and non-negative, got {value}")
    noise = float(xi) if "xi" in tag.fields else float(nbar) if "nbar" in tag.fields else 0.0
    return CanonicalForm(tag, tau, tag.r, noise)


def channel_from_dict(spec: dict) -> GaussianChannel:
    """Parse the JSON-facing channel spec (raw or canonical, strict keys: a
    canonical spec has "class" and its row's fields, nothing else)."""
    if not isinstance(spec, dict):
        raise ValidationError("channel spec must be a JSON object")
    if "class" in spec:
        try:
            tag = CanonicalClass(spec["class"])
        except ValueError:
            raise ValidationError(f"unknown canonical class {spec['class']!r}") from None
        stray = set(spec) - {"class", *tag.fields}
        if stray:
            raise ValidationError(
                f"keys {sorted(stray)} not allowed for class {tag.value}")
        return canonical_channel(form_from_fields(tag, **{k: spec[k] for k in tag.fields
                                                          if k in spec}))
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
