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

The layer runs on plain floats and imports no numpy: a channel holds the
floats of T, N and d, and builds its read-only arrays when first read.  The
invariants are 2x2 closed forms.  ``tau = a d - b c`` of ``T = [[a, b], [c, d]]``
is formed exactly from the integer ratios of the floats and rounded once;
rank T counts the singular values
``s1 = (hypot(a + d, c - b) + hypot(a - d, c + b))/2`` and ``s2 = |tau|/s1``;
rank N counts N's eigenvalues ``l+-``, and ``sqrt(det N)`` is taken of the exact
``p q - r^2`` of ``N = [[p, r], [r, q]]``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers

from ._floats import _checked2, _det, _entries
from .errors import (ClassificationAmbiguousError, DomainError,
                     InvalidDimensionError, ValidationError)

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


def _matrix(x, name: str) -> tuple:
    """The four floats of the 2x2 ``name``, row-major, given as nested
    sequences or as an array (read by ``tolist()``): the entries of
    ``np.asarray(x, dtype=float)``."""
    try:
        (a, b), (c, d) = x.tolist() if hasattr(x, "tolist") else x
    except (TypeError, ValueError):
        raise InvalidDimensionError(f"{name} must be a 2x2 matrix") from None
    try:
        return float(a), float(b), float(c), float(d)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must hold real numbers: {exc}") from None


def _array(rows):
    """A read-only float array of ``rows``: numpy is loaded where a
    channel's matrices are first read as arrays."""
    import numpy as np

    a = np.array(rows, dtype=float)
    a.setflags(write=False)
    return a


class GaussianChannel:
    """Raw (T, N, d) representation of a single-mode Gaussian channel.

    Construction only enforces shapes (d may be any nesting of two entries),
    real entries and a finite N, symmetrized exactly; the physical bona-fide
    condition is checked by :func:`validate_channel` so that unphysical
    triples can still be represented and interrogated.  The channel holds the
    plain floats of T, N and d and ``tau``, the :func:`_floats._det` of T, in
    slots; ``t``, ``n`` and ``d`` are read-only arrays built from them on
    first read.
    Instances are immutable, so a passed check at the default tolerances is
    a fact of the channel: it runs on the first use and is remembered (a
    failed one is not, and raises again on every use).  A copy or an unpickled
    channel is built again by the constructor and remembers no check.
    """

    __slots__ = ("_t", "_n", "_d", "tau", "_physical", "_arrays")

    def __init__(self, t, n, d=None):
        t, n = _matrix(t, "T"), _matrix(n, "N")
        d = (0.0, 0.0) if d is None else tuple(_entries(d, "d"))
        if len(d) != 2:
            raise InvalidDimensionError(f"d must have 2 entries, got {len(d)}")
        # past the frozen __setattr__; _physical is set by a passed default check
        for name, value in (("_t", t), ("_n", _checked2(n, None, what="noise matrix")),
                            ("_d", d), ("tau", _det(*t)), ("_physical", False),
                            ("_arrays", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        (a, b, c, d), (p, r, q) = self._t, self._n
        return type(self), (((a, b), (c, d)), ((p, r), (r, q)), self._d)

    def __repr__(self) -> str:
        (a, b, c, d), (p, r, q) = self._t, self._n
        return f"GaussianChannel(t={[[a, b], [c, d]]}, n={[[p, r], [r, q]]}, d={list(self._d)})"

    @classmethod
    def identity(cls) -> "GaussianChannel":
        return cls(((1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, 0.0)))

    def _read(self, k: int):
        """The k-th of the arrays ``(t, n, d)``, all three built on the first read."""
        if self._arrays is None:
            (a, b, c, d), (p, r, q) = self._t, self._n
            object.__setattr__(self, "_arrays", tuple(
                _array(x) for x in (((a, b), (c, d)), ((p, r), (r, q)), self._d)))
        return self._arrays[k]

    t = property(lambda self: self._read(0), doc="T as a read-only 2x2 array.")
    n = property(lambda self: self._read(1), doc="N as a read-only 2x2 array.")
    d = property(lambda self: self._read(2), doc="d as a read-only length-2 array.")


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
    1e-9 (see ``_floats._checked2``).  The eigenvalue is
    the 2x2 closed form ``(p + q)/2 - hypot((p - q)/2, r, 1 - det T)``, within
    about ``eps s`` of the exact one near the threshold, on plain floats with
    ``det T`` the channel's exact ``tau``, so a non-finite entry anywhere, or a
    det T beyond float64 range, gives False.
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
    p, r, q = ch._n
    _checked2((p, r, r, q), tol, 1.0 - ch.tau, "channel noise matrix")
    if tol is None:
        object.__setattr__(ch, "_physical", True)  # past the frozen __setattr__


def apply_channel(ch: GaussianChannel, state, target_mode: int = 0):
    """Apply the channel to one mode of a one- or two-mode state, acting as
    the identity elsewhere: ``mean -> T_full mean + d_full`` and
    ``V -> T_full V T_full^T + N_full``, with (T, N, d) embedded at the target
    mode.  The channel is validated first.  Only the target mode's rows and
    columns change, so only they are computed, on the plain floats of the
    state (its ``_mean`` and row-major ``_cm``): the rows become T times
    them, then the columns those times ``T^T``, and N is added to the
    target block; each entry is a two-term dot product of the entries the
    dense embedding multiplies by nonzero ones."""
    _require_valid(ch)
    n_modes = state.modes
    if target_mode not in range(n_modes):
        raise DomainError(f"target_mode {target_mode} out of range for {n_modes} modes")
    (a, b, c, d), (p, r, q), dim, k = ch._t, ch._n, 2 * n_modes, 2 * target_mode
    mean, v = list(state._mean), list(state._cm)
    x, y = mean[k:k + 2]
    mean[k:k + 2] = a * x + b * y + ch._d[0], c * x + d * y + ch._d[1]
    for i, j in zip(range(k * dim, (k + 1) * dim), range((k + 1) * dim, (k + 2) * dim)):
        x, y = v[i], v[j]  # rows k and k + 1
        v[i], v[j] = a * x + b * y, c * x + d * y
    for i in range(k, dim * dim, dim):
        x, y = v[i], v[i + 1]  # columns k and k + 1
        v[i], v[i + 1] = x * a + y * b, x * c + y * d
    i = k * dim + k  # the target block: v[i], v[i + 1], v[i + dim] and v[i + dim + 1]
    for j, n in zip((i, i + 1, i + dim, i + dim + 1), (p, r, r, q)):
        v[j] += n
    # a GaussianState, from its floats: the state layer, not imported here
    return type(state)._of(mean, v)


def _pairs(m: tuple) -> tuple:
    """Rows ``((a, b), (c, d))`` of a row-major 2x2 tuple."""
    return m[:2], m[2:]


def _product(x: tuple, y: tuple) -> tuple:
    """The 2x2 product of row-major ``(a, b, c, d)`` tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def compose(ch2: GaussianChannel, ch1: GaussianChannel) -> GaussianChannel:
    """Composite channel ch2 o ch1 (ch1 acts first), on plain floats:
    ``T2 T1``, ``(T2 N1) T2^T + N2`` and ``T2 d1 + d2``."""
    _require_valid(ch1)
    _require_valid(ch2)
    t2, (p, r, q), (x, y) = ch2._t, ch1._n, ch1._d
    a, b, c, d = _product(_product(t2, (p, r, r, q)), (t2[0], t2[2], t2[1], t2[3]))
    p2, r2, q2 = ch2._n
    return GaussianChannel(_pairs(_product(t2, ch1._t)), _pairs((a + p2, b + r2, c + r2, d + q2)),
                           (t2[0] * x + t2[1] * y + ch2._d[0], t2[2] * x + t2[3] * y + ch2._d[1]))


_RANK = 1e-10  # default: singular values of T, eigenvalues of N, below 1e-10 max(|.|, 1) are 0


def _numeric_rank(t: tuple, tau: float, tol: float | None) -> int:
    """Rank of ``T = [[a, b], [c, d]]``, given as ``t = (a, b, c, d)`` with
    its finite ``tau = det T`` (a valid channel's): its singular values
    above ``1e-10 max(s1, 1)``, or ``tol`` in place of 1e-10, from the
    closed forms
    ``s1 = (hypot(a + d, c - b) + hypot(a - d, c + b))/2`` and
    ``s2 = |tau|/s1`` (0 for T = 0), on plain floats.  Where s1 leaves
    float64 range, s1 is taken of T scaled by an exact ``2^-e``, with
    ``2^e > max|T|``, and s2 and the floor 1 are scaled to match."""
    a, b, c, d = t
    s1, floor = 0.5 * math.hypot(a + d, c - b) + 0.5 * math.hypot(a - d, c + b), 1.0
    if math.isinf(s1):  # T = [[1e308, 1e308], [1e308, 1e308]]: s1 = 2e308
        e = math.frexp(max(map(abs, t)))[1]
        a, b, c, d, floor = (math.ldexp(x, -e) for x in (a, b, c, d, 1.0))
        s1 = 0.5 * math.hypot(a + d, c - b) + 0.5 * math.hypot(a - d, c + b)
        tau = math.ldexp(tau, -2 * e)  # det of the scaled T
    s2 = abs(tau) / s1 if s1 > 0.0 else 0.0
    thr = (_RANK if tol is None else tol) * max(s1, floor)
    return (s1 > thr) + (s2 > thr)


def _snap_noise(p: float) -> float:
    # quantum-limited channels must extract exactly 0: downstream formulas
    # have square-root sensitivity at the omega = 2 nbar + 1 = 1 boundary
    return 0.0 if p < 1e-11 else p


def _noise_invariants(n: tuple, tol: float | None) -> tuple:
    """``(rank, sqrt(det N))`` of the noise matrix ``[[p, r], [r, q]]``, given
    as ``n = (p, r, q)``.  The rank counts N's eigenvalues
    ``l+- = (p + q)/2 +/- hypot((p - q)/2, r)`` (the 2x2 closed form of
    ``_floats._checked2``, on plain floats) above
    ``1e-10 max(|l+|, |l-|, 1)``, or ``tol`` in place of 1e-10: N is
    symmetric and only its positive eigenvalues are noise, so a negative one
    inside the physicality slack, whose singular value would pass, does not
    count.  ``sqrt(det N) = sqrt(l+ l-)`` is the root of the exact
    ``det N = p q - r^2`` (:func:`_floats._det`), rounded once, not of the product
    of the rounded eigenvalues, whose ``l-`` cancels near a rank boundary;
    N counts as full rank only where it is positive as well, so a rank-2 N
    has a noise scale.  Up to ``max|N| = 2^511`` nothing overflows
    (``|det N| <= 2 max|N|^2``); beyond, both are decided on N scaled by an
    exact ``2^-e``, with ``2^e > max|N|``, the floor 1 scaled with them and
    ``sqrt(det N)`` scaled back by ``2^e``."""
    (p, r, q), e = n, 0
    big = max(abs(p), abs(r), abs(q))
    if big > 2.0 ** 511:  # N = 7e307 I: det N = 4.9e615
        e = math.frexp(big)[1]
        p, r, q = (math.ldexp(x, -e) for x in n)
    mid, half = 0.5 * p + 0.5 * q, math.hypot(0.5 * p - 0.5 * q, r)
    hi, lo = mid + half, mid - half
    thr = (_RANK if tol is None else tol) * max(abs(hi), abs(lo), math.ldexp(1.0, -e))
    sqrt_det = math.ldexp(math.sqrt(max(_det(p, r, r, q), 0.0)), e)
    rank = (hi > thr) + (lo > thr)
    return (1 if rank == 2 and not sqrt_det > 0.0 else rank), sqrt_det


_TAU_BOUNDARY = 1e-9  # default: |tau| <= 1e-9 is tau = 0, |tau - 1| <= 1e-9 is tau = 1


def classify(ch: GaussianChannel, tol: float | None = None) -> CanonicalForm:
    """Map a valid channel to its canonical class and invariant parameters.

    Decisions are made on the symplectic invariants only, each a 2x2 closed
    form on plain floats: tau = det T, exact and rounded once, so the class
    boundaries tau = 0 and tau = 1 are decided on the exact determinant; the
    numeric rank of T, its closed-form singular values above the threshold
    (:func:`_numeric_rank`); that of N, its eigenvalues above it (N is
    symmetric, and a negative eigenvalue inside the physicality slack is no
    noise); and ``sqrt(det N)``, of the exact determinant, for the noise
    scale (:func:`_noise_invariants`).  The class is the table row of
    ``(tau region, rank T, rank N)``; a combination that no row has raises
    :class:`ClassificationAmbiguousError` with diagnostics.  A class with a
    fixed tau reports it exactly.  ``tol`` replaces every default tolerance
    of the decision: those of :func:`validate_channel`, the rank threshold
    1e-10 and the tau boundary 1e-9.
    """
    _require_valid(ch, tol)
    tol, tau = None if tol is None else float(tol), ch.tau  # a numpy tol counts ranks as np.bool_
    rank_t = _numeric_rank(ch._t, tau, tol)
    rank_n, sqrt_det_n = _noise_invariants(ch._n, tol)
    region = _tau_region(tau, _TAU_BOUNDARY if tol is None else tol)
    tag = _BY_INVARIANTS.get((region, rank_t, rank_n))
    if tag is None:
        raise ClassificationAmbiguousError(
            f"no canonical class has tau {region}, rank(T) = {rank_t} and rank(N) = {rank_n}",
            {"tau": tau, "rank_t": rank_t, "rank_n": rank_n, "sqrt_det_n": sqrt_det_n})
    if tag.fixed_tau is not None:
        tau = tag.fixed_tau
    if "nbar" in tag.fields:
        noise = _snap_noise(max(0.5 * (sqrt_det_n / abs(1.0 - tau) - 1.0), 0.0))
    else:
        noise = sqrt_det_n if "xi" in tag.fields else 0.0
    return CanonicalForm(tag, tau, tag.r, noise)


def _canonical(form: CanonicalForm) -> tuple:
    """The diagonal ``(T_c, N_c)`` of a canonical form as row tuples of floats."""
    tag, tau, p = form.tag, form.tau, form.noise_param
    if tag is CanonicalClass.A1:
        t, n = (0.0, 0.0), (2.0 * p + 1.0,) * 2
    elif tag is CanonicalClass.A2:
        t, n = (1.0, 0.0), (2.0 * p + 1.0,) * 2
    elif tag is CanonicalClass.B1:
        t, n = (1.0, 1.0), (0.0, 1.0)
    elif tag is CanonicalClass.B2_Id:
        t, n = (1.0, 1.0), (0.0, 0.0)
    elif tag is CanonicalClass.B2:
        t, n = (1.0, 1.0), (p, p)
    elif tag is CanonicalClass.C_Att or tag is CanonicalClass.C_Amp:
        t, n = (math.sqrt(tau),) * 2, (abs(1.0 - tau) * (2.0 * p + 1.0),) * 2
    elif tag is CanonicalClass.D:
        s = math.sqrt(-tau)
        t, n = (s, -s), ((1.0 - tau) * (2.0 * p + 1.0),) * 2
    else:
        raise DomainError(f"unknown canonical class {tag!r}")
    return tuple(((x, 0.0), (0.0, y)) for x, y in (t, n))


def canonical_matrices(form: CanonicalForm):
    """The diagonal (T_c, N_c) pair of a canonical form, as read-only arrays."""
    t_c, n_c = _canonical(form)
    return _array(t_c), _array(n_c)


def canonical_channel(form: CanonicalForm) -> GaussianChannel:
    """The zero-displacement channel of the canonical pair (T_c, N_c)."""
    return GaussianChannel(*_canonical(form))


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
    return GaussianChannel(spec["t"], spec["n"], spec.get("d"))


def channel_to_dict(ch: GaussianChannel) -> dict:
    """Row-major raw representation, suitable for JSON round-trips."""
    (a, b, c, d), (p, r, q) = ch._t, ch._n
    return {"t": [[a, b], [c, d]], "n": [[p, r], [r, q]], "d": list(ch._d)}
