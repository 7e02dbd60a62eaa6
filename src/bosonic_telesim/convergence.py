"""Convergence diagnostics for the teleportation simulation of a channel.

Whether the simulation converges in unconstrained diamond norm is decided by
a rank criterion: it does iff the channel's noise matrix has full rank.  For
full-rank-noise channels the dilation survives the simulation and the
diamond distance is bounded by ``2 sqrt(1 - F^2)`` with F the fidelity of the
two environmental states; for rank-deficient noise (identity-like and
unit-rank classes) diverging-energy witnesses push the trace distance to 2.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence

from ._floats import _real
from .channels import CanonicalClass, CanonicalForm, GaussianChannel, classify
from .errors import DomainError, NoUniformBoundError
from .fidelity import _b1_witness_infidelity, _b2_root_infidelity, _env_root_infidelity
from .teleportation import _env_gamma, _frame_r, _frame_row, _xi_column, bk_added_noise

__all__ = [
    "ConvergenceVerdict",
    "ScanRow",
    "ScanTable",
    "decide_uniform",
    "diamond_upper_bound",
    "nonuniform_witness",
    "b1_witness_bound",
    "convergence_scan",
]


@dataclasses.dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of the rank criterion."""

    uniform: bool
    reason: str


def decide_uniform(ch: GaussianChannel,
                   tol: float | None = None) -> ConvergenceVerdict:
    """Uniform convergence holds iff rank(N) = 2.

    The verdict is read from the rank(N) of the channel's class row;
    :func:`convergence_scan` samples the upper-bound curve over a grid.
    """
    tag = classify(ch, tol).tag
    return ConvergenceVerdict(uniform=tag.rank_n == 2,
                              reason=f"{tag.value}: rank(N)={tag.rank_n}")


def diamond_upper_bound(ch: GaussianChannel, mu: float, *, r: float = 1.0,
                        a: float = 1.0, c: float = 0.0,
                        tol: float | None = None) -> float:
    """Diamond-distance upper bound ``2 sqrt(1 - F^2)`` between a full-rank-
    noise channel and its mu-resource teleportation simulation.

    ``r`` (for the C, D and additive classes) or ``a, c`` (for A2) fix the
    input-frame symplectic of the channel's reduction to canonical form; the
    defaults describe a channel already in canonical form.  Channels with
    rank-deficient noise have no such bound and raise
    :class:`NoUniformBoundError`.

    The bound is rounded up, never down.  For A2, C_Att, C_Amp and D,
    ``sqrt(1 - F^2)`` comes from F's closed form rationalized so that
    nothing cancels (:func:`fidelity._env_root_infidelity`), and for B2
    likewise (:func:`fidelity._b2_root_infidelity`), each rounded up by
    2^-45 relative.  The bound is then never below its exact value at
    the given mu and frame, and at most 2^-44 (5.7e-14) relative above it,
    at every mu >= 1 (``bk_added_noise`` forms ``mu^2 - 1`` as
    ``(mu - 1)(mu + 1)``, which does not cancel near mu = 1).
    """
    return _diamond_bound(classify(ch, tol), mu, r, a, c)


_C_FORMS = (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D)


def _diamond_bound(form: CanonicalForm, mu: float, r: float, a: float,
                   c: float) -> float:
    """:func:`diamond_upper_bound` of a channel already classified as
    ``form``, rounded up as there: the bound column at one point.  Checked
    in order: mu, the frame the class reads (r, or the row (a, c)), then the
    bound, which raises :class:`NoUniformBoundError` for rank-deficient
    noise."""
    xis = _xi_column([_real(mu, "resource variance")])
    return _bound_column(form, xis, _frame(form, r, a, c))[0]


def _frame(form: CanonicalForm, r, a, c):
    """The checked input frame that the bound of ``form`` reads: r for the
    C, D and B2 forms, ``a^2 + c^2`` of the row for A2, else None."""
    if form.tag in _C_FORMS or form.tag is CanonicalClass.B2:
        return _frame_r(r)
    if form.tag is CanonicalClass.A2:
        a, c = _frame_row(a, c)
        return a * a + c * c
    return None


def _bound_column(form: CanonicalForm, xis: list, frame) -> list:
    """The diamond bounds of ``form``, one per added noise xi of the float
    list ``xis``, in the checked ``frame`` of :func:`_frame`:
    ``2 sqrt(1 - F^2)``, rounded up, from one kernel pass over the column."""
    tag = form.tag
    if tag in _C_FORMS:
        inv = 1.0 / frame
        roots = _env_root_infidelity(_env_gamma(xis, form.tau), frame * frame, inv * inv,
                                     form.noise_param)
    elif tag is CanonicalClass.A2:
        roots = _env_root_infidelity(xis, frame, 0.0, form.noise_param)
    elif tag is CanonicalClass.A1:
        # T = 0 blocks the teleporter's noise entirely: N + xi T T^T = N, so
        # the simulation is exact for any mu
        return [0.0] * len(xis)
    elif tag is CanonicalClass.B2:
        # exact transparency limit of the beam-splitter dilation
        roots = _b2_root_infidelity(xis, form.noise_param, frame)
    else:
        raise NoUniformBoundError(
            f"class {tag.value} has rank-deficient noise: no uniform bound exists")
    return [2.0 * root for root in roots]


def nonuniform_witness(mu: float, mu_tilde: float) -> float:
    """Trace-distance lower bound ``2 [1 - F]`` between a two-mode squeezed
    input of variance mu_tilde and its mu-resource teleported image.

    At fixed mu it approaches 2 as mu_tilde grows, so no energy-independent
    simulation error can decay; at fixed mu_tilde it vanishes as mu grows.
    Evaluated from F of :func:`fidelity.fid_output_identity` without forming
    ``1 - F`` (see :func:`_identity_witness`), rounded down by 2^-45
    relative so that it never exceeds the exact value.
    """
    return _witness_column(mu, [_real(mu_tilde, "mu_tilde")])[0][0]


def b1_witness_bound(mu: float, mu_tilde: float, a: float = 1.0,
                     c: float = 0.0) -> float:
    """Trace-distance witness lower bound ``2 [1 - F]`` for the unit-rank-
    noise class, from the full two-mode fidelity of the witness outputs.

    ``F^4 mu_tilde`` converges to :func:`fidelity.b1_gamma` as the witness
    energy diverges, so the bound approaches 2 and uniform convergence fails.
    Evaluated in float64 as ``2 (1 - F^2) / (1 + F)`` from an exact closed
    form, rounded down by 2^-45 relative so that it never exceeds the exact
    value.
    """
    return _witness_column(mu, [_real(mu_tilde, "mu_tilde")], (a, c))[0][0]


# Inward rounding of the witnesses, B1's ``2 (1 - F^2) / (1 + F)`` and the
# identity's ``2 (1 - F)``, so that a lower bound never exceeds the exact
# value.  2^-45 relative exceeds the float64 rounding of the ~60 positive-term
# operations of _b1_witness_infidelity; unrounded, the B1 witness was measured
# at most 1.1e-15 relative off the exact value for mu, mu_tilde up to 1e300.
_B1_ROUND_DOWN = 1.0 - 2.0 ** -45


def _identity_witness(mu_tildes: list, xi: float) -> list:
    """``2 (1 - F)`` for the F of :func:`fidelity.fid_output_identity`, rounded
    down by 2^-45 relative, one per mu_tilde of the float list ``mu_tildes``.
    With ``x = mu_tilde xi / 2`` and ``s = sqrt(1 + x)``,
    ``1 - F = 1 - 1/s = x / (s (1 + s))``: every term is positive, and
    ``x <= mu_tilde`` cannot overflow."""
    sqrt, half, witness = math.sqrt, 0.5 * xi, []
    for m in mu_tildes:
        x = m * half
        s = sqrt(1.0 + x)
        witness.append(2.0 * (x / (s * (1.0 + s))) * _B1_ROUND_DOWN)
    return witness


def _as_grid(grid) -> list:
    """``grid`` as a list of floats: the entries of an array's ``tolist()``,
    a list, a tuple or a range, each a real number by :func:`_floats._real`
    (a list of floats is taken as it is).  Anything else, or a nested entry
    (not one-dimensional), raises :class:`DomainError`."""
    entries = grid.tolist() if hasattr(grid, "tolist") else grid
    if type(entries) is list and {*map(type, entries)} == {float}:
        return entries
    if not isinstance(entries, (list, tuple, range)):
        raise DomainError("grid must be a one-dimensional list, tuple, range or "
                          f"array, got {type(grid).__name__}")
    return [_real(x, "grid entry") for x in entries]


def _witness_column(mu: float, grid: list, row: tuple | None = None):
    """``(witness, xi)``: the B1 witness of the input-frame row ``(a, c)``
    (the identity witness for ``row=None``) at resource mu over the float
    list ``grid`` of mu_tilde, as a float list from one kernel pass, and
    the ``xi = bk_added_noise(mu)`` it used.  Checked in order: the row, mu,
    each mu_tilde in turn (finite, >= 1; the first bad one raises), then the
    column, where an overflowing row raises."""
    if row is not None:
        a, c = _frame_row(*row)
    xi, inf = bk_added_noise(mu), math.inf
    for m in grid:
        if not 1.0 <= m < inf:  # NaN fails too
            raise DomainError(f"mu_tilde must be finite and >= 1, got {m}")
    if row is None:
        return _identity_witness(grid, xi), xi
    sqrt, isfinite, witness = math.sqrt, math.isfinite, []
    for infidelity, f2 in _b1_witness_infidelity(grid, xi, a, c):
        # both are sums of positive terms, >= 0 or NaN, so their difference
        # is finite exactly where both are
        if not isfinite(infidelity - f2):
            raise DomainError(f"witness row (a, c) = ({a}, {c}): its "
                              "completion S overflows float64")
        w = 2.0 * infidelity / (1.0 + sqrt(f2)) * _B1_ROUND_DOWN
        witness.append(w if w < 2.0 else 2.0)
    return witness, xi


@dataclasses.dataclass(frozen=True)
class ScanRow:
    """One row of a convergence scan; exactly one of the two bound columns is
    populated, depending on the channel's rank."""

    mu: float
    mu_tilde: float | None
    xi: float
    upper_bound: float | None
    witness_lower_bound: float | None


@dataclasses.dataclass(frozen=True)
class ScanTable(Sequence):
    """A convergence scan as five tuple columns of equal length, one entry per
    grid point, named as the fields of :class:`ScanRow`.  A full-rank scan
    fills ``upper_bound`` and a rank-deficient one ``witness_lower_bound``;
    the other column, and ``mu_tilde`` of a full-rank scan, hold None.

    It is a sequence of :class:`ScanRow`, built on access: iteration yields
    one row per point, an int index (negative too) builds one, and a slice
    returns a list of them.  The scan itself builds none."""

    mu: tuple
    mu_tilde: tuple
    xi: tuple
    upper_bound: tuple
    witness_lower_bound: tuple

    def __len__(self) -> int:
        return len(self.mu)

    def _columns(self) -> tuple:
        return self.mu, self.mu_tilde, self.xi, self.upper_bound, self.witness_lower_bound

    def __iter__(self):
        return _scan_rows(zip(*self._columns()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_scan_rows(zip(*(column[index] for column in self._columns()))))
        return ScanRow(*(column[index] for column in self._columns()))


def _scan_rows(values):
    """``ScanRow(*v)`` for each ``v`` of ``values``, lazily, by one ``__dict__``
    store per row past the frozen ``__setattr__``."""
    new, store = object.__new__, object.__setattr__
    for mu, mu_tilde, xi, upper_bound, witness_lower_bound in values:
        row = new(ScanRow)
        store(row, "__dict__", {
            "mu": mu, "mu_tilde": mu_tilde, "xi": xi, "upper_bound": upper_bound,
            "witness_lower_bound": witness_lower_bound})
        yield row


_WITNESS_PARAMS = frozenset({"mu", "a", "c", "r"})


def _known_params(params, known: frozenset) -> dict:
    """A dict copy of the mapping ``params`` (None: empty) whose keys lie in
    ``known``; anything else raises :class:`DomainError`."""
    if params is None:
        return {}
    if not isinstance(params, (dict, Mapping)):  # dict first: no ABC check
        raise DomainError(f"params must be a mapping, got {type(params).__name__}")
    if not params.keys() <= known:
        raise DomainError(f"unknown params {sorted(params.keys() - known, key=str)}; "
                          f"expected a subset of {sorted(known)}")
    return dict(params)


def convergence_scan(ch: GaussianChannel, grid, witness_params: dict | None = None,
                     tol: float | None = None):
    """Tabulate the convergence diagnostics of a channel over a grid, as a
    :class:`ScanTable` of five tuple columns, one entry per grid point.

    For full-rank-noise channels the grid sweeps the resource variance mu and
    the ``upper_bound`` column carries the diamond upper bound.  For
    rank-deficient channels the grid sweeps the witness energy mu_tilde at
    fixed mu (``witness_params``: mu, and a, c for the unit-rank class; r for
    the dilation frame) and the ``witness_lower_bound`` column carries the
    witness lower bound.  Checked in order: the keys of ``witness_params``
    and their values, then the entries of the grid (a list, a tuple or a 1-D
    array), each a real number, not a bool, the one classification under
    ``tol``, then the input frame the bound reads, each mu in turn, and the
    bound column in one pass of its closed form, or each mu_tilde in turn
    and the witness column in one pass.  Each entry is bit-identical to
    :func:`bk_added_noise` and :func:`diamond_upper_bound`, or to
    :func:`b1_witness_bound` or :func:`nonuniform_witness`, at its point.
    The table is a sequence of :class:`ScanRow`, built on access (iteration,
    an index or a slice); the scan builds no row.  Every column runs on
    plain floats: no scan imports numpy.
    """
    return _scan(ch, grid, witness_params, tol)


def _scan(ch: GaussianChannel, grid, witness_params, tol: float | None,
          form: CanonicalForm | None = None) -> ScanTable:
    """:func:`convergence_scan` of ``form``, or of ``ch`` classified under
    ``tol`` once the witness params and the grid pass their checks.  A
    full-rank scan checks the frame, then the xi column (each mu in turn),
    then forms the bound column from it."""
    params = {key: _real(x, f"witness param {key!r}")
              for key, x in _known_params(witness_params, _WITNESS_PARAMS).items()}
    mus = _as_grid(grid)
    if form is None:
        form = classify(ch, tol)
    none = (None,) * len(mus)
    if form.tag.rank_n == 2:
        frame = _frame(form, params.get("r", 1.0), params.get("a", 1.0), params.get("c", 0.0))
        xis = _xi_column(mus)
        return ScanTable(tuple(mus), none, tuple(xis), tuple(_bound_column(form, xis, frame)),
                         none)
    mu = params.get("mu", 5.0)
    row = ((params.get("a", 1.0), params.get("c", 0.0))
           if form.tag is CanonicalClass.B1 else None)
    witness, xi = _witness_column(mu, mus, row)
    return ScanTable((mu,) * len(mus), tuple(mus), (xi,) * len(mus), none, tuple(witness))
