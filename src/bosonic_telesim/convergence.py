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
from itertools import repeat

import numpy as np

from .channels import CanonicalClass, CanonicalForm, GaussianChannel, classify
from .errors import DomainError, NoUniformBoundError
from .fidelity import _b1_witness_infidelity, _b2_infidelity, fid_env_A2, fid_env_C
from .teleportation import _env_gamma, _frame_row, bk_added_noise

__all__ = [
    "ConvergenceVerdict",
    "ScanRow",
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
    """
    return _diamond_bound(classify(ch, tol), mu, r, a, c)


def _diamond_bound(form: CanonicalForm, mu: float, r: float, a: float,
                   c: float) -> float:
    """:func:`diamond_upper_bound` of a channel already classified as ``form``."""
    xi = bk_added_noise(mu)
    omega = 2.0 * form.noise_param + 1.0
    tag = form.tag
    if tag in (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D):
        f = fid_env_C(_env_gamma(xi, form.tau), omega, r)
    elif tag is CanonicalClass.A2:
        f = fid_env_A2(xi, omega, a, c)
    elif tag is CanonicalClass.A1:
        # T = 0 blocks the teleporter's noise entirely: N + xi T T^T = N, so
        # the simulation is exact for any mu
        f = 1.0
    elif tag is CanonicalClass.B2:
        # exact transparency limit of the beam-splitter dilation
        return 2.0 * math.sqrt(_b2_infidelity(xi, form.noise_param, r))
    else:
        raise NoUniformBoundError(
            f"class {tag.value} has rank-deficient noise: no uniform bound exists")
    return 2.0 * math.sqrt(max(1.0 - f * f, 0.0))


def nonuniform_witness(mu: float, mu_tilde: float) -> float:
    """Trace-distance lower bound ``2 [1 - F]`` between a two-mode squeezed
    input of variance mu_tilde and its mu-resource teleported image.

    At fixed mu it approaches 2 as mu_tilde grows, so no energy-independent
    simulation error can decay; at fixed mu_tilde it vanishes as mu grows.
    Evaluated from F of :func:`fidelity.fid_output_identity` without forming
    ``1 - F`` (see :func:`_identity_witness`), rounded down by 2^-45
    relative so that it never exceeds the exact value.
    """
    return _witness_column(mu, (mu_tilde,))[1][0]


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
    return _witness_column(mu, (mu_tilde,), (a, c))[1][0]


# Inward rounding of the witnesses, B1's ``2 (1 - F^2) / (1 + F)`` and the
# identity's ``2 (1 - F)``, so that a lower bound never exceeds the exact
# value.  2^-45 relative exceeds the float64 rounding of the ~60 positive-term
# operations of _b1_witness_infidelity; unrounded, the B1 witness was measured
# at most 1.1e-15 relative off the exact value for mu, mu_tilde up to 1e300.
_B1_ROUND_DOWN = 1.0 - 2.0 ** -45


def _identity_witness(mu_tilde, xi):
    """``2 (1 - F)`` for the F of :func:`fidelity.fid_output_identity`, rounded
    down by 2^-45 relative.  With ``x = mu_tilde xi / 2`` and
    ``s = sqrt(1 + x)``, ``1 - F = 1 - 1/s = x / (s (1 + s))``: every term is
    positive, and ``x <= mu_tilde`` cannot overflow.  Elementwise on arrays."""
    x = mu_tilde * (0.5 * xi)
    s = np.sqrt(1.0 + x)
    return 2.0 * (x / (s * (1.0 + s))) * _B1_ROUND_DOWN


def _witness_column(mu: float, grid, row: tuple | None = None):
    """``(mu_tilde, witness, xi)``: float lists over the mu_tilde of ``grid``
    at resource mu, in one array pass, and the ``xi = bk_added_noise(mu)``
    they used (None when no row is valid): the B1 witness of the input-frame
    row ``row = (a, c)``, or the identity witness for ``row=None``.

    The closed forms use only + - * / and sqrt, so each element equals the
    one-point evaluation bit for bit.  The error raised is the one the rows
    would raise checked one after another: for each row its conversion by
    ``float`` and its ``mu_tilde >= 1``, then (at the first row) the row
    ``(a, c)`` and mu, then its witness.  An empty grid checks nothing.  A
    1-D float64 array (``np.geomspace``, ``np.linspace``) holds the floats
    already and converts as one ``tolist``.
    """
    unconverted = None
    if type(grid) is np.ndarray and grid.dtype == np.float64 and grid.ndim == 1:
        m, mu_tilde = grid, grid.tolist()
    else:
        mu_tilde = []
        try:
            for x in grid:
                mu_tilde.append(float(x))
        except (TypeError, ValueError, OverflowError) as exc:
            unconverted = exc
        m = np.array(mu_tilde)
    n_valid, witness, xi = len(mu_tilde), [], None
    with np.errstate(all="ignore"):  # a NaN row or a non-finite B1 row is rejected below
        # min and max propagate NaN: both pass only when every row is finite and >= 1
        if n_valid and not (m.min() >= 1.0 and m.max() < math.inf):
            n_valid = int((np.isfinite(m) & (m >= 1.0)).argmin())
            m = m[:n_valid]
        if n_valid:
            if row is not None:
                a, c = row
                _frame_row(a, c)
            xi = bk_added_noise(mu)
            if row is None:
                witness = _identity_witness(m, float(xi))
            else:
                infidelity, f2 = _b1_witness_infidelity(m, float(xi), a, c)
                # both are sums of positive terms, >= 0 or NaN, so their
                # difference is finite exactly where both are
                if not np.isfinite(infidelity - f2).all():
                    raise DomainError(f"witness row (a, c) = ({a}, {c}): its "
                                      "completion S overflows float64")
                witness = np.minimum(
                    2.0 * infidelity / (1.0 + np.sqrt(f2)) * _B1_ROUND_DOWN, 2.0)
            witness = witness.tolist()
    if n_valid < len(mu_tilde):
        raise DomainError(f"mu_tilde must be finite and >= 1, got {mu_tilde[n_valid]}")
    if unconverted is not None:
        raise unconverted
    return mu_tilde, witness, xi


@dataclasses.dataclass(frozen=True)
class ScanRow:
    """One row of a convergence scan; exactly one of the two bound columns is
    populated, depending on the channel's rank."""

    mu: float
    mu_tilde: float | None
    xi: float
    upper_bound: float | None
    witness_lower_bound: float | None


def convergence_scan(ch: GaussianChannel, grid, witness_params: dict | None = None,
                     tol: float | None = None):
    """Tabulate the convergence diagnostics of a channel over a grid.

    For full-rank-noise channels the grid sweeps the resource variance mu and
    the rows carry the diamond upper bound.  For rank-deficient channels the
    grid sweeps the witness energy mu_tilde at fixed mu (``witness_params``:
    mu, and a, c for the unit-rank class; r for the dilation frame) and the
    rows carry the witness lower bound.  The witness column is one array pass
    over the grid, each row bit-identical to :func:`b1_witness_bound` or
    :func:`nonuniform_witness` at its point, and a bad row raises what those
    would raise for the first bad row.  An empty grid yields an empty table.
    """
    params = dict(witness_params or {})
    form = classify(ch, tol)
    verdict = decide_uniform(ch, tol=tol)
    if verdict.uniform:
        r = params.get("r", 1.0)
        a, c = params.get("a", 1.0), params.get("c", 0.0)
        return _scan_rows((float(mu), None, bk_added_noise(mu),
                           diamond_upper_bound(ch, mu, r=r, a=a, c=c, tol=tol), None)
                          for mu in grid)
    mu = float(params.get("mu", 5.0))
    row = ((params.get("a", 1.0), params.get("c", 0.0))
           if form.tag is CanonicalClass.B1 else None)
    mu_tilde, witness, xi = _witness_column(mu, grid, row)
    return _scan_rows(zip(repeat(mu), mu_tilde, repeat(xi), repeat(None), witness))


def _scan_rows(values) -> list:
    """``[ScanRow(*v) for v in values]`` by one ``__dict__`` store per row past
    the frozen ``__setattr__``; ``values`` is consumed row by row, so a row's
    values are evaluated after the rows before it."""
    new, store, rows = object.__new__, object.__setattr__, []
    for mu, mu_tilde, xi, upper_bound, witness_lower_bound in values:
        row = new(ScanRow)
        store(row, "__dict__", {
            "mu": mu, "mu_tilde": mu_tilde, "xi": xi, "upper_bound": upper_bound,
            "witness_lower_bound": witness_lower_bound})
        rows.append(row)
    return rows
