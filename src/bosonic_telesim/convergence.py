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

import mpmath as mp
import numpy as np

from .channels import CanonicalClass, GaussianChannel, classify
from .errors import DomainError, NoUniformBoundError
from .fidelity import (_b2_infidelity, _fidelity_mp, fid_env_A2, fid_env_C,
                       fid_output_identity)
from .teleportation import _env_gamma, bk_added_noise
from .tolerances import Tolerances

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
    """Outcome of the rank criterion, with an optional sampled bound curve."""

    uniform: bool
    reason: str
    bound_curve: tuple = ()


def decide_uniform(ch: GaussianChannel, mu_grid=None,
                   tol: Tolerances | None = None) -> ConvergenceVerdict:
    """Uniform convergence holds iff rank(N) = 2.

    The verdict is decided symbolically from the classification; when a
    ``mu_grid`` is supplied and the verdict is positive, the upper-bound
    curve is sampled as numerical evidence.
    """
    form = classify(ch, tol)
    rank_n = {CanonicalClass.B2_Id: 0, CanonicalClass.B1: 1}.get(form.tag, 2)
    uniform = rank_n == 2
    reason = f"{form.tag.value}: rank(N)={rank_n}"
    curve = ()
    if uniform and mu_grid is not None:
        curve = tuple((float(mu), diamond_upper_bound(ch, mu, tol=tol))
                      for mu in mu_grid)
    return ConvergenceVerdict(uniform=uniform, reason=reason, bound_curve=curve)


def diamond_upper_bound(ch: GaussianChannel, mu: float, *, r: float = 1.0,
                        a: float = 1.0, c: float = 0.0,
                        tol: Tolerances | None = None) -> float:
    """Diamond-distance upper bound ``2 sqrt(1 - F^2)`` between a full-rank-
    noise channel and its mu-resource teleportation simulation.

    ``r`` (for the C, D and additive classes) or ``a, c`` (for A2) fix the
    input-frame symplectic of the channel's reduction to canonical form; the
    defaults describe a channel already in canonical form.  Channels with
    rank-deficient noise have no such bound and raise
    :class:`NoUniformBoundError`.
    """
    form = classify(ch, tol)
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
        return float(2.0 * np.sqrt(_b2_infidelity(xi, form.noise_param, r)))
    else:
        raise NoUniformBoundError(
            f"class {tag.value} has rank-deficient noise: no uniform bound exists")
    return float(2.0 * np.sqrt(max(1.0 - f * f, 0.0)))


def nonuniform_witness(mu: float, mu_tilde: float) -> float:
    """Trace-distance lower bound ``2 [1 - F]`` between a two-mode squeezed
    input of variance mu_tilde and its mu-resource teleported image.

    At fixed mu it approaches 2 as mu_tilde grows, so no energy-independent
    simulation error can decay; at fixed mu_tilde it vanishes as mu grows.
    """
    if mu_tilde < 1.0 or mu < 1.0:
        raise DomainError("both variance parameters must be >= 1")
    return 2.0 * (1.0 - fid_output_identity(mu_tilde, mu))


def _b1_witness_cms(mu_tilde: float, xi, a: float, c: float):
    """Output CMs of the unit-rank-noise form and of its simulation, fed the
    two-mode squeezed witness; built in extended precision so the near-unit
    correlations survive.  The input-frame symplectic contributes only through
    its first row (a, c)."""
    mut = mp.mpf(mu_tilde)
    s = mp.sqrt(mut * mut - 1)
    base = [[mut, 0, s, 0],
            [0, mut, 0, -s],
            [s, 0, mut, 0],
            [0, -s, 0, mut + 1]]  # + diag(0, 1) channel noise on mode B
    va = [row[:] for row in base]
    vb = [row[:] for row in base]
    # simulation adds xi S_A S_A^T on mode B before the channel; complete
    # (a, c) to a determinant-one matrix, the expansion is row-one only
    d_, b_ = (0.0, 1.0 / a) if a != 0.0 else (-1.0 / c, 0.0)
    sa = np.array([[a, c], [d_, b_]], dtype=float)
    ssT = sa @ sa.T
    for i in range(2):
        for j in range(2):
            vb[2 + i][2 + j] += xi * mp.mpf(ssT[i, j])
    return va, vb


def b1_witness_bound(mu: float, mu_tilde: float, a: float = 1.0,
                     c: float = 0.0) -> float:
    """Trace-distance witness lower bound ``2 [1 - F]`` for the unit-rank-
    noise class, from the full two-mode fidelity of the witness outputs.

    ``F^4 mu_tilde`` converges to :func:`fidelity.b1_gamma` as the witness
    energy diverges, so the bound approaches 2 and uniform convergence fails.
    Evaluated in extended precision (the fidelity scales as mu_tilde^{-1/4}
    and float64 cannot resolve it beyond mu_tilde ~ 1e5).
    """
    if mu_tilde < 1.0 or mu < 1.0:
        raise DomainError("both variance parameters must be >= 1")
    if a == 0.0 and c == 0.0:
        raise DomainError("(a, c) = (0, 0) is outside the witness family")
    xi = bk_added_noise(mu)
    dps = max(40, int(8 * np.log10(max(mu_tilde, 10.0))))
    with mp.workdps(dps):
        va, vb = _b1_witness_cms(mu_tilde, mp.mpf(xi), a, c)
        f = _fidelity_mp(va, vb, dps=dps)
        return float(2 * (1 - f))


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
                     tol: Tolerances | None = None):
    """Tabulate the convergence diagnostics of a channel over a grid.

    For full-rank-noise channels the grid sweeps the resource variance mu and
    the rows carry the diamond upper bound.  For rank-deficient channels the
    grid sweeps the witness energy mu_tilde at fixed mu (``witness_params``:
    mu, and a, c for the unit-rank class; r for the dilation frame) and the
    rows carry the witness lower bound.  An empty grid yields an empty table.
    """
    params = dict(witness_params or {})
    form = classify(ch, tol)
    verdict = decide_uniform(ch, tol=tol)
    rows = []
    if verdict.uniform:
        r = params.get("r", 1.0)
        a, c = params.get("a", 1.0), params.get("c", 0.0)
        for mu in grid:
            rows.append(ScanRow(mu=float(mu), mu_tilde=None, xi=bk_added_noise(mu),
                                upper_bound=diamond_upper_bound(
                                    ch, mu, r=r, a=a, c=c, tol=tol),
                                witness_lower_bound=None))
        return rows
    mu = float(params.get("mu", 5.0))
    for mu_tilde in grid:
        if form.tag is CanonicalClass.B1:
            witness = b1_witness_bound(mu, mu_tilde,
                                       params.get("a", 1.0), params.get("c", 0.0))
        else:
            witness = nonuniform_witness(mu, mu_tilde)
        rows.append(ScanRow(mu=mu, mu_tilde=float(mu_tilde), xi=bk_added_noise(mu),
                            upper_bound=None, witness_lower_bound=witness))
    return rows
