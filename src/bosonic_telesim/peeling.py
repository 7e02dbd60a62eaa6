"""Error propagation through adaptive protocols ("peeling").

Replacing every transmission of an n-round adaptive protocol by its
teleportation simulation changes the final state by at most n times the
per-use simulation error: monotonicity of the trace distance under channels
peels the outermost use off, the triangle inequality splits it from the
rest, and induction does the counting.  The per-use error delta is measured
in the topology of interest: unconstrained diamond norm (uniform),
energy-constrained diamond norm (bounded-uniform), or per-state trace
distance (strong).
"""

from __future__ import annotations

import dataclasses
import functools
import math

from ._floats import _integral, _real, _self_check_tol
from .channels import CanonicalForm, GaussianChannel, apply_channel, classify
from .convergence import _diamond_bound, _known_params, diamond_upper_bound
from .errors import DomainError, NoUniformBoundError
from .fidelity import fuchs_vdg, gaussian_fidelity
from .symplectic import SymplecticMatrix, apply_affine, tmsv_state
from .teleportation import simulate_channel

__all__ = [
    "TOPOLOGIES",
    "PeelingBound",
    "TwoRoundReport",
    "peel_bound",
    "epsilon_tp_bound",
    "two_round_demo",
]

TOPOLOGIES = ("bounded_uniform", "uniform", "strong")
_PARAMS = frozenset({"energy_bound", "r", "a", "c"})


def _check_count(n, name: str) -> None:
    """A count of rounds or channel uses: an integer that is not a bool
    (``_floats._integral``), at least 1."""
    if not _integral(n):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


def _check_schedule(rounds: int, topology: str) -> None:
    """The round count, then the topology: the first checks of both
    :func:`_protocol_form` and :func:`peel_bound`."""
    _check_count(rounds, "round count")
    if topology not in TOPOLOGIES:
        raise DomainError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")


def _protocol_form(rounds: int, ch: GaussianChannel, topology: str, energy_bound,
                   tol: float | None,
                   form: CanonicalForm | None = None) -> CanonicalForm:
    """The checks of an n-round adaptive protocol over ``ch``, in order: the
    round count, the topology, the energy bound of the bounded-uniform
    topology (a finite real number by ``_floats._real``, then >= 0), then the
    rank criterion of the uniform topology, which demands a full-rank noise
    matrix (otherwise no energy-independent bound exists).  Returns ``form``, or ``ch`` classified
    under ``tol`` once the earlier checks pass."""
    _check_schedule(rounds, topology)
    if topology == "bounded_uniform":
        try:
            energy = _real(energy_bound, "energy bound")
        except DomainError:  # None (not given), or no real number within float64 range
            energy = math.nan
        if not math.isfinite(energy):
            raise DomainError("bounded_uniform topology requires a finite energy bound")
        if energy < 0:
            raise DomainError(f"energy bound must be >= 0, got {energy}")
    if form is None:
        form = classify(ch, tol)
    if topology == "uniform" and form.tag.rank_n != 2:
        raise NoUniformBoundError("uniform topology requires a full-rank noise matrix")
    return form


@dataclasses.dataclass(frozen=True)
class PeelingBound:
    """Per-use error and its n-fold accumulation, ``total = n delta``."""

    per_use_delta: float
    total: float
    topology: str


def peel_bound(n: int, delta: float, topology: str) -> PeelingBound:
    """Accumulated output error after n uses at per-use error delta, a real
    number in [0, 2]; both fields are Python floats."""
    _check_schedule(n, topology)
    delta = _real(delta, "per-use trace-distance error")
    if not 0.0 <= delta <= 2.0:
        raise DomainError(f"per-use trace-distance error must lie in [0, 2], got {delta}")
    return PeelingBound(per_use_delta=delta, total=float(n) * delta, topology=topology)


def _eps_tp(n: int, form: CanonicalForm, mu: float, r: float, a: float, c: float) -> float:
    """``eps_TP = n delta / 2`` of the per-use diamond bound delta of ``form``:
    the one form of :func:`epsilon_tp_bound` and ``capacity.corrected_key_bound``."""
    return n * _diamond_bound(form, mu, r, a, c) / 2.0


def epsilon_tp_bound(n: int, mu: float, ch: GaussianChannel, topology: str,
                     params: dict | None = None, *,
                     tol: float | None = None) -> float:
    """Upper bound ``n delta / 2`` on the output infidelity of the simulated
    protocol.

    delta is the computable per-use bound: the diamond upper bound for the
    uniform topology; the same channel-level bound under the bounded-uniform
    topology (the energy bound enters only as metadata, since the bound
    dominates its energy-constrained restriction); and the same quantity
    again for the strong topology, where it dominates the error of every
    state the protocol actually produces rather than a true supremum.  ``tol``
    reaches the one classification, which serves both the topology check and
    the diamond bound.  The checks and their errors are, in order: a
    ``params`` key outside energy_bound, r, a and c, those of
    :func:`_protocol_form`, then those of :func:`diamond_upper_bound`.
    """
    params = _known_params(params, _PARAMS)
    form = _protocol_form(n, ch, topology, params.get("energy_bound"), tol)
    return _eps_tp(n, form, mu, params.get("r", 1.0), params.get("a", 1.0),
                   params.get("c", 0.0))


@functools.lru_cache(maxsize=8)
def _two_mode_squeezer(s: float):
    """The validated (immutable) two-mode squeezer of parameter s.  Its
    symplectic check runs at the roundoff of ``S Omega S^T``, whose entries
    reach ``cosh^2 s``; an s whose ``cosh^2`` leaves float64 range (or NaN)
    is a :class:`DomainError`, raised before any array is formed."""
    try:
        finite = math.isfinite(math.cosh(s) ** 2)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"two-mode squeezing must be finite with cosh^2 s in float64 range, got {s}")
    import numpy as np

    z = np.diag([1.0, -1.0])
    ch_, sh_ = np.cosh(s), np.sinh(s)
    m = np.block([[ch_ * np.eye(2), sh_ * z], [sh_ * z, ch_ * np.eye(2)]])
    return SymplecticMatrix(m, tol=_self_check_tol(np.abs(m).max() ** 2))


@functools.lru_cache(maxsize=None)
def _probe():
    """The (immutable) probe of :func:`two_round_demo`, ``tmsv_state(2.0)``,
    built and checked once."""
    return tmsv_state(2.0)


@dataclasses.dataclass(frozen=True)
class TwoRoundReport:
    """Numbers produced by the two-round interleaving demonstration."""

    mu: float
    per_use_delta: float
    peel_total: float
    fidelity: float
    trace_upper_bound: float
    holds: bool


def two_round_demo(ch: GaussianChannel, mu: float,
                   lo_cc_squeeze: float = 0.2) -> TwoRoundReport:
    """Exercise the two-round peeling chain on a concrete Gaussian protocol.

    A two-mode squeezed probe (variance 2) sends its second mode through the
    channel, the two modes interact through a fixed two-mode squeezer of
    parameter ``lo_cc_squeeze`` (a measurement-free stand-in for the adaptive
    operation), and the second mode is transmitted again.  The run is
    repeated with the mu-resource simulated channel, and the trace distance
    between the two final states, estimated from above via their fidelity, is
    checked against the accumulated peeling bound ``2 delta``.

    The channel must be in canonical form (the per-use bound is evaluated in
    the canonical dilation frame) with full-rank noise.  Both runs start from
    the same probe, built once and cached, and share the squeezer, validated
    once per parameter and cached.  A squeeze that is not a real number
    (``_floats._real``), or NaN, or whose ``cosh^2`` leaves float64 range,
    raises :class:`DomainError`.
    """
    delta = diamond_upper_bound(ch, mu)
    effective = simulate_channel(ch, mu).effective
    locc = _two_mode_squeezer(_real(lo_cc_squeeze, "two-mode squeezing"))
    probe = _probe()

    def run(channel):
        state = apply_channel(channel, probe, target_mode=1)
        state = apply_affine(state, locc)
        return apply_channel(channel, state, target_mode=1)

    f = gaussian_fidelity(run(ch), run(effective))
    trace_ub = fuchs_vdg(f).upper
    holds = trace_ub <= 2.0 * delta + 1e-12
    if not holds:
        raise ArithmeticError(
            f"two-round trace bound {trace_ub:g} exceeds peeling total {2 * delta:g}")
    return TwoRoundReport(mu=float(mu), per_use_delta=delta, peel_total=2.0 * delta,
                          fidelity=f, trace_upper_bound=trace_ub, holds=holds)
