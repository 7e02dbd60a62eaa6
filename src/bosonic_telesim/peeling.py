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

import numpy as np

from .channels import CanonicalForm, GaussianChannel, apply_channel, classify
from .convergence import _diamond_bound, _noise_rank, diamond_upper_bound
from .errors import DomainError, NoUniformBoundError
from .fidelity import fuchs_vdg, gaussian_fidelity
from .symplectic import (GaussianState, SymplecticMatrix, _self_check_tol, apply_affine,
                         tmsv_state)
from .teleportation import simulate_channel

__all__ = [
    "TOPOLOGIES",
    "AdaptiveProtocolSpec",
    "PeelingBound",
    "TwoRoundReport",
    "peel_bound",
    "epsilon_tp_bound",
    "two_round_demo",
]

TOPOLOGIES = ("bounded_uniform", "uniform", "strong")


@dataclasses.dataclass(frozen=True)
class AdaptiveProtocolSpec:
    """Validated description of an n-round adaptive protocol over a channel.

    The uniform topology demands a full-rank noise matrix (otherwise no
    energy-independent bound exists); the bounded-uniform topology demands a
    finite energy bound on the input alphabet.  ``tol`` decides the rank.
    """

    rounds: int
    channel: GaussianChannel
    topology: str
    energy_bound: float | None = None
    tol: float | None = None

    def __post_init__(self):
        _protocol_form(self.rounds, self.channel, self.topology, self.energy_bound,
                       self.tol)


def _check_schedule(rounds: int, topology: str) -> None:
    """The round count, then the topology: the first checks of both
    :func:`_protocol_form` and :func:`peel_bound`."""
    if rounds < 1:
        raise DomainError(f"round count must be >= 1, got {rounds}")
    if topology not in TOPOLOGIES:
        raise DomainError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")


def _protocol_form(rounds: int, ch: GaussianChannel, topology: str, energy_bound,
                   tol: float | None,
                   form: CanonicalForm | None = None) -> CanonicalForm | None:
    """The checks of :class:`AdaptiveProtocolSpec`, in order: the round count,
    the topology, the energy bound of the bounded-uniform topology, then the
    rank criterion of the uniform topology.  The criterion reads ``form``, or
    classifies ``ch`` under ``tol`` once the earlier checks pass.  Returns the
    form, or None when it was neither given nor needed."""
    _check_schedule(rounds, topology)
    if topology == "bounded_uniform" and (
            energy_bound is None or not np.isfinite(energy_bound)):
        raise DomainError("bounded_uniform topology requires a finite energy bound")
    if topology == "uniform":
        if form is None:
            form = classify(ch, tol)
        if _noise_rank(form) != 2:
            raise NoUniformBoundError(
                "uniform topology requires a full-rank noise matrix")
    return form


@dataclasses.dataclass(frozen=True)
class PeelingBound:
    """Per-use error and its n-fold accumulation, ``total = n delta``."""

    per_use_delta: float
    total: float
    topology: str


def peel_bound(n: int, delta: float, topology: str) -> PeelingBound:
    """Accumulated output error after n uses at per-use error delta."""
    _check_schedule(n, topology)
    if not 0.0 <= delta <= 2.0:
        raise DomainError(f"per-use trace-distance error must lie in [0, 2], got {delta}")
    return PeelingBound(per_use_delta=float(delta), total=n * float(delta),
                        topology=topology)


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
    the diamond bound.  The checks and their errors are those of
    :class:`AdaptiveProtocolSpec`, then those of :func:`diamond_upper_bound`.
    """
    params = dict(params or {})
    form = _protocol_form(n, ch, topology, params.get("energy_bound"), tol)
    if form is None:
        form = classify(ch, tol)
    delta = _diamond_bound(form, mu, params.get("r", 1.0), params.get("a", 1.0),
                           params.get("c", 0.0))
    return n * delta / 2.0


@functools.lru_cache(maxsize=8)
def _two_mode_squeezer(s: float) -> SymplecticMatrix:
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
    z = np.diag([1.0, -1.0])
    ch_, sh_ = np.cosh(s), np.sinh(s)
    m = np.block([[ch_ * np.eye(2), sh_ * z], [sh_ * z, ch_ * np.eye(2)]])
    return SymplecticMatrix(m, tol=_self_check_tol(np.max(np.abs(m)) ** 2))


@functools.lru_cache(maxsize=None)
def _probe() -> GaussianState:
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
    once per parameter and cached.  A squeeze whose ``cosh^2`` leaves float64
    range, or NaN, raises :class:`DomainError`.
    """
    delta = diamond_upper_bound(ch, mu)
    effective = simulate_channel(ch, mu).effective
    locc = _two_mode_squeezer(lo_cc_squeeze)
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
